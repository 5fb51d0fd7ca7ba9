"""Weighted categorical sampling via Walker/Vose alias tables.

Construction is O(n) and deterministic in the input weights; draws are
O(1) each and reproducible given a seeded generator.
"""

from __future__ import annotations

import numpy as np

from .core import AttributeSchema, Population
from .errors import ValidationError


class AliasTable:
    """Alias table over ``len(weights)`` categories."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("alias table needs a nonempty 1-d weight vector")
        if np.any(w < 0.0) or not np.isfinite(w).all():
            raise ValidationError("alias weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0.0:
            raise ValidationError("alias weights must have positive total mass")

        n = w.size
        scaled = w * (n / total)
        prob = np.ones(n)
        alias = np.arange(n)
        # index order fixed ascending so the table is reproducible
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large[-1]
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            if scaled[l] < 1.0:
                small.append(l)
                large.pop()
        # leftovers are 1 up to rounding
        self._prob = prob
        self._alias = alias
        self.n = n

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.n, size=size)
        u = rng.random(size)
        return np.where(u < self._prob[idx], idx, self._alias[idx])


def draw_population(schema: AttributeSchema, table: AliasTable, n: int, seed: int) -> Population:
    """n i.i.d. cells drawn from ``table`` under ``default_rng(seed)``, as a population."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    counts = np.bincount(table.draw(np.random.default_rng(seed), n), minlength=table.n)
    cells = np.flatnonzero(counts)
    return Population(schema, cells.astype(np.int64), counts[cells].astype(np.int64))
