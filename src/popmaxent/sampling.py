"""Weighted categorical sampling via Walker/Vose alias tables.

A table covers only the positive entries of its weights (its
``support``), so a raked pool's weights over a large space build a table
of at most the pool's cells, and no draw lands on a zero-weight entry.
Construction is Vose's (1991) stack algorithm, deterministic in the
weights: small (scaled weight < 1) and large (>= 1) entries are stacked
in ascending order, the top small entry takes its remainder from the top
large entry, and a large entry that drops below 1 moves to the small
stack.  Draws are O(1) each and reproducible given a seeded generator.
"""

from __future__ import annotations

import numpy as np

from .core import AttributeSchema, Population, check_seed
from .errors import ValidationError


class AliasTable:
    """Alias table over the positive entries of ``weights``; draws index ``weights``."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("alias table needs a nonempty 1-d weight vector")
        if np.any(w < 0.0) or not np.isfinite(w).all():
            raise ValidationError("alias weights must be finite and nonnegative")
        self.support = np.flatnonzero(w)
        x = w[self.support]
        m = x.size
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            total = x.sum()
            factor = m / total
        if total <= 0.0:
            raise ValidationError("alias weights must have positive total mass")
        if not np.isfinite(total):
            raise ValidationError(f"alias weight total overflows to {total}; rescale the weights")
        if not np.isfinite(factor):
            raise ValidationError(
                f"alias weight total {total!r} is too small to scale by {m} cells"
            )

        scaled = x * factor
        below = scaled < 1.0
        small = np.flatnonzero(below).tolist()
        large = np.flatnonzero(~below).tolist()
        scaled = scaled.tolist()
        prob = [1.0] * m  # leftovers are 1 up to rounding
        alias = list(range(m))
        while small and large:
            s = small.pop()
            l = large[-1]
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            if scaled[l] < 1.0:
                small.append(l)
                large.pop()
        self._prob = np.array(prob)
        self._alias = np.array(alias)

    def _positions(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws as positions in :attr:`support`."""
        idx = rng.integers(0, self._prob.size, size=size)
        u = rng.random(size)
        return np.where(u < self._prob[idx], idx, self._alias[idx])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.support[self._positions(rng, size)]


def draw_population(schema: AttributeSchema, table: AliasTable, n: int, seed: int) -> Population:
    """n i.i.d. cells drawn from ``table`` under ``default_rng(seed)``, as a population."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    check_seed("seed", seed)
    counts = np.bincount(table._positions(np.random.default_rng(seed), n),
                         minlength=table.support.size)
    kept = np.flatnonzero(counts)
    return Population(schema, table.support[kept], counts[kept])
