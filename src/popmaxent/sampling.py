"""Weighted categorical sampling via Walker/Vose alias tables.

Construction is deterministic in the input weights; draws are O(1) each
and reproducible given a seeded generator.

The build is Vose's (1991) stack algorithm with a fixed order: the small
(scaled weight < 1) and large (>= 1) entries are listed in ascending
index, the next small entry is popped from the top of its stack and
takes its remainder from the top large entry, and a large entry that
drops below 1 is pushed onto the small stack, so it is popped next.
What it costs is O(n) in numpy plus one Python step per nonzero small
entry and per large entry: runs of zero-weight small entries leave the
stack as one slice each.  That is exact, not an approximation.  A zero
entry takes exactly ``1.0 - 0.0 = 1.0`` from the large entry's scaled
value r, and for 1 <= r < 2^53 (scaled values never exceed about n)
``r - 1`` is exact, so ``r - k`` equals k single subtractions; the
large entry therefore takes ``min(floor(r), run length)`` zeros at once
and leaves the same remainder.  The table is bit-identical to the
one-entry-at-a-time build, which the tests keep as a frozen copy.  The
nonzero steps run on Python floats, which are the same IEEE doubles as
numpy scalars, with each operation's operands in the same order.
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
        n = w.size
        with np.errstate(over="ignore", divide="ignore"):
            total = w.sum()
            factor = n / total
        if total <= 0.0:
            raise ValidationError("alias weights must have positive total mass")
        if not np.isfinite(total):
            raise ValidationError(f"alias weight total overflows to {total}; rescale the weights")
        if not np.isfinite(factor):
            raise ValidationError(
                f"alias weight total {total!r} is too small to scale by {n} cells"
            )

        scaled = w * factor
        prob = np.ones(n)
        alias = np.arange(n)
        below = scaled < 1.0
        small = np.flatnonzero(below)
        large = np.flatnonzero(~below)
        # the nonzero small entries: their stack positions, indices, values
        nonzero = np.flatnonzero(below & (scaled != 0.0))
        nz_pos = np.searchsorted(small, nonzero).tolist()
        nz_idx = nonzero.tolist()
        nz_val = scaled[nonzero].tolist()
        large_idx = large.tolist()
        large_val = scaled[large].tolist()

        out_s, out_p, out_a = [], [], []
        i = len(nz_pos) - 1  # the topmost nonzero small entry still stacked
        p = small.size  # small[:p] are still stacked
        t = len(large_idx)  # large_idx[:t] are still stacked
        pending, pending_val = -1, 0.0  # an exhausted large entry, popped next
        if t:
            l, r = large_idx[t - 1], large_val[t - 1]
        while t and (p or pending >= 0):
            if pending >= 0:
                s, x = pending, pending_val
                pending = -1
            elif i >= 0 and nz_pos[i] == p - 1:
                s, x = nz_idx[i], nz_val[i]
                i -= 1
                p -= 1
            else:
                # a run of zeros, small[lo:p]; each takes exactly 1.0 from r
                lo = nz_pos[i] + 1 if i >= 0 else 0
                k = min(int(r), p - lo)
                run = small[p - k:p]
                prob[run] = scaled[run]  # keeps the sign of -0.0 weights
                alias[run] = l
                p -= k
                r -= k
                s = -1
            if s >= 0:
                out_s.append(s)
                out_p.append(x)
                out_a.append(l)
                r -= 1.0 - x
            if r < 1.0:
                pending, pending_val = l, r
                t -= 1
                if t:
                    l, r = large_idx[t - 1], large_val[t - 1]
        # leftovers are 1 up to rounding
        if out_s:
            prob[out_s] = out_p
            alias[out_s] = out_a
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
