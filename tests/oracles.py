"""Independent reference implementations used as test oracles.

Deliberately naive: plain dicts, Counters, and per-cell loops, sharing no
machinery with the package beyond primitive types.  Where a fast
implementation exists in the package, these stay the slow second route.
The one exception is :func:`frozen_rake_array`, a frozen copy of an
earlier fast raking replay that raises the package's own error type, so
that the two can be compared for bit-identical weights and errors.
"""

import itertools
import math
from collections import Counter

import numpy as np

from popmaxent.errors import UnmatchableConstraintError


def entropy(freqs):
    return -sum(f * math.log(f) for f in freqs if f > 0)


def naive_nmi(rows, i, j):
    """NMI from raw assignment rows via Counter arithmetic."""
    n = len(rows)
    ci = Counter(r[i] for r in rows)
    cj = Counter(r[j] for r in rows)
    cij = Counter((r[i], r[j]) for r in rows)
    hi = entropy([c / n for c in ci.values()])
    hj = entropy([c / n for c in cj.values()])
    hij = entropy([c / n for c in cij.values()])
    if hi <= 0 or hj <= 0:
        return 0.0
    return max(hi + hj - hij, 0.0) / (0.5 * (hi + hj))


def naive_pair_freqs(rows, a, b):
    n = len(rows)
    c = Counter((r[a], r[b]) for r in rows)
    return {k: v / n for k, v in c.items()}


def naive_triple_freqs(rows, a, b, c):
    n = len(rows)
    cnt = Counter((r[a], r[b], r[c]) for r in rows)
    return {k: v / n for k, v in cnt.items()}


def naive_ipf(pair_targets, shape, sweeps=50000, tol=1e-12):
    """Dict-based cyclic fitting of a triple joint to three pair targets.

    pair_targets maps position pairs, e.g. (0, 1), to {combo: freq} dicts.
    """
    cells = list(itertools.product(*(range(d) for d in shape)))
    q = {cell: 1.0 / len(cells) for cell in cells}
    pairs = sorted(pair_targets)
    for _ in range(sweeps):
        for pos in pairs:
            proj = Counter()
            for cell, v in q.items():
                proj[(cell[pos[0]], cell[pos[1]])] += v
            for cell in cells:
                key = (cell[pos[0]], cell[pos[1]])
                t = pair_targets[pos].get(key, 0.0)
                p = proj[key]
                q[cell] = q[cell] * (t / p) if p > 0 else 0.0
        err = 0.0
        for pos in pairs:
            proj = Counter()
            for cell, v in q.items():
                proj[(cell[pos[0]], cell[pos[1]])] += v
            keys = set(proj) | set(pair_targets[pos])
            err = max(
                err,
                max(abs(proj.get(k, 0.0) - pair_targets[pos].get(k, 0.0)) for k in keys),
            )
        if err < tol:
            break
    return q


def naive_kl(p, q):
    """KL over dicts; cells absent from p contribute nothing."""
    return sum(v * math.log(v / q[k]) for k, v in p.items() if v > 0)


def naive_triple_score(rows, triple):
    """Brute-force phase-3 ranking score of one attribute triple."""
    a, b, c = triple
    observed = naive_triple_freqs(rows, a, b, c)
    shape = tuple(len({r[x] for r in rows}) for x in triple)
    targets = {
        (0, 1): naive_pair_freqs(rows, a, b),
        (0, 2): naive_pair_freqs(rows, a, c),
        (1, 2): naive_pair_freqs(rows, b, c),
    }
    q = naive_ipf(targets, shape)
    return naive_kl(observed, q)


def naive_rake(schema, constraints, iterations, start=None, after_update=None):
    """Literal sequential raking: one constraint at a time, the pattern
    rescaled to its target and the complement to the remaining mass.

    ``after_update(j, weights)`` is called after each constraint's update.
    """
    n = schema.n_cells
    w = np.full(n, 1.0 / n) if start is None else start.astype(float).copy()
    masks = [
        np.array([c.pattern.matches(schema, cell) for cell in range(n)])
        for c in constraints.constraints
    ]
    for _ in range(iterations):
        for j, c in enumerate(constraints.constraints):
            mass = w[masks[j]].sum()
            if mass <= 0 or (mass >= 1 and c.target < 1):
                raise ValueError(f"constraint {j} unmatchable")
            w[masks[j]] *= c.target / mass
            if mass < 1:
                w[~masks[j]] *= (1.0 - c.target) / (1.0 - mass)
            if after_update is not None:
                after_update(j, w.copy())
    return w


def frozen_rake_array(constraints, iterations, start, tol, cells=None):
    """The scope-batched raking replay as it stood before the replay moved
    to Python floats, kept frozen: numpy scalars, a dict of running factors,
    and a factor table filled per touched combination.

    Same contract as ``raking._rake_array``: rakes ``start`` in place (dense
    over the space, or the weights of ``cells`` only) and returns
    (weights, passes, last max deviation).
    """
    schema = constraints.schema
    shape = schema.shape
    runs = []
    current_scope = None
    for j, c in enumerate(constraints.constraints):
        scope = c.pattern.scope
        sshape = tuple(shape[a] for a in scope)
        if scope != current_scope:
            runs.append(
                dict(
                    scope=scope,
                    shape=sshape,
                    size=math.prod(sshape),
                    bshape=tuple(d if a in scope else 1 for a, d in enumerate(shape)),
                    other_axes=tuple(a for a in range(len(shape)) if a not in scope),
                    items=[],
                )
            )
            current_scope = scope
        flat = 0
        for v, d in zip(c.pattern.values, sshape):
            flat = flat * d + v
        runs[-1]["items"].append((flat, c.target, j))

    max_dev = math.inf
    passes = 0
    if cells is None:
        wv = start.reshape(shape)

        def project(run):
            return wv.sum(axis=run["other_axes"]).ravel()

        def scale(run, fac):
            np.multiply(wv, fac.reshape(run["bshape"]), out=wv)
    else:
        wv = start
        coords = np.unravel_index(np.asarray(cells, dtype=np.int64), shape)
        keys = {
            run["scope"]: np.ravel_multi_index(
                tuple(coords[a] for a in run["scope"]), run["shape"]
            )
            for run in runs
        }

        def project(run):
            return np.bincount(keys[run["scope"]], weights=wv, minlength=run["size"])

        def scale(run, fac):
            np.multiply(wv, fac[keys[run["scope"]]], out=wv)

    def apply(run, gfac, glob):
        fac = np.full(run["size"], glob)
        for flat, g in gfac.items():
            fac[flat] = g * glob
        scale(run, fac)

    for _ in range(iterations):
        max_dev = 0.0
        for run in runs:
            proj = project(run)
            glob = 1.0
            gfac = {}
            for flat, target, j in run["items"]:
                mass = glob * gfac.get(flat, 1.0) * proj[flat]
                problem = None
                if mass <= 0.0:
                    problem = "zero current mass"
                elif mass >= 1.0 and target < 1.0:
                    problem = "all current mass (complement target unmatchable)"
                if problem is not None:
                    raise UnmatchableConstraintError(
                        j,
                        f"constraint {j} (pattern "
                        f"{constraints.constraints[j].pattern.describe(schema)}, "
                        f"target {target}) has {problem}",
                    )
                up = target / mass
                down = (1.0 - target) / (1.0 - mass) if mass < 1.0 else 1.0
                if down == 0.0:
                    apply(run, gfac, glob)
                    hard = np.zeros(run["size"])
                    hard[flat] = up
                    scale(run, hard)
                    proj = np.zeros(run["size"])
                    proj[flat] = 1.0
                    glob, gfac = 1.0, {}
                else:
                    gfac[flat] = gfac.get(flat, 1.0) * (up / down)
                    glob *= down
                dev = max(abs(up - 1.0), abs(down - 1.0))
                if dev > max_dev:
                    max_dev = dev
            apply(run, gfac, glob)
        wv /= wv.sum()
        passes += 1
        if tol is not None and max_dev <= tol:
            break
    return start, passes, max_dev


def product_distribution(schema, unary_freqs):
    """Dense product-of-marginals distribution, outer products by hand."""
    dense = np.ones(1)
    for a in range(schema.k):
        col = np.array([unary_freqs[a].get(v, 0.0) for v in range(len(schema.domain(a)))])
        dense = np.multiply.outer(dense, col)
    return dense.reshape(-1)


def central_difference_gradient(fun, x, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (fun(hi) - fun(lo)) / (2 * step)
    return g
