"""Independent reference implementations used as test oracles.

Deliberately naive: plain dicts, Counters, and per-cell loops, sharing no
machinery with the package beyond primitive types.  Where a fast
implementation exists in the package, these stay the slow second route.
The exceptions are frozen copies of earlier fast paths, kept so that the
package's current paths can be compared with them bit for bit:
:func:`frozen_rake_array` (the numpy-scalar raking replay) and
:func:`frozen_nmi`, :func:`frozen_ipf_fit` and :func:`frozen_triple_score`
(pair and triple scoring one candidate at a time), and
:class:`FrozenAliasTable` (the Vose build one entry at a time),
:func:`frozen_run_chain` (the Metropolis chain on per-scope tables) and
:func:`frozen_clique_chain` (the chain on clique factors, one step per
proposal), and
:func:`frozen_read_population_text` and :func:`frozen_population_text`
(population text parsed one row at a time and written one cell at a time).
They raise the package's own error types, so that errors compare too.
"""

import csv
import io
import itertools
import math
import re
from array import array
from collections import Counter

import numpy as np

from popmaxent.core import AttributeSchema, Population, _ScopeGroup
from popmaxent.errors import ConvergenceError, UnmatchableConstraintError, ValidationError
from popmaxent.model import _chain_factors


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


class FrozenAliasTable:
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


def frozen_run_chain(model, sweeps, burn_in, seed):
    """Post-burn-in cell codes of the single-site Metropolis chain, as it ran
    on per-scope tables: a proposal's energy change sums the change of every
    scope group's multiplier table that holds the proposed attribute."""
    shape = model.schema.shape
    k = len(shape)
    layout = model.constraints.layout
    # (group's table, stride of the attribute in it, group) per attribute
    touching = [[] for _ in range(k)]
    for s_idx, (g, table) in enumerate(zip(layout.groups, layout.scope_tables(model.lam))):
        table = table.tolist()
        for attr, stride in zip(g.scope, g.strides):
            touching[attr].append((table, stride, s_idx))
    cell_strides = [math.prod(shape[a + 1:]) for a in range(k)]
    rng = np.random.default_rng(seed)

    state = [int(rng.integers(0, d)) for d in shape]
    cell = sum(v * stride for v, stride in zip(state, cell_strides))
    flat = [g.keys(state) for g in layout.groups]  # current flat combo per scope

    attrs = rng.integers(0, k, size=sweeps).tolist()
    cat_u = rng.random(sweeps).tolist()
    acc_u = rng.random(sweeps).tolist()

    visits = []
    for t, (a, u_cat, u_acc) in enumerate(zip(attrs, cat_u, acc_u)):
        old = state[a]
        new = int(u_cat * shape[a])
        if new != old:
            d_e = 0.0
            deltas = []
            for table, stride, s_idx in touching[a]:
                f_old = flat[s_idx]
                f_new = f_old + (new - old) * stride
                d_e += table[f_new] - table[f_old]
                deltas.append((s_idx, f_new))
            if d_e >= 0.0 or u_acc < math.exp(d_e):
                state[a] = new
                cell += (new - old) * cell_strides[a]
                for s_idx, f_new in deltas:
                    flat[s_idx] = f_new
        if t >= burn_in:
            visits.append(cell)
    return visits


def frozen_clique_chain(model, sweeps, burn_in, seed):
    """Post-burn-in visits of the single-site Metropolis chain as a population,
    as it ran on clique factors before it was recorded by its moves: one
    Python step per proposal, no-op proposals included, and one appended
    cell code per post-burn-in step."""
    schema = model.schema
    shape = schema.shape
    k = schema.k
    factors = _chain_factors(model)
    # (factor's table, stride of the attribute in it, factor) per attribute
    touching = [[] for _ in range(k)]
    for f_idx, (g, table) in enumerate(factors):
        for attr, stride in zip(g.scope, g.strides):
            touching[attr].append((table, stride, f_idx))
    # the full space as one table: its flat entry is the cell code
    space = _ScopeGroup(schema, tuple(range(k)))
    rng = np.random.default_rng(seed)

    state = [int(rng.integers(0, d)) for d in shape]
    cell_strides = space.strides
    cell = space.keys(state)
    flat = [g.keys(state) for g, _ in factors]  # current flat entry per factor

    attrs = rng.integers(0, k, size=sweeps).tolist()
    cat_u = rng.random(sweeps).tolist()
    acc_u = rng.random(sweeps).tolist()

    visits = array("q")  # int64 cell codes, 8 bytes each

    for t, (a, u_cat, u_acc) in enumerate(zip(attrs, cat_u, acc_u)):
        old = state[a]
        new = int(u_cat * shape[a])
        if new != old:
            d_e = 0.0
            deltas = []
            for table, stride, f_idx in touching[a]:
                f_old = flat[f_idx]
                f_new = f_old + (new - old) * stride
                d_e += table[f_new] - table[f_old]
                deltas.append((f_idx, f_new))
            if d_e >= 0.0 or u_acc < math.exp(d_e):
                state[a] = new
                cell += (new - old) * cell_strides[a]
                for f_idx, f_new in deltas:
                    flat[f_idx] = f_new
        if t >= burn_in:
            visits.append(cell)
    return Population.from_codes(schema, visits)


def frozen_dense_marginal(pop, scope):
    """Dense frequency table of ``pop`` over ``scope``, as ``marginal(...)
    .to_dense(...)`` computed it one scope at a time: coordinates, then a
    weighted ``bincount``, then each count over the total."""
    coords = np.array(np.unravel_index(pop.cells, pop.schema.shape))
    shape = tuple(len(pop.schema.domain(a)) for a in scope)
    flat = np.ravel_multi_index(tuple(coords[a] for a in scope), shape)
    sums = np.bincount(flat, weights=pop.counts, minlength=int(np.prod(shape)))
    out = np.zeros(shape)
    for idx in np.flatnonzero(sums):
        out[np.unravel_index(idx, shape)] = float(sums[idx]) / pop.total
    return out


def _frozen_entropy(freqs):
    p = freqs[freqs > 0]
    return float(-(p * np.log(p)).sum())


def frozen_nmi(pop, i, j):
    """Pair NMI as scored one pair at a time before batched scoring."""
    joint = frozen_dense_marginal(pop, (i, j))
    hi, hj = _frozen_entropy(joint.sum(axis=1)), _frozen_entropy(joint.sum(axis=0))
    hij = _frozen_entropy(joint)
    if hi <= 0.0 or hj <= 0.0:
        return 0.0
    return max(hi + hj - hij, 0.0) / (0.5 * (hi + hj))


def frozen_ipf_fit(targets, tol=1e-10, max_sweeps=10_000):
    """The one-triple IPF loop as it stood before batched scoring.

    ``targets`` maps the position pairs (0, 1), (0, 2) and (1, 2) to dense
    pairwise tables.  Raises the package's ``ConvergenceError``.
    """
    shape = (targets[(0, 1)].shape[0], targets[(0, 1)].shape[1], targets[(0, 2)].shape[1])
    joint = np.full(shape, 1.0 / math.prod(shape))
    pairs = sorted(targets)
    residual = math.inf
    for _ in range(max_sweeps):
        for pos in pairs:
            other = next(ax for ax in range(3) if ax not in pos)
            proj = joint.sum(axis=other)
            t = targets[pos]
            if np.any((proj <= 0.0) & (t > 0.0)):
                raise ConvergenceError(
                    "ipf_fit: positive pairwise target over zero current mass",
                    residual=float(np.abs(proj - t).max()),
                )
            ratio = np.divide(t, proj, out=np.zeros_like(t), where=proj > 0.0)
            joint *= np.expand_dims(ratio, axis=other)
        residual = max(
            float(np.abs(joint.sum(axis=next(ax for ax in range(3) if ax not in pos))
                         - targets[pos]).max())
            for pos in pairs
        )
        if residual < tol:
            return joint
    raise ConvergenceError(
        f"ipf_fit did not reach tolerance {tol} within {max_sweeps} sweeps",
        residual=residual,
    )


def frozen_kl(p, q):
    mask = p > 0.0
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def frozen_triple_score(pop, triple):
    """Phase-3 score of one triple as computed before batched scoring: the
    dense observed and pairwise marginals, one IPF, then KL."""
    i, j, k = triple
    observed = frozen_dense_marginal(pop, triple)
    targets = {
        (0, 1): frozen_dense_marginal(pop, (i, j)),
        (0, 2): frozen_dense_marginal(pop, (i, k)),
        (1, 2): frozen_dense_marginal(pop, (j, k)),
    }
    return frozen_kl(observed, frozen_ipf_fit(targets))


_FROZEN_ROW_LINE = re.compile(r"\s*[^\s#]")


def _frozen_line_number(text, kept):
    numbers = (n for n, ln in enumerate(text.splitlines(), 1) if _FROZEN_ROW_LINE.match(ln))
    return next(itertools.islice(numbers, kept, None))


def frozen_read_population_text(text, schema=None):
    """Population text as read before distinct lines were parsed once: every
    row line through ``csv``, rows counted as parsed tuples, and an error's
    line found by a second pass over the text."""
    lines = list(filter(_FROZEN_ROW_LINE.match, text.splitlines()))
    if not lines:
        raise ValidationError("population file has no header row")
    delim = "\t" if "\t" in lines[0] else ","
    rows = list(map(tuple, csv.reader(io.StringIO("\n".join(lines)), delimiter=delim)))
    header = [h.strip() for h in rows[0]]
    counted = bool(header) and header[-1] == "__count"
    names = header[:-1] if counted else header
    if not names:
        raise ValidationError("population file header has no attribute columns")
    if schema is not None:
        if list(schema.names) != names:
            raise ValidationError(
                f"file attributes {names!r} do not match schema {list(schema.names)!r}"
            )
        lookup = [{label: i for i, label in enumerate(schema.domain(a))} for a in range(schema.k)]
    else:
        lookup = [{} for _ in names]
    body = rows[1:]
    ragged = next((n for n, row in enumerate(body) if len(row) != len(header)), None)
    if ragged is not None:
        body = body[:ragged]
    assignments, mults = [], []
    for row, times in Counter(body).items():
        where = f"row {_frozen_line_number(text, body.index(row) + 1)}"
        if counted:
            raw = row[-1].strip()
            try:
                mult = int(raw)
            except ValueError:
                raise ValidationError(f"{where}: bad __count value {raw!r}") from None
            if mult < 1:
                raise ValidationError(f"{where}: __count must be >= 1, got {mult}")
            values = row[:-1]
        else:
            mult, values = 1, row
        assignment = []
        for col, label in enumerate(values):
            label = label.strip()
            if label in lookup[col]:
                assignment.append(lookup[col][label])
            elif schema is None:
                lookup[col][label] = len(lookup[col])
                assignment.append(lookup[col][label])
            else:
                raise ValidationError(
                    f"{where}: unseen category {label!r} for attribute {names[col]!r}"
                )
        assignments.append(assignment)
        mults.append(mult * times)
    if ragged is not None:
        raise ValidationError(
            f"row {_frozen_line_number(text, ragged + 1)} has {len(rows[ragged + 1])} fields, "
            f"expected {len(header)}"
        )
    if schema is None:
        schema = AttributeSchema.from_domains(
            (name, sorted(seen, key=seen.get)) for name, seen in zip(names, lookup)
        )
    shape = tuple(len(schema.domain(a)) for a in range(schema.k))
    codes = np.ravel_multi_index(np.array(assignments, dtype=np.intp).reshape(-1, schema.k).T,
                                 shape)
    cells, inverse = np.unique(codes, return_inverse=True)
    counts = np.zeros(len(cells), dtype=np.int64)
    np.add.at(counts, inverse, np.array(mults, dtype=np.int64))
    return Population(schema, cells.astype(np.int64), counts)


def frozen_population_text(pop, counted=True, header_comments=()):
    """Population text as written before rows went out in one ``writerows``:
    one ``writerow`` per occupied cell, or per individual when uncounted."""
    out = io.StringIO()
    for line in header_comments:
        out.write(f"# {line}\n")
    names = list(pop.schema.names)
    writer = csv.writer(out, delimiter=",", lineterminator="\n")
    writer.writerow(names + ["__count"] if counted else names)
    coords = np.unravel_index(pop.cells, pop.schema.shape)
    for i in range(len(pop.cells)):
        labels = [pop.schema.domain(a)[coords[a][i]] for a in range(pop.schema.k)]
        if counted:
            writer.writerow(labels + [int(pop.counts[i])])
        else:
            for _ in range(int(pop.counts[i])):
                writer.writerow(labels)
    return out.getvalue()


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
