"""Output checks computed apart from popmaxent.

Every function here works on plain numpy arrays and Python tuples: the
generated source rows, cell codes with their counts, multiplier vectors,
and constraints given as ``(fixed, target)`` pairs where ``fixed`` is a
tuple of ``(attribute, category)`` index pairs.  None of them calls into
popmaxent, so a fault in the program cannot hide in its own check.  Cells
are numbered row-major over the attribute domains, attribute 0 most
significant (the program's documented cell code).

A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations

import numpy as np

TARGET_TOL = 1e-12
FIT_TOL = 1e-6
MRE_TOL = 1e-12
RAKE_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
# two-sided normal quantile for the binomial bound; with a few thousand
# constraints per sample a false alarm has probability below 1e-5
BINOMIAL_Z = 6.0
# max |MCMC - exact| <= MCMC_C * sqrt(k / post-burn-in sweeps): single-site
# updates refresh one of k attributes per sweep, so a chain yields at best
# one independent draw every k sweeps; on the mixture sources it mixes more
# slowly still (pooled over chains, errors of 1.7 to 4.7 times the square
# root were measured on dense10 and wide16)
MCMC_C = 8.0


class CheckError(AssertionError):
    """An output disagreed with its independent computation."""


def _fail(what: str, detail: str) -> None:
    raise CheckError(f"{what}: {detail}")


# -- frequencies ---------------------------------------------------------------


def _by_scope(constraints):
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, (fixed, _) in enumerate(constraints):
        groups.setdefault(tuple(a for a, _ in fixed), []).append(j)
    return groups


def _combo(fixed, sizes) -> int:
    flat = 0
    for a, v in fixed:
        flat = flat * sizes[a] + v
    return flat


def row_frequencies(rows: np.ndarray, sizes, constraints) -> np.ndarray:
    """Share of the rows (n x k category indices) matching each pattern."""
    out = np.empty(len(constraints))
    for scope, idx in _by_scope(constraints).items():
        key = np.zeros(len(rows), dtype=np.int64)
        for a in scope:
            key = key * sizes[a] + rows[:, a]
        size = math.prod(sizes[a] for a in scope)
        counts = np.bincount(key, minlength=size)
        for j in idx:
            out[j] = counts[_combo(constraints[j][0], sizes)] / len(rows)
    return out


def cell_frequencies(cells, counts, sizes, constraints) -> np.ndarray:
    """Share of a population (distinct cell codes and counts) matching each pattern."""
    coords = np.unravel_index(np.asarray(cells, dtype=np.int64), tuple(sizes))
    counts = np.asarray(counts, dtype=np.float64)
    out = np.empty(len(constraints))
    for scope, idx in _by_scope(constraints).items():
        key = np.zeros(len(counts), dtype=np.int64)
        for a in scope:
            key = key * sizes[a] + coords[a]
        size = math.prod(sizes[a] for a in scope)
        sums = np.bincount(key, weights=counts, minlength=size)
        for j in idx:
            out[j] = sums[_combo(constraints[j][0], sizes)]
    return out / counts.sum()


def check_targets(rows: np.ndarray, sizes, constraints) -> None:
    """Extracted targets equal the frequencies counted from the source rows,
    and every retained scope lists exactly the combinations observed."""
    counted = row_frequencies(rows, sizes, constraints)
    targets = np.array([t for _, t in constraints])
    dev = np.abs(counted - targets)
    if not dev.max() <= TARGET_TOL:
        j = int(dev.argmax())
        _fail("extraction", f"constraint {j} target {targets[j]!r} but counted {counted[j]!r}")
    for scope, idx in _by_scope(constraints).items():
        key = np.zeros(len(rows), dtype=np.int64)
        for a in scope:
            key = key * sizes[a] + rows[:, a]
        observed = set(np.unique(key).tolist())
        listed = {_combo(constraints[j][0], sizes) for j in idx}
        if observed != listed:
            _fail("extraction", f"scope {scope} lists {len(listed)} combinations, "
                                f"{len(observed)} observed")


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def pair_nmi(rows: np.ndarray, sizes, i: int, j: int) -> float:
    """Mutual information over the mean of the two entropies (natural logs)."""
    joint = np.bincount(rows[:, i] * sizes[j] + rows[:, j],
                        minlength=sizes[i] * sizes[j]).reshape(sizes[i], sizes[j])
    hi, hj = _entropy(joint.sum(axis=1)), _entropy(joint.sum(axis=0))
    if hi <= 0.0 or hj <= 0.0:
        return 0.0
    return max(hi + hj - _entropy(joint.ravel()), 0.0) / (0.5 * (hi + hj))


def check_top_pairs(rows: np.ndarray, sizes, retained, budget: int) -> None:
    """The retained attribute pairs are the ``budget`` pairs of highest NMI."""
    scores = {p: pair_nmi(rows, sizes, *p) for p in combinations(range(len(sizes)), 2)}
    retained = set(map(tuple, retained))
    if len(retained) != budget:
        _fail("pair ranking", f"{len(retained)} pairs retained, budget {budget}")
    lowest_kept = min(scores[p] for p in retained)
    highest_dropped = max((s for p, s in scores.items() if p not in retained), default=-1.0)
    if lowest_kept < highest_dropped - 1e-12:
        _fail("pair ranking", f"kept a pair of NMI {lowest_kept!r} over one of "
                              f"{highest_dropped!r}")


# -- the max-ent model ------------------------------------------------------------


def cell_coords(sizes) -> np.ndarray:
    """(k, n_cells) category indices of every cell in code order."""
    return np.indices(tuple(sizes)).reshape(len(sizes), -1)


def _mask(coords: np.ndarray, fixed) -> np.ndarray:
    m = np.ones(coords.shape[1], dtype=bool)
    for a, v in fixed:
        m &= coords[a] == v
    return m


def model_probabilities(sizes, constraints, lam) -> np.ndarray:
    """Cell probabilities proportional to exp(sum_j lam_j [cell matches j]),
    one constraint at a time."""
    coords = cell_coords(sizes)
    energy = np.zeros(coords.shape[1])
    for (fixed, _), value in zip(constraints, lam):
        energy[_mask(coords, fixed)] += value
    p = np.exp(energy - energy.max())
    return p / p.sum()


def moments(p: np.ndarray, sizes, constraints) -> np.ndarray:
    coords = cell_coords(sizes)
    return np.array([p[_mask(coords, fixed)].sum() for fixed, _ in constraints])


def check_fit(sizes, constraints, lam) -> np.ndarray:
    """Residual max_j |E[f_j] - target_j| <= 1e-6; returns the model's moments."""
    mom = moments(model_probabilities(sizes, constraints, lam), sizes, constraints)
    residual = float(np.abs(mom - np.array([t for _, t in constraints])).max())
    if not residual <= FIT_TOL:
        _fail("fit", f"residual {residual:.3e} over {FIT_TOL:g}")
    return mom


def check_binomial(freqs: np.ndarray, probs: np.ndarray, n: int) -> None:
    """Sampled frequencies sit within a binomial bound of the model moments."""
    bound = BINOMIAL_Z * np.sqrt(probs * (1.0 - probs) / n) + 1.0 / n
    over = np.abs(freqs - probs) - bound
    if not over.max() <= 0.0:
        j = int(over.argmax())
        _fail("sample", f"constraint {j} frequency {freqs[j]:.6g} vs moment "
                        f"{probs[j]:.6g} (n={n})")


def check_mcmc(est: np.ndarray, exact: np.ndarray, k: int, kept_sweeps: int) -> None:
    bound = MCMC_C * math.sqrt(k / kept_sweeps)
    dev = float(np.abs(est - exact).max())
    if not dev <= bound:
        _fail("metropolis", f"max moment error {dev:.4g} over {bound:.4g}")


# -- scores ----------------------------------------------------------------------


def mre_of(freqs: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(np.abs(freqs - targets) / targets))


def check_mre(reported: float, recomputed: float) -> None:
    if not abs(reported - recomputed) <= MRE_TOL:
        _fail("mre", f"reported {reported!r}, recomputed {recomputed!r}")


# -- raking ------------------------------------------------------------------------


def check_raked(weights: np.ndarray, pool_cells) -> None:
    """Raked weights sum to 1, are nonnegative, and vanish off the pool."""
    weights = np.asarray(weights)
    off = np.ones(weights.size, dtype=bool)
    off[np.asarray(pool_cells, dtype=np.int64)] = False
    if np.any(weights[off] != 0.0):
        _fail("raking", f"{int(np.count_nonzero(weights[off]))} weights off the pool")
    if np.any(weights < 0.0) or not abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL:
        _fail("raking", f"weights sum to {weights.sum()!r}")


def reference_rake(pool_cells, pool_counts, sizes, constraints, passes: int) -> np.ndarray:
    """Raking one constraint at a time over the pool's records.

    Each step scales the records matching the pattern by target/mass and
    the rest by (1 - target)/(1 - mass); every pass ends by renormalizing.
    Returns the weight of each pool cell.
    """
    coords = np.array(np.unravel_index(np.asarray(pool_cells, dtype=np.int64), tuple(sizes)))
    w = np.asarray(pool_counts, dtype=np.float64)
    w = w / w.sum()
    masks = [_mask(coords, fixed) for fixed, _ in constraints]
    for _ in range(passes):
        for m, (_, t) in zip(masks, constraints):
            mass = w[m].sum()
            w[m] *= t / mass
            w[~m] *= (1.0 - t) / (1.0 - mass)
        w /= w.sum()
    return w


def check_short_rake(program: np.ndarray, reference: np.ndarray) -> None:
    dev = float(np.abs(program - reference).max())
    if not dev <= RAKE_TOL:
        _fail("raking", f"batched rake differs from one-at-a-time reweighting by {dev:.3e}")


def check_last_at_target(weights: np.ndarray, sizes, constraint) -> None:
    """After a full run the last constraint raked sits at its target."""
    fixed, target = constraint
    mass = weights[_mask(cell_coords(sizes), fixed)].sum()
    if not abs(mass - target) <= RAKE_TOL:
        _fail("raking", f"last constraint mass {mass!r}, target {target!r}")


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def check_tv(p: np.ndarray, q: np.ndarray, bound: float) -> None:
    tv = total_variation(p, q)
    if not tv <= bound:
        _fail("raking", f"total variation {tv:.3e} from the fitted model, bound {bound:g}")


# -- files written by the command line ---------------------------------------------


def read_problem(path):
    """(names, domains, constraints) of a constraint-problem JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = [a["name"] for a in doc["schema"]["attributes"]]
    domains = [a["domain"] for a in doc["schema"]["attributes"]]
    constraints = []
    for c in doc["constraints"]:
        attrs = [names.index(n) for n in c["attrs"]]
        fixed = tuple((a, domains[a].index(v)) for a, v in zip(attrs, c["values"]))
        constraints.append((fixed, float(c["target"])))
    return names, domains, constraints


def read_lambda(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(v) for v in json.load(fh)["lambda"]])


def read_mre(path) -> float:
    with open(path, encoding="utf-8") as fh:
        return float(json.load(fh)["mre"])


def read_weights(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(v) for v in json.load(fh)["weights"]])


def read_counted_csv(path, names, domains):
    """Distinct cell codes and counts of a population file with a __count column."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if rows[0] != list(names) + ["__count"]:
        _fail("population file", f"header {rows[0]!r}")
    sizes = [len(d) for d in domains]
    lookup = [{label: i for i, label in enumerate(d)} for d in domains]
    acc: dict[int, int] = {}
    for row in rows[1:]:
        code = _combo(tuple((a, lookup[a][v]) for a, v in enumerate(row[:-1])), sizes)
        acc[code] = acc.get(code, 0) + int(row[-1])
    cells = np.array(sorted(acc), dtype=np.int64)
    return cells, np.array([acc[c] for c in cells.tolist()], dtype=np.int64)
