"""Exponential-family model over the attribute space and its fitting.

The model assigns each cell x probability proportional to
exp(sum_j lambda_j f_j(x)) where f_j is the indicator of constraint j's
pattern.  The partition function, the moments and the convex dual
objective are computed exactly on the constraint set's clique tree
(``ScopeLayout.calibrate``) while its largest clique is within the
enumeration cap; beyond that, Metropolis single-site MCMC estimates the
moments instead.  The chain reads its energy changes off the same clique
tree: one table per clique within the cap (the clique's log-potential),
and the scope tables of a clique over it.  Cell probabilities, and with
them sampling, enumerate the whole space and need the space itself
within the cap.

Hard and soft fits run one L-BFGS driver on the convex dual
log Z(lambda) - lambda . alpha, whose gradient is (model moments -
targets).  A hard fit is the driver with no penalty; where L-BFGS stops
on a dual flat to rounding before the tolerance, Newton steps on the
gradient alone finish it on the same tree, their Hessian-vector products
taken by complex step.  A soft fit adds the quadratic multiplier penalty
 sum_j lambda_j^2 / (2 beta w_j), the dual form of the
entropy-versus-fidelity trade-off with per-constraint weights.

L-BFGS runs on rescaled multipliers, lambda_j = mu_j / sqrt(h_j) with
h_j = alpha_j (1 - alpha_j): the dual's Hessian is the feature covariance,
whose diagonal at the solution is Var f_j = alpha_j (1 - alpha_j), so this
is Jacobi (diagonal) preconditioning fixed from the targets (Nocedal &
Wright 2006, sec. 7.2, on scaling L-BFGS; Malouf 2002 on L-BFGS for
max-ent duals).  Rare and common patterns then have curvatures near 1
alike, and L-BFGS's ten-pair Hessian model no longer has to learn their
spread.  A soft fit's penalty adds 1 / (beta w_j) to that diagonal.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.linalg import LinearOperator, cg

from ._dense import DEFAULT_ENUM_CAP, check_cap, check_clique_cap
from .core import AttributeSchema, Pattern, Population, _ScopeGroup
from .core import check_count, check_seed, check_tolerance
from .errors import ValidationError
from .extraction import ConstraintSet
from .sampling import AliasTable, draw_population

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000
METROPOLIS_ITERATIONS = 200  # fit_metropolis: gradient steps,
METROPOLIS_SWEEPS = 20_000  # chain sweeps per step,
METROPOLIS_BURN_IN = 1_000  # of which burn-in
POLISH_STEPS = 5  # Newton steps after L-BFGS stops on a flat dual short of tol
POLISH_CG_ITERATIONS = 100  # conjugate-gradient iterations per Newton step
COMPLEX_STEP = 1e-30  # imaginary step of the polish's Hessian-vector product


def feature_value(schema: AttributeSchema, pattern: Pattern, cell: int) -> int:
    """Indicator f_j(x): 1 iff the cell matches all fixed attribute values."""
    return 1 if pattern.matches(schema, cell) else 0


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of one fit: dual value, moment residual, convergence.

    ``evaluations`` counts dual (or moment) evaluations; ``cliques`` and
    ``largest_clique`` (in cells) describe the clique tree the fit ran
    on, and are 0 for a fit that ran on none.  Wall time is a
    process-local diagnostic and does not take part in equality or
    serialization byte-determinism.
    """

    iterations: int
    dual_value: float
    residual: float
    converged: bool
    seconds: float = field(compare=False)
    message: str = ""
    evaluations: int = 0
    cliques: int = 0
    largest_clique: int = 0


@dataclass(frozen=True)
class SoftFitConfig:
    """Trade-off strength ``beta`` and optional per-constraint weights.

    Weights default to 1; a zero weight drops its constraint from the fit.
    """

    beta: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if self.weights is not None and any(w < 0.0 for w in self.weights):
            raise ValidationError("soft-fit weights must be nonnegative")

    def weight_vector(self, m: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(m)
        if len(self.weights) != m:
            raise ValidationError(
                f"got {len(self.weights)} weights for {m} constraints"
            )
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class MaxEntModel:
    """Fitted (or explicitly parameterized) exponential-family model.

    Immutable; ``lam`` holds one multiplier per atomic constraint.  Targets
    exactly 1 are rejected here because their optimum is not attained at
    finite multipliers.
    """

    constraints: ConstraintSet
    lam: np.ndarray
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        check_count("enum_cap", self.enum_cap)
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.shape != (self.constraints.m,):
            raise ValidationError(
                f"lambda length {lam.shape} does not match {self.constraints.m} constraints"
            )
        over = np.flatnonzero(self.constraints.targets() >= 1.0)
        if over.size:
            raise ValidationError(
                "target frequency 1 is a boundary case not attained at finite "
                f"multipliers (pattern {self.constraints.constraints[over[0]].pattern.fixed})"
            )
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    @property
    def schema(self) -> AttributeSchema:
        return self.constraints.schema

    def _calibrated(self) -> tuple[float, np.ndarray]:
        check_clique_cap(self.constraints.layout, self.enum_cap)
        return self.constraints.layout.calibrate(self.lam)

    def log_partition(self) -> float:
        return float(self._calibrated()[0])

    def probabilities(self) -> np.ndarray:
        """Dense cell probabilities in canonical order (exact mode only)."""
        check_cap(self.schema, self.enum_cap)
        e = self.constraints.layout.energies(self.lam)
        e -= e.max()
        p = np.exp(e)
        p /= p.sum()
        return p

    @cached_property
    def alias_table(self) -> AliasTable:
        """Alias table over :meth:`probabilities`, built on first use and kept."""
        return AliasTable(self.probabilities())

    def moments(self) -> np.ndarray:
        return self._calibrated()[1]

    def dual_objective(self) -> tuple[float, np.ndarray]:
        """Dual value log Z - lambda.alpha and its gradient (moments - targets)."""
        check_clique_cap(self.constraints.layout, self.enum_cap)
        return _dual_value_grad(self.lam, self.constraints.layout, self.constraints.targets())


def uniform_model(constraints: ConstraintSet, enum_cap: int = DEFAULT_ENUM_CAP) -> MaxEntModel:
    return MaxEntModel(constraints, np.zeros(constraints.m), enum_cap)


def log_partition(model: MaxEntModel) -> float:
    return model.log_partition()


def model_moments(model: MaxEntModel) -> np.ndarray:
    return model.moments()


def dual_objective(model: MaxEntModel) -> tuple[float, np.ndarray]:
    return model.dual_objective()


def _clique_fields(layout) -> dict:
    """FitReport's description of the clique tree a fit ran on."""
    return dict(cliques=len(layout.cliques.sizes), largest_clique=layout.cliques.largest)


def _dual_value_grad(lam, layout, targets):
    log_z, masses = layout.calibrate(lam)
    return log_z - float(lam @ targets), masses - targets


def _polish(lam, layout, targets, tol):
    """Newton steps on the moment residual; returns (lam, residual, steps taken).

    L-BFGS compares dual values.  Once the residual is below about
    sqrt(eps |dual|), near 1e-8, a step that still shrinks it changes the
    dual by less than one unit in the last place, so L-BFGS can stop on a
    flat dual short of a tighter ``tol``; whether it gets there depends on
    the rounding of each evaluation.  Newton steps need the gradient
    alone: the dual's Hessian is the derivative of the masses, so its
    product with v is the complex step Im masses(lam + i h v) / h, one
    complex calibration on the clique tree, exact to rounding since no
    difference cancels (Squire & Trapp 1998), and conjugate gradients
    solve for the step.  A step is kept only if it shrinks the residual.
    """
    mu = layout.calibrate(lam)[1]
    residual = float(np.abs(mu - targets).max())
    taken = 0
    while taken < POLISH_STEPS and residual > tol:
        hess = LinearOperator(
            (lam.size, lam.size), dtype=np.float64,
            matvec=lambda v: layout.calibrate(lam + COMPLEX_STEP * 1j * v)[1].imag / COMPLEX_STEP,
        )
        step, _ = cg(hess, targets - mu, maxiter=POLISH_CG_ITERATIONS)
        mu_next = layout.calibrate(lam + step)[1]
        next_residual = float(np.abs(mu_next - targets).max())
        if not next_residual < residual:
            break
        lam, mu, residual = lam + step, mu_next, next_residual
        taken += 1
    return lam, residual, taken


def fit_hard(
    constraints: ConstraintSet,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[MaxEntModel, FitReport]:
    """Fit multipliers so model moments match the targets (see :func:`_fit`).

    Converged means the residual max_j |E[f_j] - alpha_j| is within
    ``tol``; non-convergence is reported in the FitReport, not raised.
    """
    return _fit(constraints, None, tol, max_iter, enum_cap)


def fit_soft(
    constraints: ConstraintSet,
    cfg: SoftFitConfig,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[MaxEntModel, FitReport]:
    """Fit with the quadratic multiplier penalty instead of hard moments.

    Residuals shrink as beta grows and inconsistent targets converge
    without error.  ``converged`` refers to the penalized gradient;
    ``residual`` still reports the plain moment residual.
    """
    return _fit(constraints, cfg, tol, max_iter, enum_cap)


def _fit(constraints, soft, tol, max_iter, enum_cap):
    """L-BFGS on the dual from a zero start; hard when ``soft`` is None.

    A soft fit adds  sum_j lambda_j^2 / (2 beta w_j)  over its positive-weight
    constraints and holds the others at zero.  L-BFGS minimises over
    mu = lambda / scale, scale_j = 1 / sqrt(alpha_j (1 - alpha_j) [+ 1 / (beta
    w_j) in a soft fit]), the Hessian's diagonal at the solution (module
    docstring); targets strictly inside (0, 1) keep it finite.  It sees the
    dual's value and scale times its gradient.  Its gradient tolerance is
    ``tol``, times the smallest scale when that is below 1 (beta w_j < 4/3),
    so a stop on the scaled gradient meets ``tol`` unscaled; the report
    reads the unscaled multipliers and gradient.  The dual and a hard
    fit's Newton polish, whose Hessian-vector products are complex steps
    of the masses, run on the clique tree, so the cap bounds its largest
    clique and never the space.
    """
    check_tolerance("tol", tol)
    check_count("max_iter", max_iter)
    layout = constraints.layout
    check_clique_cap(layout, enum_cap)
    clique_fields = _clique_fields(layout)
    m = constraints.m
    zero = MaxEntModel(constraints, np.zeros(m), enum_cap)  # rejects targets of 1
    targets = constraints.targets()
    curvature = targets * (1.0 - targets)  # Var f_j at the solution
    if soft is None:
        active = np.arange(m)
        fun = partial(_dual_value_grad, layout=layout, targets=targets)
    else:
        weights = soft.weight_vector(m)
        active = np.flatnonzero(weights > 0.0)
        inv_bw = 1.0 / (soft.beta * weights[active])
        curvature = curvature[active] + inv_bw

        def fun(lam_active):
            lam = np.zeros(m)
            lam[active] = lam_active
            value, grad = _dual_value_grad(lam, layout, targets)
            value += 0.5 * float(lam_active @ (inv_bw * lam_active))
            return value, grad[active] + inv_bw * lam_active

    if active.size == 0:
        residual = float(np.abs(zero.moments() - targets).max()) if m else 0.0
        return zero, FitReport(0, math.log(constraints.schema.n_cells), residual, True, 0.0,
                               **clique_fields)

    scale = 1.0 / np.sqrt(curvature)  # lambda = scale * mu
    gtol = tol * min(1.0, float(scale.min()))

    def scaled_fun(mu):
        value, grad = fun(scale * mu)
        return value, scale * grad

    t0 = time.perf_counter()
    res = minimize(scaled_fun, np.zeros(active.size), jac=True, method="L-BFGS-B",
                   options=dict(maxiter=max_iter, maxfun=20 * max_iter, maxcor=10,
                                gtol=gtol, ftol=1e-18))
    seconds = time.perf_counter() - t0
    lam = np.zeros(m)
    lam[active] = scale * res.x
    residual = float(np.abs(_dual_value_grad(lam, layout, targets)[1]).max())
    message = str(res.message)
    # status 1: the iteration budget ran out, which the polish must not extend
    if soft is None and residual > tol and res.status != 1:
        lam, residual, polished = _polish(lam, layout, targets, tol)
        if polished:
            message += f"; {polished} Newton steps on the residual"
    converged = (residual if soft is None else float(np.abs(res.jac / scale).max())) <= tol
    return MaxEntModel(constraints, lam, enum_cap), FitReport(
        iterations=int(res.nit),
        dual_value=float(res.fun),
        residual=residual,
        converged=converged,
        seconds=seconds,
        message=message,
        evaluations=int(res.nfev),
        **clique_fields,
    )


def sample_population(model: MaxEntModel, n: int, seed: int) -> Population:
    """n i.i.d. draws from the model as an integer population.

    Draws come from the model's one alias table (:attr:`MaxEntModel.alias_table`).
    """
    return draw_population(model.schema, model.alias_table, n, seed)


# ---------------------------------------------------------------------------
# Metropolis estimation (works beyond the enumeration cap)
#
# A proposal changes one attribute, so its energy change is read off the
# clique factors holding that attribute (:func:`_chain_factors`), one
# table-pair read each, however many scope groups a clique holds.  The
# chain is recorded by its moves, so a proposal of the current category
# costs one comparison, and visits are counted from the runs between moves.
# ---------------------------------------------------------------------------


def _chain_factors(model: MaxEntModel) -> list[tuple[_ScopeGroup, array]]:
    """The chain's energy factors: (scope, flat table of the energy over it).

    A clique of :attr:`ScopeLayout.cliques` within the model's enumeration
    cap is one factor, its log-potential (its groups' tables summed over
    its axes, as calibration starts from); a clique over the cap
    contributes its groups' tables unchanged.  The tables are held as
    ``array("d")``, 8 bytes an entry, so the cap bounds their memory as it
    bounds calibration's.
    """
    schema = model.schema
    layout = model.constraints.layout
    cliques = layout.cliques
    tables = layout.scope_tables(model.lam)
    factors = []
    for c, (axes, size, members) in enumerate(zip(cliques.axes, cliques.sizes,
                                                  cliques.members)):
        if not members:  # a clique of attributes in no scope carries no energy
            continue
        if size <= model.enum_cap:
            parts = [(_ScopeGroup(schema, axes), layout._log_potential(c, tables))]
        else:
            parts = [(layout.groups[g], tables[g]) for g in members]
        factors += [(g, array("d", table.tobytes())) for g, table in parts]
    return factors


def _run_chain(model: MaxEntModel, sweeps: int, burn_in: int, seed: int) -> Population:
    """Single-site Metropolis chain; returns the post-burn-in visits as a population.

    Recorded by its moves, the (step, cell) of each accepted proposal: the
    cell entered at step t is visited from max(t, burn_in) up to the next move.
    """
    schema = model.schema
    shape = schema.shape
    k = schema.k
    factors = _chain_factors(model)
    # (factor's table, stride of the attribute in it, factor) per attribute
    touching: list[list[tuple[array, int, int]]] = [[] for _ in range(k)]
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

    attrs = rng.integers(0, k, size=sweeps)
    cat_u = rng.random(sweeps)
    acc_u = rng.random(sweeps).tolist()
    # every step's proposed category: int(u_cat * shape[a]), all at once
    proposals = (cat_u * np.array(shape)[attrs]).astype(np.int64).tolist()

    moves = [0, cell]  # (step, cell) pairs, flat; the start cell is entered at step 0
    for t, a, new, u_acc in zip(range(sweeps), attrs.tolist(), proposals, acc_u):
        step = new - state[a]
        if not step:
            continue
        d_e = 0.0
        for table, stride, f_idx in touching[a]:
            f_old = flat[f_idx]
            d_e += table[f_old + step * stride] - table[f_old]
        if d_e >= 0.0 or u_acc < math.exp(d_e):
            state[a] = new
            cell += step * cell_strides[a]
            for _, stride, f_idx in touching[a]:
                flat[f_idx] += step * stride
            moves += t, cell
    steps, entered = np.array(moves, dtype=np.int64).reshape(-1, 2).T
    runs = np.diff(np.maximum(np.append(steps, sweeps), burn_in))
    cells, inverse = np.unique(entered, return_inverse=True)
    counts = np.bincount(inverse, weights=runs).astype(np.int64)
    return Population(schema, cells[counts > 0], counts[counts > 0])


def metropolis_moments(
    model: MaxEntModel, sweeps: int, burn_in: int, seed: int
) -> np.ndarray:
    """Moment estimates from post-burn-in time averages of a Metropolis chain.

    One sweep is one single-site proposal: an attribute chosen uniformly, a
    uniform random replacement category, accepted with min(1, exp(energy
    change)).  Does not require the space to fit the enumeration cap.
    """
    if not sweeps > burn_in >= 0:
        raise ValidationError("need sweeps > burn_in >= 0")
    check_seed("seed", seed)
    visits = _run_chain(model, sweeps, burn_in, seed)
    return model.constraints.layout.sparse_masses(visits.cells, visits.counts, visits.total)


def fit_metropolis(
    constraints: ConstraintSet,
    *,
    seed: int,
    iterations: int = METROPOLIS_ITERATIONS,
    sweeps: int = METROPOLIS_SWEEPS,
    burn_in: int = METROPOLIS_BURN_IN,
    step: float = 0.1,
    tol: float = DEFAULT_TOL,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[MaxEntModel, FitReport]:
    """Stochastic-gradient fitting with Metropolis moment estimates.

    Fallback for spaces beyond the enumeration cap: each iteration
    estimates the moments by MCMC and steps the multipliers against the
    residual with step size ``step / sqrt(t)``.  The reported residual is
    itself an MCMC estimate, so convergence is approximate by nature.
    """
    check_tolerance("tol", tol)
    check_count("iterations", iterations)
    check_seed("seed", seed)
    clique_fields = _clique_fields(constraints.layout)
    if constraints.m == 0:
        model = MaxEntModel(constraints, np.zeros(0), enum_cap)
        return model, FitReport(0, 0.0, 0.0, True, 0.0, **clique_fields)
    t0 = time.perf_counter()
    targets = constraints.targets()
    lam = np.zeros(constraints.m)
    seeds = np.random.SeedSequence(seed).generate_state(iterations)
    residual = math.inf
    for t in range(1, iterations + 1):
        model = MaxEntModel(constraints, lam, enum_cap)
        est = metropolis_moments(model, sweeps, burn_in, int(seeds[t - 1]))
        grad = est - targets
        residual = float(np.abs(grad).max())
        lam = lam - (step / math.sqrt(t)) * grad
    model = MaxEntModel(constraints, lam, enum_cap)
    return model, FitReport(
        iterations=iterations,
        dual_value=math.nan,
        residual=residual,
        converged=residual <= tol,
        seconds=time.perf_counter() - t0,
        message="stochastic fit; residual is an MCMC estimate",
        evaluations=iterations,
        **clique_fields,
    )
