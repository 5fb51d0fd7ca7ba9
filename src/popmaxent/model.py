"""Exponential-family model over the attribute space and its fitting.

The model assigns each cell x probability proportional to
exp(sum_j lambda_j f_j(x)) where f_j is the indicator of constraint j's
pattern.  In the exact-enumeration regime (cell count within the cap) the
partition function, moments, and the convex dual objective are computed by
direct summation; beyond the cap, Metropolis single-site MCMC estimates
the moments instead.

Hard fitting minimizes the dual  log Z(lambda) - lambda . alpha  whose
gradient is (model moments - targets), by L-BFGS and then, where L-BFGS
stops on a dual flat to rounding before the tolerance, by Newton steps
on the gradient alone.  Soft fitting adds the quadratic multiplier
penalty  sum_j lambda_j^2 / (2 beta w_j), the dual form of the
entropy-versus-fidelity trade-off with per-constraint weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import logsumexp

from ._dense import DEFAULT_ENUM_CAP, check_cap
from .core import AttributeSchema, Pattern, Population
from .errors import ValidationError
from .extraction import ConstraintSet
from .sampling import draw_cells

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000
POLISH_STEPS = 5  # Newton steps after L-BFGS stops on a flat dual short of tol
POLISH_CG_ITERATIONS = 20  # conjugate-gradient iterations per Newton step


def feature_value(schema: AttributeSchema, pattern: Pattern, cell: int) -> int:
    """Indicator f_j(x): 1 iff the cell matches all fixed attribute values."""
    return 1 if pattern.matches(schema, cell) else 0


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of one fit: dual value, moment residual, convergence.

    Wall time is a process-local diagnostic and does not take part in
    equality or serialization byte-determinism.
    """

    iterations: int
    dual_value: float
    residual: float
    converged: bool
    seconds: float = field(compare=False)
    message: str = ""


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
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.shape != (self.constraints.m,):
            raise ValidationError(
                f"lambda length {lam.shape} does not match {self.constraints.m} constraints"
            )
        for c in self.constraints.constraints:
            if c.target >= 1.0:
                raise ValidationError(
                    "target frequency 1 is a boundary case not attained at finite "
                    f"multipliers (pattern {c.pattern.fixed})"
                )
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    @property
    def schema(self) -> AttributeSchema:
        return self.constraints.schema

    def log_partition(self) -> float:
        check_cap(self.schema, self.enum_cap)
        return float(logsumexp(self.constraints.layout.energies(self.lam)))

    def probabilities(self) -> np.ndarray:
        """Dense cell probabilities in canonical order (exact mode only)."""
        check_cap(self.schema, self.enum_cap)
        return _probabilities(self.lam, self.constraints.layout)

    def moments(self) -> np.ndarray:
        return self.constraints.layout.masses(self.probabilities())

    def dual_objective(self) -> tuple[float, np.ndarray]:
        """Dual value log Z - lambda.alpha and its gradient (moments - targets)."""
        targets = self.constraints.targets()
        value = self.log_partition() - float(self.lam @ targets)
        return value, self.moments() - targets


def _probabilities(lam: np.ndarray, layout) -> np.ndarray:
    e = layout.energies(lam)
    e -= e.max()
    p = np.exp(e)
    p /= p.sum()
    return p


def uniform_model(constraints: ConstraintSet, enum_cap: int = DEFAULT_ENUM_CAP) -> MaxEntModel:
    return MaxEntModel(constraints, np.zeros(constraints.m), enum_cap)


def log_partition(model: MaxEntModel) -> float:
    return model.log_partition()


def model_moments(model: MaxEntModel) -> np.ndarray:
    return model.moments()


def dual_objective(model: MaxEntModel) -> tuple[float, np.ndarray]:
    return model.dual_objective()


def _dual_value_grad(lam, layout, targets):
    e = layout.energies(lam)
    mx = e.max()
    w = np.exp(e - mx)
    z = w.sum()
    value = mx + math.log(z) - float(lam @ targets)
    grad = layout.masses(w / z) - targets
    return value, grad


def _polish(lam, layout, targets, tol, steps):
    """Newton steps on the moment residual; returns (lam, residual, steps taken).

    L-BFGS compares dual values.  Once the residual is below about
    sqrt(eps |dual|), near 1e-8, a step that still shrinks it changes the
    dual by less than one unit in the last place, so L-BFGS can stop on a
    flat dual short of a tighter ``tol``; whether it gets there depends on
    the rounding of each evaluation.  Newton steps need the gradient
    alone: the dual's Hessian is the covariance of the features under the
    model, so H v = masses(p * energies(v)) - mu (mu . v), and conjugate
    gradients solve for the step.  A step is kept only if it shrinks the
    residual.
    """
    p = _probabilities(lam, layout)
    mu = layout.masses(p)
    residual = float(np.abs(mu - targets).max())
    taken = 0
    while taken < steps and residual > tol:
        hess = LinearOperator(
            (lam.size, lam.size), dtype=np.float64,
            matvec=lambda v: layout.masses(p * layout.energies(v)) - mu * float(mu @ v),
        )
        step, _ = cg(hess, targets - mu, maxiter=POLISH_CG_ITERATIONS)
        p_next = _probabilities(lam + step, layout)
        mu_next = layout.masses(p_next)
        next_residual = float(np.abs(mu_next - targets).max())
        if not next_residual < residual:
            break
        lam, p, mu, residual = lam + step, p_next, mu_next, next_residual
        taken += 1
    return lam, residual, taken


def _minimize(fun, m, tol, max_iter):
    t0 = time.perf_counter()
    res = minimize(
        fun,
        np.zeros(m),
        jac=True,
        method="L-BFGS-B",
        options=dict(maxiter=max_iter, maxfun=20 * max_iter, maxcor=10,
                     gtol=tol, ftol=1e-18),
    )
    return res, time.perf_counter() - t0


def fit_hard(
    constraints: ConstraintSet,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[MaxEntModel, FitReport]:
    """Fit multipliers so model moments match the targets.

    Quasi-Newton minimization of the convex dual from a zero start;
    converged means the residual max_j |E[f_j] - alpha_j| is within
    ``tol``.  Non-convergence is reported in the FitReport, not raised.
    """
    check_cap(constraints.schema, enum_cap)
    if constraints.m == 0:
        model = MaxEntModel(constraints, np.zeros(0), enum_cap)
        return model, FitReport(0, math.log(constraints.schema.n_cells), 0.0, True, 0.0)

    uniform_model(constraints, enum_cap)  # validates boundary targets
    layout = constraints.layout
    targets = constraints.targets()

    res, seconds = _minimize(lambda lam: _dual_value_grad(lam, layout, targets),
                             constraints.m, tol, max_iter)
    # status 1: the iteration budget ran out, which the polish must not extend
    lam, residual, polished = _polish(res.x, layout, targets, tol,
                                      POLISH_STEPS if res.status != 1 else 0)
    message = str(res.message)
    if polished:
        message += f"; {polished} Newton steps on the residual"
    return MaxEntModel(constraints, lam, enum_cap), FitReport(
        iterations=int(res.nit),
        dual_value=float(res.fun),
        residual=residual,
        converged=residual <= tol,
        seconds=seconds,
        message=message,
    )


def fit_soft(
    constraints: ConstraintSet,
    cfg: SoftFitConfig,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[MaxEntModel, FitReport]:
    """Fit with the quadratic multiplier penalty instead of hard moments.

    Minimizes  dual(lambda) + sum_j lambda_j^2 / (2 beta w_j)  over the
    constraints with positive weight; zero-weight constraints keep a zero
    multiplier.  Residuals shrink as beta grows and inconsistent targets
    converge without error.  ``converged`` refers to the penalized
    gradient; ``residual`` still reports the plain moment residual.
    """
    check_cap(constraints.schema, enum_cap)
    m = constraints.m
    weights = cfg.weight_vector(m)
    active = np.flatnonzero(weights > 0.0)
    if m == 0 or active.size == 0:
        model = MaxEntModel(constraints, np.zeros(m), enum_cap)
        residual = (
            float(np.abs(model.moments() - constraints.targets()).max()) if m else 0.0
        )
        return model, FitReport(0, math.log(constraints.schema.n_cells), residual, True, 0.0)

    uniform_model(constraints, enum_cap)  # validates boundary targets
    layout = constraints.layout
    targets = constraints.targets()
    inv_bw = 1.0 / (cfg.beta * weights[active])

    def fun(lam_active):
        lam = np.zeros(m)
        lam[active] = lam_active
        value, grad = _dual_value_grad(lam, layout, targets)
        value += 0.5 * float(lam_active @ (inv_bw * lam_active))
        return value, grad[active] + inv_bw * lam_active

    res, seconds = _minimize(fun, active.size, tol, max_iter)
    lam = np.zeros(m)
    lam[active] = res.x
    model = MaxEntModel(constraints, lam, enum_cap)
    residual = float(np.abs(model.moments() - targets).max())
    grad_inf = float(np.abs(res.jac).max())
    return model, FitReport(
        iterations=int(res.nit),
        dual_value=float(res.fun),
        residual=residual,
        converged=grad_inf <= tol,
        seconds=seconds,
        message=str(res.message),
    )


def sample_population(model: MaxEntModel, n: int, seed: int) -> Population:
    """n i.i.d. draws from the model as an integer population."""
    p = model.probabilities()
    draws = draw_cells(p, n, seed)
    counts = np.bincount(draws, minlength=p.size)
    cells = np.flatnonzero(counts)
    return Population(model.schema, cells.astype(np.int64), counts[cells].astype(np.int64))


# ---------------------------------------------------------------------------
# Metropolis estimation (works beyond the enumeration cap)
# ---------------------------------------------------------------------------


class _ChainTables:
    """Per-scope multiplier tables plus the scopes touched by each attribute."""

    def __init__(self, model: MaxEntModel):
        schema = model.schema
        self.schema = schema
        self.tables: list[list[float]] = []
        self.strides: list[tuple[int, ...]] = []
        scopes: list[tuple[int, ...]] = []
        layout = model.constraints.layout
        for g, table in zip(layout.groups, layout.scope_tables(model.lam)):
            self.tables.append(table.tolist())
            stride = [0] * len(g.scope)
            s = 1
            for pos in range(len(g.scope) - 1, -1, -1):
                stride[pos] = s
                s *= g.shape[pos]
            self.strides.append(tuple(stride))
            scopes.append(g.scope)
        self.touching: list[list[tuple[int, int]]] = [[] for _ in range(schema.k)]
        for s_idx, scope in enumerate(scopes):
            for pos, attr in enumerate(scope):
                self.touching[attr].append((s_idx, self.strides[s_idx][pos]))
        self.scopes = scopes


def _run_chain(tables: _ChainTables, sweeps: int, burn_in: int, seed: int):
    """Single-site Metropolis chain; returns visit counts per cell."""
    schema = tables.schema
    shape = schema.shape
    k = schema.k
    rng = np.random.default_rng(seed)

    state = [int(rng.integers(0, d)) for d in shape]
    cell_strides = [0] * k
    s = 1
    for a in range(k - 1, -1, -1):
        cell_strides[a] = s
        s *= shape[a]
    cell = sum(c * st for c, st in zip(state, cell_strides))

    flat = []  # current flat combo per scope
    for scope, strides in zip(tables.scopes, tables.strides):
        flat.append(sum(state[a] * st for a, st in zip(scope, strides)))

    attrs = rng.integers(0, k, size=sweeps)
    cat_u = rng.random(sweeps)
    acc_u = rng.random(sweeps)

    dense = schema.n_cells <= 2 ** 22
    visits_arr = [0] * schema.n_cells if dense else None
    visits_map: dict[int, int] = {}
    tabs = tables.tables
    touching = tables.touching

    for t in range(sweeps):
        a = int(attrs[t])
        old = state[a]
        new = int(cat_u[t] * shape[a])
        if new != old:
            d_e = 0.0
            deltas = []
            for s_idx, stride in touching[a]:
                f_old = flat[s_idx]
                f_new = f_old + (new - old) * stride
                d_e += tabs[s_idx][f_new] - tabs[s_idx][f_old]
                deltas.append((s_idx, f_new))
            if d_e >= 0.0 or acc_u[t] < math.exp(d_e):
                state[a] = new
                cell += (new - old) * cell_strides[a]
                for s_idx, f_new in deltas:
                    flat[s_idx] = f_new
        if t >= burn_in:
            if dense:
                visits_arr[cell] += 1
            else:
                visits_map[cell] = visits_map.get(cell, 0) + 1

    if dense:
        counts = np.asarray(visits_arr, dtype=np.int64)
        cells = np.flatnonzero(counts)
        return cells.astype(np.int64), counts[cells]
    items = sorted(visits_map.items())
    return (np.array([c for c, _ in items], dtype=np.int64),
            np.array([n for _, n in items], dtype=np.int64))


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
    tables = _ChainTables(model)
    cells, counts = _run_chain(tables, sweeps, burn_in, seed)
    return model.constraints.layout.sparse_masses(cells, counts, sweeps - burn_in)


def fit_metropolis(
    constraints: ConstraintSet,
    *,
    seed: int,
    iterations: int = 200,
    sweeps: int = 20_000,
    burn_in: int = 1_000,
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
    if constraints.m == 0:
        model = MaxEntModel(constraints, np.zeros(0), enum_cap)
        return model, FitReport(0, 0.0, 0.0, True, 0.0)
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
    )
