"""Tests for the dense kernels ScopeLayout.energies and ScopeLayout.masses.

Claims:
    - on seeded random schemas (domain sizes 2-4, up to 7 attributes) both
      kernels agree to 1e-12 with per-pattern enumeration of every cell
      through feature_value
    - so do the shapes that steer the sum-out tree: scopes at the first
      and the last attribute, scopes with gaps, a scope over every
      attribute, attributes in no scope, duplicated patterns, unary-only
      sets, a single scope group, and no patterns at all
    - scope_tables accumulates duplicated patterns' multipliers
    - calibrate's log Z and masses on the clique tree agree to 1e-12 with
      the one-clique path (the whole space through energies and masses)
      on the same random schemas and on a chain, a cycle that needs a
      fill-in edge, disconnected components, attributes in no scope,
      duplicated patterns and unary-only sets, and so does calibrate's
      complex step, the Newton polish's Hessian-vector product, against
      the features' covariance (a real lam still gives float64 log Z and
      masses); every clique tree has the running intersection property
      and puts each group in a clique that holds its scope; a separator
      entry whose upward message underflows to zero gives zero mass, not
      NaN
    - the full space is the one clique exactly when the min-fill cliques
      hold at least as many cells
    - the Metropolis chain's energy factors (a clique's log-potential
      within the enumeration cap, its groups' tables over it) give every
      proposal the energy change of the per-scope tables to 1e-12, on a
      chain, a 5-cycle, disconnected components and a one-clique
      full-ternary problem, at the default cap and at a cap of 1
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from popmaxent import AttributeSchema, ConstraintSet, MaxEntModel, Pattern, feature_value
from popmaxent._dense import DEFAULT_ENUM_CAP, ScopeLayout
from popmaxent.extraction import AtomicConstraint
from popmaxent.model import COMPLEX_STEP, _chain_factors

TOL = 1e-12


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def patterns_over(schema, scopes, rng):
    """A random nonempty subset of each scope's category combinations."""
    out = []
    for scope in scopes:
        combos = list(itertools.product(*(range(schema.shape[a]) for a in scope)))
        keep = [c for c in combos if rng.random() < 0.6] or [combos[0]]
        out += [Pattern.of(dict(zip(scope, c))) for c in keep]
    return out


def random_scopes(k, rng):
    count = int(rng.integers(1, 2 * k + 2))
    return sorted({
        tuple(sorted(rng.choice(k, size=int(rng.integers(1, min(k, 3) + 1)),
                                replace=False).tolist()))
        for _ in range(count)
    })


def check_against_enumeration(schema, patterns, seed=0):
    rng = np.random.default_rng(seed)
    f = np.array([[feature_value(schema, p, c) for c in range(schema.n_cells)]
                  for p in patterns], dtype=np.float64)
    f = f.reshape(len(patterns), schema.n_cells)
    lam = rng.normal(size=len(patterns))
    dense = rng.random(schema.n_cells)
    dense /= dense.sum()
    layout = ScopeLayout(schema, patterns)
    energies = layout.energies(lam)
    assert energies.shape == (schema.n_cells,)
    np.testing.assert_allclose(energies, lam @ f, rtol=0, atol=TOL)
    masses = layout.masses(dense)
    assert masses.shape == (len(patterns),)
    np.testing.assert_allclose(masses, f @ dense, rtol=0, atol=TOL)
    check_calibration(layout, lam)


def check_calibration(layout, lam):
    """The clique tree's log Z, masses and their complex step against the one-clique path."""
    check_tree_structure(layout)
    e = layout.energies(lam)
    p = np.exp(e - e.max())
    log_z, masses = layout.calibrate(lam)
    assert isinstance(log_z, float) and masses.dtype == np.float64
    assert log_z == pytest.approx(e.max() + math.log(p.sum()), rel=0, abs=TOL)
    assert masses.shape == lam.shape
    p /= p.sum()
    mu = layout.masses(p)
    np.testing.assert_allclose(masses, mu, rtol=0, atol=TOL)
    # the polish's Hessian-vector product: the covariance of the features
    v = np.random.default_rng(lam.size).normal(size=lam.size)
    with warnings.catch_warnings():  # say, a ComplexWarning for a dropped imaginary part
        warnings.simplefilter("error")
        tangent = layout.calibrate(lam + 1j * COMPLEX_STEP * v)[1].imag / COMPLEX_STEP
    np.testing.assert_allclose(tangent, layout.masses(p * layout.energies(v)) - mu * (mu @ v),
                               rtol=0, atol=TOL)


def check_tree_structure(layout):
    tree = layout.cliques
    n = len(tree.axes)
    assert all(tree.parent[c] < c for c in range(1, n)) and tree.parent[0] == -1
    for a in range(layout.schema.k):
        holding = [c for c in range(n) if a in tree.axes[c]]
        joined = [c for c in holding if c and a in tree.axes[tree.parent[c]]]
        assert holding and len(joined) == len(holding) - 1, f"attribute {a} is split"
    assigned = sorted(g for members in tree.members for g in members)
    assert assigned == list(range(len(layout.groups)))
    for axes, members in zip(tree.axes, tree.members):
        assert all(set(layout.groups[g].scope) <= set(axes) for g in members)


@pytest.mark.parametrize("seed", range(12))
def test_random_schemas(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    schema = schema_of(*rng.integers(2, 5, size=k).tolist())
    patterns = patterns_over(schema, random_scopes(k, rng), rng)
    dupes = rng.choice(len(patterns), size=min(3, len(patterns)), replace=False)
    patterns += [patterns[j] for j in dupes]
    check_against_enumeration(schema, patterns, seed)


@pytest.mark.parametrize("sizes, scopes", [
    # first and last attribute, gaps, a pair spanning the whole range
    ((3, 2, 4, 2, 3, 2, 2), [(0,), (6,), (0, 6), (0, 3, 6), (1, 4), (2, 5, 6), (1, 2, 3)]),
    # a scope over every attribute, with sub-scopes and alone
    ((2, 3, 4), [(0,), (1, 2), (0, 1, 2)]),
    ((4, 3, 2), [(0, 1, 2)]),
    # unary only, with one attribute left out
    ((2, 3, 4, 2, 3), [(0,), (1,), (3,), (4,)]),
    # a single group; attributes 0, 2 and 4 lie in no scope
    ((3, 2, 2, 4, 2), [(1, 3)]),
    # every pair of four attributes
    ((2, 3, 2, 4), list(itertools.combinations(range(4), 2))),
])
def test_shapes_of_the_tree(sizes, scopes):
    schema = schema_of(*sizes)
    check_against_enumeration(schema, patterns_over(schema, scopes, np.random.default_rng(1)))


def test_duplicated_patterns():
    schema = schema_of(3, 2, 4)
    a, b = Pattern.of({0: 2, 2: 1}), Pattern.of({1: 0})
    patterns = [a, b, a, Pattern.of({0: 0, 1: 1, 2: 3}), a, b]
    check_against_enumeration(schema, patterns)
    layout = ScopeLayout(schema, patterns)
    lam = np.arange(1.0, 7.0)
    tables = {g.scope: t for g, t in zip(layout.groups, layout.scope_tables(lam))}
    assert tables[(0, 2)][2 * 4 + 1] == 1.0 + 3.0 + 5.0
    assert tables[(1,)].tolist() == [2.0 + 6.0, 0.0]


def test_no_patterns():
    check_against_enumeration(schema_of(2, 3, 2), [])


@pytest.mark.parametrize("sizes, scopes, cliques", [
    # a chain
    ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4)], 4),
    # a 5-cycle: min-fill adds two chords
    ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 3),
    # two components and a lone unary scope
    ((3, 2, 4, 3, 3), [(0, 1), (2, 3), (0,), (4,)], 3),
    # attributes 2 and 4 lie in no scope
    ((3, 2, 4, 2, 3), [(1, 3), (0, 1)], 4),
    # unary only
    ((2, 3, 4, 2, 3), [(0,), (1,), (3,), (4,)], 5),
    # triples sharing pairs, with a pair inside one of them
    ((3, 3, 2, 2, 3, 2), [(0, 1, 2), (1, 2, 3), (3, 4, 5), (1, 2)], 3),
])
def test_clique_trees(sizes, scopes, cliques):
    schema = schema_of(*sizes)
    rng = np.random.default_rng(2)
    patterns = patterns_over(schema, scopes, rng)
    patterns += patterns[:2]  # duplicated patterns
    layout = ScopeLayout(schema, patterns)
    assert len(layout.cliques.axes) == cliques
    assert sum(layout.cliques.sizes) < schema.n_cells
    check_against_enumeration(schema, patterns)
    check_calibration(layout, 3.0 * rng.normal(size=len(patterns)))


def test_the_full_space_is_one_clique_when_cliques_are_no_smaller():
    schema = schema_of(2, 2, 2, 2)
    # a 4-cycle: cliques {0, 1, 2} and {0, 2, 3} hold 16 cells, as many as the space
    layout = ScopeLayout(schema, patterns_over(
        schema, [(0, 1), (1, 2), (2, 3), (0, 3)], np.random.default_rng(3)))
    assert layout.cliques.axes == [(0, 1, 2, 3)]
    assert layout.cliques.largest == 16
    # with third categories, eliminating attribute 0 first (ties go to the
    # lowest index) gives cliques {0, 1, 3} and {1, 2, 3}: 45 of 54 cells
    schema = schema_of(2, 3, 3, 3)
    layout = ScopeLayout(schema, patterns_over(
        schema, [(0, 1), (1, 2), (2, 3), (0, 3)], np.random.default_rng(3)))
    assert layout.cliques.axes == [(0, 1, 3), (1, 2, 3)]


def test_an_underflowing_message_gives_zero_mass():
    schema = schema_of(3, 3, 3)
    # every cell with attribute 1 at 0 sits 800 nats down in both pair cliques
    patterns = ([Pattern.of({0: x, 1: 0}) for x in range(3)]
                + [Pattern.of({1: 0, 2: y}) for y in range(3)] + [Pattern.of({1: 1})])
    layout = ScopeLayout(schema, patterns)
    assert len(layout.cliques.axes) == 2
    lam = np.array([-800.0] * 6 + [0.5])
    log_z, masses = layout.calibrate(lam)
    assert math.isfinite(log_z) and np.isfinite(masses).all()
    assert masses[:6].tolist() == [0.0] * 6
    check_calibration(layout, lam)


def test_one_clique_path_is_the_dense_path_bit_for_bit():
    rng = np.random.default_rng(4)
    schema = schema_of(3, 2, 4, 2)
    layout = ScopeLayout(schema, patterns_over(
        schema, list(itertools.combinations(range(4), 3)), rng))
    assert layout.cliques.axes == [(0, 1, 2, 3)]
    lam = rng.normal(size=layout.combo.size)
    e = layout.energies(lam)
    w = np.exp(e - e.max())
    log_z, masses = layout.calibrate(lam)
    assert log_z == e.max() + math.log(w.sum())
    assert np.array_equal(masses, layout.masses(w / w.sum()))
    check_calibration(layout, lam)


@pytest.mark.parametrize("enum_cap", [DEFAULT_ENUM_CAP, 1])
@pytest.mark.parametrize("sizes, scopes", [
    # a chain
    ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4)]),
    # a 5-cycle: min-fill adds two chords
    ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    # two components and a lone unary scope
    ((3, 2, 4, 3, 3), [(0, 1), (2, 3), (0,), (4,)]),
    # every triple of four attributes, with their pairs and units: one clique
    ((3, 2, 3, 2), [s for r in (1, 2, 3) for s in itertools.combinations(range(4), r)]),
], ids=["chain", "5-cycle", "disconnected", "full-ternary"])
def test_chain_factors_give_the_per_scope_energy_change(sizes, scopes, enum_cap):
    schema = schema_of(*sizes)
    rng = np.random.default_rng(5)
    patterns = patterns_over(schema, scopes, rng)
    lam = 3.0 * rng.normal(size=len(patterns))
    cs = ConstraintSet(schema, tuple(AtomicConstraint(p, 0.5) for p in patterns))
    model = MaxEntModel(cs, lam, enum_cap)
    layout = cs.layout
    factors = _chain_factors(model)
    cliques = layout.cliques
    if enum_cap == 1:  # every clique is over the cap: the groups' own tables
        assert [g.scope for g, _ in factors] == [
            layout.groups[g].scope for members in cliques.members for g in members]
    else:
        assert [g.scope for g, _ in factors] == [
            axes for axes, members in zip(cliques.axes, cliques.members) if members]
    tables = layout.scope_tables(lam)
    for _ in range(300):
        state = [int(rng.integers(d)) for d in schema.shape]
        a = int(rng.integers(schema.k))
        moved = list(state)
        moved[a] = int(rng.integers(schema.shape[a]))
        by_factor = sum(t[g.keys(moved)] - t[g.keys(state)]
                        for g, t in factors if a in g.scope)
        by_scope = sum(t[g.keys(moved)] - t[g.keys(state)]
                       for g, t in zip(layout.groups, tables) if a in g.scope)
        assert by_factor == pytest.approx(by_scope, rel=0, abs=TOL)
