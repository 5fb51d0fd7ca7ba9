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
"""

import itertools

import numpy as np
import pytest

from popmaxent import AttributeSchema, Pattern, feature_value
from popmaxent._dense import ScopeLayout

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
