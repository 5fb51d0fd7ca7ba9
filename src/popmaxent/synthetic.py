"""Synthetic source populations for demos, tests, and desk-scale benchmarks.

The benchmark harness accepts any tabular source; these generators produce
controllable stand-ins with known dependence structure: mixtures of
product distributions (mild general dependence) and noisy parity chains
(strong ternary structure that pairwise information misses).
"""

from __future__ import annotations

import numpy as np

from .core import AttributeSchema, Population, cell_codes
from .errors import ValidationError


def _schema(sizes: list[int]) -> AttributeSchema:
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def mixture_population(
    k: int,
    n: int,
    seed: int,
    *,
    min_categories: int = 2,
    max_categories: int = 4,
    components: int = 2,
) -> Population:
    """Mixture of random product distributions over random small domains.

    Component mixing induces dependence between every attribute pair while
    keeping all category probabilities comfortably interior.
    """
    if k < 1 or n < 1:
        raise ValidationError("need k >= 1 attributes and n >= 1 individuals")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(min_categories, max_categories + 1, size=k).tolist()
    schema = _schema(sizes)
    probs = [
        [rng.dirichlet(np.full(d, 2.0)) for d in sizes] for _ in range(components)
    ]
    which = rng.integers(0, components, size=n)
    rows = np.empty((n, k), dtype=np.int64)
    for c in range(components):
        idx = np.flatnonzero(which == c)
        for a, d in enumerate(sizes):
            rows[idx, a] = rng.choice(d, size=idx.size, p=probs[c][a])
    return Population.from_codes(schema, cell_codes(schema, rows.T))


def parity_chain_population(
    k: int,
    n: int,
    seed: int,
    *,
    flip: float = 0.1,
) -> Population:
    """Binary attributes where each one is the noisy XOR of the previous two.

    Attribute pairs look nearly independent while consecutive triples carry
    strong three-way structure, which stresses pairwise-only methods.
    """
    if k < 3:
        raise ValidationError("parity chains need at least 3 attributes")
    if not 0.0 <= flip < 0.5:
        raise ValidationError("flip probability must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    rows = np.empty((n, k), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, size=n)
    rows[:, 1] = rng.integers(0, 2, size=n)
    for a in range(2, k):
        noise = rng.random(n) < flip
        rows[:, a] = (rows[:, a - 1] ^ rows[:, a - 2]) ^ noise
    schema = _schema([2] * k)
    return Population.from_codes(schema, cell_codes(schema, rows.T))
