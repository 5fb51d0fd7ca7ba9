"""Tests for the synthetic source generators.

Claims:
    - a population keeps only its occupied cells, so a 40-attribute parity
      chain of 1,000 individuals builds without a count per cell
    - on a small space, that population equals the one counted over every
      cell with ``bincount``
"""

import numpy as np

from popmaxent import AttributeSchema, Population
from popmaxent.synthetic import _population_from_matrix, parity_chain_population


def test_wide_parity_chain_builds():
    pop = parity_chain_population(40, 1000, seed=1)
    assert pop.schema.n_cells == 2**40
    assert pop.total == 1000
    assert 0 < pop.cells.size <= 1000


def test_small_population_equals_the_bincount_one():
    schema = AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate((3, 2, 4)))
    rows = np.random.default_rng(5).integers(0, schema.shape, size=(15, 3))
    counts = np.bincount(np.ravel_multi_index(tuple(rows.T), schema.shape),
                         minlength=schema.n_cells)
    cells = np.flatnonzero(counts)
    assert cells.size < schema.n_cells  # empty cells to leave out
    expected = Population(schema, cells, counts[cells])
    assert _population_from_matrix(schema, rows).equals(expected)
