"""Tests for schemas, cell codes, populations, marginals, and ingestion.

Claims:
    - encode/decode is the row-major mixed-radix bijection (attribute 0
      most significant), round-tripping on every cell
    - marginals are support-only frequency tables consistent across arities
    - pattern frequencies agree exactly with marginal cells
    - the atomic-count accounting rule: constraints from retained marginals
      sum their support sizes
    - delimited ingestion fixes domains in first-appearance order, handles
      counted form, comment headers, and rejects unseen categories
    - on random files (counted, uncounted, tab-separated, commented, padded
      labels) ingestion equals Population.from_assignments, and each error
      names the row a row-by-row parse meets first
    - a population's coordinates are computed once and read-only
    - cell codes of a space over 2^63 - 1 cells raise a CapacityError that
      names the limit, from the generators and from ingestion alike
"""

import itertools

import numpy as np
import pytest

from popmaxent import (
    AttributeSchema,
    CapacityError,
    MarginalTable,
    Pattern,
    Population,
    ValidationError,
    decode_cell,
    empirical_frequency,
    encode_cell,
    marginal,
    population_text,
    read_population_text,
    support_size,
)
from popmaxent.synthetic import mixture_population


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


class TestSchema:
    def test_rejects_single_category_domain(self):
        with pytest.raises(ValidationError):
            schema_of(2, 1)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            AttributeSchema.from_domains([("A", ("x", "y")), ("A", ("u", "v"))])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            AttributeSchema.from_domains([("A", ("x", "x"))])

    def test_counts(self):
        s = schema_of(3, 2, 4)
        assert s.k == 3
        assert s.shape == (3, 2, 4)
        assert s.n_cells == 24


class TestCellCodes:
    def test_spaces_over_int64_codes_raise_capacity_error(self):
        with pytest.raises(CapacityError, match=r"2\^63 - 1 cells"):
            mixture_population(40, 2000, seed=1, min_categories=4, max_categories=6)
        def text(sizes):  # row r holds category min(r, d - 1) of each attribute
            rows = [[f"A{i}" for i in range(len(sizes))]]
            rows += [[str(min(r, d - 1)) for d in sizes] for r in range(max(sizes))]
            return "\n".join(",".join(row) for row in rows)

        with pytest.raises(CapacityError, match=r"2\^63 - 1 cells"):
            read_population_text(text([4] * 31 + [2]))  # 2^63 cells
        pop = read_population_text(text([4] * 31))  # 2^62 cells
        assert pop.cells.tolist() == [(4 ** 31 - 1) // 3 * r for r in range(4)]

    def test_first_cell_is_zero(self):
        assert encode_cell(schema_of(2, 2), (0, 0)) == 0

    def test_last_cell(self):
        assert encode_cell(schema_of(2, 2), (1, 1)) == 3

    def test_canonical_enumeration_position(self):
        # oracle: enumerate all 6 cells of a 3x2 space in row-major order
        s = schema_of(3, 2)
        order = list(itertools.product(range(3), range(2)))
        assert order.index((2, 1)) == 5
        assert encode_cell(s, (2, 1)) == 5

    def test_matches_product_order_everywhere(self):
        s = schema_of(3, 2, 4)
        for i, assign in enumerate(itertools.product(range(3), range(2), range(4))):
            assert encode_cell(s, assign) == i
            assert decode_cell(s, i) == assign

    def test_roundtrip_exhaustive(self):
        # exhaustive on a space of exactly 10^4 cells
        s = schema_of(10, 10, 10, 10)
        for cell in range(s.n_cells):
            assert encode_cell(s, decode_cell(s, cell)) == cell

    def test_out_of_range_raises(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            encode_cell(s, (0, 2))
        with pytest.raises(ValidationError):
            encode_cell(s, (0,))
        with pytest.raises(ValidationError):
            decode_cell(s, 4)


class TestPattern:
    def test_arity_bounds(self):
        with pytest.raises(ValidationError):
            Pattern(())
        with pytest.raises(ValidationError):
            Pattern(((0, 0), (1, 0), (2, 0), (3, 0)))

    def test_requires_sorted_distinct(self):
        with pytest.raises(ValidationError):
            Pattern(((1, 0), (0, 0)))
        with pytest.raises(ValidationError):
            Pattern(((0, 0), (0, 1)))

    def test_of_sorts(self):
        p = Pattern.of({2: 1, 0: 3})
        assert p.scope == (0, 2)
        assert p.values == (3, 1)

    def test_matches(self):
        s = schema_of(2, 2)
        p = Pattern.of({0: 0})
        assert [p.matches(s, c) for c in range(4)] == [True, True, False, False]


class TestPopulation:
    def test_total_is_count_sum(self):
        s = schema_of(2, 2)
        pop = Population.from_counts(s, {0: 2, 3: 5})
        assert pop.total == 7

    def test_rejects_zero_count(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            Population.from_counts(s, {0: 0, 1: 2})

    def test_from_assignments_aggregates(self):
        s = schema_of(2, 2)
        pop = Population.from_assignments(s, [(0, 0), (0, 0), (1, 1)])
        assert pop.count_of(0) == 2
        assert pop.count_of(3) == 1
        assert pop.count_of(1) == 0


class TestMarginal:
    def test_unary_symmetry(self):
        s = schema_of(2, 2)
        pop = Population.from_assignments(s, [(0, 0), (0, 1), (1, 0), (1, 1)])
        t = marginal(pop, (0,))
        assert t.cells == {(0,): 0.5, (1,): 0.5}

    def test_support_only_diagonal(self):
        # attributes equal on every individual: off-diagonal combos absent
        s = schema_of(3, 3)
        pop = Population.from_assignments(s, [(0, 0), (1, 1), (2, 2), (1, 1)])
        t = marginal(pop, (0, 1))
        assert set(t.cells) == {(0, 0), (1, 1), (2, 2)}
        assert support_size(t) == 3

    def test_full_support_pair_is_nine(self):
        s = schema_of(3, 3)
        pop = Population.from_assignments(s, itertools.product(range(3), range(3)))
        assert support_size(marginal(pop, (0, 1))) == 9

    def test_unary_full_support_equals_domain(self):
        s = schema_of(4, 2)
        pop = Population.from_assignments(s, [(i, 0) for i in range(4)])
        assert support_size(marginal(pop, (0,))) == 4

    def test_ternary_support_22_of_27(self):
        # 3x3x3 triple where exactly 5 chosen combos never occur
        s = schema_of(3, 3, 3)
        missing = {(0, 1, 2), (1, 1, 1), (2, 0, 0), (2, 2, 1), (0, 0, 2)}
        rows = [c for c in itertools.product(range(3), repeat=3) if c not in missing]
        pop = Population.from_assignments(s, rows)
        assert support_size(marginal(pop, (0, 1, 2))) == 22

    def test_empty_population_rejected(self):
        s = schema_of(2, 2)
        pop = Population(s, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            marginal(pop, (0,))

    def test_marginal_consistency_across_arity(self):
        rng = np.random.default_rng(0)
        s = schema_of(3, 2, 4)
        rows = rng.integers(0, (3, 2, 4), size=(500, 3))
        pop = Population.from_assignments(s, [tuple(r) for r in rows])
        pair = marginal(pop, (0, 2))
        una = marginal(pop, (0,))
        collapsed = {}
        for (a, _), f in pair.cells.items():
            collapsed[(a,)] = collapsed.get((a,), 0.0) + f
        for combo, f in una.cells.items():
            assert collapsed[combo] == pytest.approx(f, abs=1e-12)

    def test_frequencies_sum_to_one(self):
        with pytest.raises(ValidationError):
            MarginalTable((0,), {(0,): 0.5, (1,): 0.4})


class TestEmpiricalFrequency:
    def test_uniform_half(self):
        s = schema_of(2, 2)
        pop = Population.from_assignments(s, itertools.product(range(2), range(2)))
        assert empirical_frequency(pop, Pattern.of({0: 0})) == 0.5

    def test_saturated_pattern(self):
        s = schema_of(2, 2)
        pop = Population.from_assignments(s, [(1, 0), (1, 1)])
        assert empirical_frequency(pop, Pattern.of({0: 1})) == 1.0

    def test_direct_count(self):
        # oracle: direct count 2 of 4 rows have A=0
        s = schema_of(2, 2)
        pop = Population.from_counts(s, {0: 1, 1: 1, 2: 2})
        assert empirical_frequency(pop, Pattern.of({0: 0})) == 0.5

    def test_agrees_with_marginal_cells_exactly(self):
        rng = np.random.default_rng(1)
        s = schema_of(3, 2, 2)
        rows = rng.integers(0, (3, 2, 2), size=(321, 3))
        pop = Population.from_assignments(s, [tuple(r) for r in rows])
        for scope in [(0,), (1, 2), (0, 1, 2)]:
            t = marginal(pop, scope)
            for combo, f in t.cells.items():
                p = Pattern.of(dict(zip(scope, combo)))
                assert empirical_frequency(pop, p) == f


class TestIngestion:
    def test_first_appearance_domains(self):
        pop = read_population_text("A,B\nfoo,1\nbar,2\nfoo,2\n")
        assert pop.schema.names == ("A", "B")
        assert pop.schema.domain(0) == ("foo", "bar")
        assert pop.schema.domain(1) == ("1", "2")
        assert pop.total == 3

    def test_tab_autodetect(self):
        pop = read_population_text("A\tB\nx\t0\ny\t1\n")
        assert pop.schema.names == ("A", "B")
        assert pop.total == 2

    def test_counted_form(self):
        pop = read_population_text("A,B,__count\nx,0,3\ny,1,2\n")
        assert pop.total == 5
        assert pop.count_of(0) == 3

    def test_counted_form_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            read_population_text("A,B,__count\nx,0,0\ny,1,2\n")

    def test_comment_header_skipped(self):
        pop = read_population_text("# tool xyz\n# config {}\nA,B\nx,0\ny,1\n")
        assert pop.total == 2

    def test_unseen_category_hard_error(self):
        base = read_population_text("A,B\nx,0\ny,1\n")
        with pytest.raises(ValidationError):
            read_population_text("A,B\nz,0\n", schema=base.schema)

    def test_wrong_attribute_names_error(self):
        base = read_population_text("A,B\nx,0\ny,1\n")
        with pytest.raises(ValidationError):
            read_population_text("A,C\nx,0\n", schema=base.schema)

    def test_roundtrip_counted_and_flat(self):
        rng = np.random.default_rng(2)
        s = schema_of(3, 2)
        rows = rng.integers(0, (3, 2), size=(100, 2))
        pop = Population.from_assignments(s, [tuple(r) for r in rows])
        for counted in (True, False):
            text = population_text(pop, counted=counted, header_comments=["demo"])
            back = read_population_text(text, schema=pop.schema)
            assert np.array_equal(back.cells, pop.cells)
            assert np.array_equal(back.counts, pop.counts)

    def test_constant_column_rejected(self):
        # a one-category domain cannot form a valid schema
        with pytest.raises(ValidationError):
            read_population_text("A,B\nx,0\nx,1\n")


def _random_file(rng, counted, delim, comments):
    """A random population file and the (schema, rows) it encodes."""
    k = int(rng.integers(1, 5))
    labels = [[f"v{a}{j}" for j in range(int(rng.integers(2, 5)))] for a in range(k)]
    n = int(rng.integers(0, 60))
    # every column sees at least two categories, so the schema is valid
    rows = [(0,) * k, (1,) * k]
    rows += [tuple(int(rng.integers(0, len(d))) for d in labels) for _ in range(n)]
    rng.shuffle(rows)
    mults = [int(rng.integers(1, 4)) if counted else 1 for _ in rows]
    header = [f"A{a}" for a in range(k)] + (["__count"] if counted else [])
    lines = ["# generated", delim.join(header)]
    for row, mult in zip(rows, mults):
        if comments and rng.random() < 0.2:
            lines.append("  # a comment line")
        if rng.random() < 0.1:
            lines.append("")
        cells = [(" " if rng.random() < 0.3 else "") + labels[a][v] for a, v in enumerate(row)]
        lines.append(delim.join(cells + ([f" {mult}"] if counted else [])))
    seen = [dict.fromkeys(labels[a][row[a]] for row in rows) for a in range(k)]
    schema = AttributeSchema.from_domains((f"A{a}", list(seen[a])) for a in range(k))
    expanded = [
        tuple(list(seen[a]).index(labels[a][v]) for a, v in enumerate(row))
        for row, mult in zip(rows, mults) for _ in range(mult)
    ]
    return "\n".join(lines) + "\n", schema, expanded


class TestVectorIngest:
    @pytest.mark.parametrize("counted", [False, True])
    @pytest.mark.parametrize("delim", [",", "\t"])
    @pytest.mark.parametrize("comments", [False, True])
    def test_random_files_equal_from_assignments(self, counted, delim, comments):
        rng = np.random.default_rng([counted, delim == "\t", comments])
        for _ in range(30):
            text, schema, rows = _random_file(rng, counted, delim, comments)
            want = Population.from_assignments(schema, rows)
            got = read_population_text(text)
            assert got.schema == schema
            assert got.equals(want)
            assert read_population_text(text, schema=schema).equals(want)

    @pytest.mark.parametrize("text, message", [
        ("A,B\nx,0\ny,1\nz,0\n", "row 4: unseen category 'z' for attribute 'A'"),
        ("A,B\nx,0\ny, 2\nz,0\n", "row 3: unseen category '2' for attribute 'B'"),
        # the earlier row wins, whatever the column
        ("A,B\nx,0\nx,2\nz,0\n", "row 3: unseen category '2' for attribute 'B'"),
        # within a row, the first column wins
        ("A,B\nx,0\nz,2\n", "row 3: unseen category 'z' for attribute 'A'"),
        # a row of the wrong width after an unseen category
        ("A,B\nz,0\nx\n", "row 2: unseen category 'z' for attribute 'A'"),
        ("A,B\nx,0\nx\nz,0\n", "row 3 has 1 fields, expected 2"),
        # repeated rows before the error still count
        ("A,B\nx,0\nx,0\ny,1\nx,0\nz,0\n", "row 6: unseen category 'z' for attribute 'A'"),
    ])
    def test_errors_with_a_schema(self, text, message):
        schema = read_population_text("A,B\nx,0\ny,1\n").schema
        with pytest.raises(ValidationError) as info:
            read_population_text(text, schema=schema)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("A,B,__count\nx,0,2\ny,1, zero \n", "row 3: bad __count value 'zero'"),
        ("A,B,__count\nx,0,0\ny,1,2\n", "row 2: __count must be >= 1, got 0"),
        ("A,B,__count\nx,0,2\ny,1,-3\nx,1,x\n", "row 3: __count must be >= 1, got -3"),
        # a row's count is checked before its labels
        ("A,B,__count\nx,0,1\nz,1,0\n", "row 3: __count must be >= 1, got 0"),
        ("A,B,__count\nz,0,1\nx,1,0\n", "row 2: unseen category 'z' for attribute 'A'"),
        ("A,B,__count\nx,0\nx,1,0\n", "row 2 has 2 fields, expected 3"),
        ("A,B,__count\nx,0,1\nx,0,1\nx,0,1\ny,1,q\n", "row 5: bad __count value 'q'"),
        ("A,B,__count\nx,0,2\ny,1,3\nx,0,2\ny,1,0\n", "row 5: __count must be >= 1, got 0"),
    ])
    def test_count_errors(self, text, message):
        schema = read_population_text("A,B\nx,0\ny,1\n").schema
        with pytest.raises(ValidationError) as info:
            read_population_text(text, schema=schema)
        assert str(info.value) == message

    def test_header_only_file(self):
        schema = schema_of(2, 2)
        pop = read_population_text("A0,A1\n", schema=schema)
        assert pop.total == 0 and pop.cells.size == 0


class TestCoords:
    def test_computed_once_and_read_only(self):
        pop = Population.from_assignments(schema_of(3, 2, 4), [(0, 1, 3), (2, 0, 1)])
        coords = pop.coords()
        assert pop.coords() is coords
        assert not coords.flags.writeable
        assert np.array_equal(coords, [[0, 2], [1, 0], [3, 1]])
