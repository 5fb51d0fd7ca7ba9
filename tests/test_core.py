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
      names the row a row-by-row parse meets first, by its line in the
      file, comment and blank lines included
    - on random files (comma and tab, counted and flat, comments and blank
      lines, repeated lines, CRLF endings, a data row identical to the
      header, quoted labels holding the delimiter or ``"``) the reader
      gives the population, or the error, that the frozen row-by-row reader
      gives, and the writer the frozen per-cell writer's bytes
    - a row is one line: a quoted field left open at the end of its line is
      an error naming that line, and a schema rejects a name or label with
      a line break, which no file could hold
    - a schema rejects the text a file would not give back: a name or label
      with leading or trailing whitespace (the reader strips fields), and a
      name or label of the first attribute starting with ``#`` (its line
      would read as a comment), a name with a tab (the file would read as
      tab-delimited), and a last attribute named ``__count`` (it would read
      as the count column); such text elsewhere round-trips
    - a schema rejects a name or label that is not a string, naming the
      attribute, before any string check could fail on it
    - a population's coordinates are computed once and read-only
    - ``scope_counts`` on same-shape batches of every arity (a one-cell
      population too) gives, over the total, exactly the frozen
      one-scope dense marginal; scopes of mixed domain shapes are
      rejected; and ``ScopeLayout.sparse_masses`` gives each pattern its
      entry of the per-scope counts over the total, exactly
    - cell codes of a space over 2^63 - 1 cells raise a CapacityError that
      names the limit, from the generators and from ingestion alike
"""

import csv
import io
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
from popmaxent._dense import ScopeLayout
from popmaxent.core import scope_counts
from popmaxent.synthetic import mixture_population

from oracles import (
    frozen_dense_marginal,
    frozen_population_text,
    frozen_read_population_text,
)


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

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
                                     "\u2028", "\u2029"])
    def test_rejects_line_breaks_in_names_and_labels(self, brk):
        message = r"^attribute 'A' has a line break in its name or a category label$"
        with pytest.raises(ValidationError, match=message):
            AttributeSchema.from_domains([("A", ("x", f"a{brk}b")), ("B", ("u", "v"))])
        with pytest.raises(ValidationError, match=message):
            AttributeSchema.from_domains([("A", ("x", f"y{brk}"))])
        with pytest.raises(ValidationError) as info:
            AttributeSchema.from_domains([(f"A{brk}", ("x", "y"))])
        assert str(info.value).startswith(f"attribute {f'A{brk}'!r} has a line break")

    @pytest.mark.parametrize("attrs", [
        [("A", (" x", "x"))],
        [("A", ("x", "y")), ("B", ("u", "v\t"))],
        [("A", ("x", "y")), ("B ", ("u", "v"))],
        [("A", ("x", " "))],
    ], ids=["leading", "trailing-tab", "padded-name", "blank-label"])
    def test_rejects_padded_names_and_labels(self, attrs):
        message = (f"^attribute {attrs[-1][0]!r} has leading or trailing whitespace "
                   "in its name or a category label$")
        with pytest.raises(ValidationError, match=message):
            AttributeSchema.from_domains(attrs)

    def test_rejects_a_leading_hash_in_the_first_attributes_name_and_labels(self):
        message = r"^attribute {} is first, so its name and category labels must not start"
        with pytest.raises(ValidationError, match=message.format("'A'")):
            AttributeSchema.from_domains([("A", ("#x", "y")), ("B", ("u", "v"))])
        with pytest.raises(ValidationError, match=message.format("'#A'")):
            AttributeSchema.from_domains([("#A", ("x", "y"))])
        # elsewhere on a line, and inside a label, '#' and whitespace round-trip
        s = AttributeSchema.from_domains([("A", ("x#", "y z")), ("#B", ("#u", "v"))])
        pop = Population.from_assignments(s, [(0, 0), (1, 0), (0, 1), (0, 1)])
        for counted in (True, False):
            assert read_population_text(population_text(pop, counted), schema=s).equals(pop)

    def test_rejects_a_tab_in_a_name(self):
        for named, attrs in (("A\tZ", [("A\tZ", ("x", "y")), ("B", ("u", "v"))]),
                             ("B\tC", [("A", ("x", "y")), ("B\tC", ("u", "v"))])):
            with pytest.raises(ValidationError) as exc:
                AttributeSchema.from_domains(attrs)
            assert str(exc.value).startswith(f"attribute {named!r} has a tab in its name")
        # a tab inside a label round-trips: the header alone picks the delimiter
        s = AttributeSchema.from_domains([("A", ("x", "y")), ("B", ("u\tw", "v"))])
        pop = Population.from_assignments(s, [(0, 0), (1, 0), (1, 1)])
        for counted in (True, False):
            assert read_population_text(population_text(pop, counted), schema=s).equals(pop)

    def test_rejects_a_last_attribute_named_like_the_count_column(self):
        with pytest.raises(ValidationError, match=r"^attribute '__count' is last, so "):
            AttributeSchema.from_domains([("A", ("x", "y")), ("__count", ("u", "v"))])
        # anywhere else it round-trips, counted or not
        s = AttributeSchema.from_domains([("__count", ("x", "y")), ("B", ("u", "v"))])
        pop = Population.from_assignments(s, [(0, 0), (1, 0), (1, 1)])
        for counted in (True, False):
            assert read_population_text(population_text(pop, counted), schema=s).equals(pop)

    @pytest.mark.parametrize("attrs, named", [
        ([("A", ("x", 7))], "'A'"),
        ([("A", ("x", "y")), (3, ("u", "v"))], "3"),
        ([("A", ("x", None))], "'A'"),
        ([(["A"], ("x", "y"))], "['A']"),
        ([("A", ("x", ["y"]))], "'A'"),
    ], ids=["int-label", "int-name", "null-label", "list-name", "list-label"])
    def test_rejects_names_and_labels_that_are_not_strings(self, attrs, named):
        with pytest.raises(ValidationError) as exc:
            AttributeSchema.from_domains(attrs)
        assert str(exc.value) == (f"attribute {named} has a name or a category label "
                                  "that is not a string")

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
        # rows are numbered by their line in the file: blank and comment
        # lines count
        ("A,B\nx,0\n\n   \ny,1\nz,0\n", "row 6: unseen category 'z' for attribute 'A'"),
        ("A,B\n# note\nx,0\n\t\nz,1\n", "row 5: unseen category 'z' for attribute 'A'"),
        ("# a\nA,B\n\nx,0\n# b\nx\n", "row 6 has 1 fields, expected 2"),
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
        # comment lines before the header, as written with header comments
        ("# a\n# b\n# c\nA,B,__count\nx,0,2\ny,1,q\n", "row 6: bad __count value 'q'"),
        ("# a\nA,B,__count\nx,0,0\n", "row 3: __count must be >= 1, got 0"),
        # a repeated row is reported at its first line
        ("A,B,__count\n\nx,0,-1\n# c\nx,0,-1\n", "row 3: __count must be >= 1, got -1"),
    ])
    def test_count_errors(self, text, message):
        schema = read_population_text("A,B\nx,0\ny,1\n").schema
        with pytest.raises(ValidationError) as info:
            read_population_text(text, schema=schema)
        assert str(info.value) == message

    def test_error_line_in_a_written_file(self):
        schema = read_population_text("A,B\nx,0\ny,1\n").schema
        pop = Population.from_assignments(schema, [(0, 0), (1, 0), (1, 1)])
        text = population_text(pop, header_comments=["one", "two", "three"])
        lines = text.splitlines()
        assert lines[5] == "y,0,1"  # physical line 6: the third comment-free row
        lines[5] = "y,0,many"
        with pytest.raises(ValidationError, match=r"^row 6: bad __count value 'many'$"):
            read_population_text("\n".join(lines) + "\n", schema=schema)

    @pytest.mark.parametrize("text, message", [
        ('A,B\nx,"0\ny,1\n', "row 2: quoted field runs past the end of its line"),
        # on the last row, with no line after it
        ('A,B\nx,0\ny,"1\n', "row 3: quoted field runs past the end of its line"),
        ('A,B\nx,0\ny,"1', "row 3: quoted field runs past the end of its line"),
        ('# c\n"A,B\nx,0\n', "row 2: quoted field runs past the end of its line"),
        ('A,"B\n', "row 1: quoted field runs past the end of its line"),
        # a repeated row is reported at its first line, after earlier errors
        ('A,B\nx,0\n\ny,"1\ny,"1\n', "row 4: quoted field runs past the end of its line"),
        ('A,B\nz,0\ny,"1\n', "row 2: unseen category 'z' for attribute 'A'"),
        ('A,B,__count\nx,0,"3\r\n2"\n', "row 2: quoted field runs past the end of its line"),
    ])
    def test_a_quote_open_at_the_end_of_a_line(self, text, message):
        schema = read_population_text("A,B\nx,0\ny,1\n").schema
        with pytest.raises(ValidationError) as info:
            read_population_text(text, schema=schema)
        assert str(info.value) == message

    def test_header_only_file(self):
        schema = schema_of(2, 2)
        pop = read_population_text("A0,A1\n", schema=schema)
        assert pop.total == 0 and pop.cells.size == 0


# labels that csv must quote (a delimiter or ``"``), or that hold spaces or ``#``
_AWKWARD = ["v,1", 'say "hi"', "a\tb", '"', "x # y", ",\t,"]


def _parity_file(rng, counted, delim, crlf):
    """A random population file: comments and blank lines, repeated lines,
    quoted labels and, uncounted, a row identical to the header."""
    # a tab shows in the header only between two columns
    k = int(rng.integers(1 + (delim == "\t"), 4))
    names = [f"A{a}" for a in range(k)]
    domains = [[names[a], *rng.choice(_AWKWARD, 2, replace=False), f"w{a}"] for a in range(k)]

    def line(labels, count):
        buf = io.StringIO()
        padded = [(" " if rng.random() < 0.3 else "") + label for label in labels]
        csv.writer(buf, delimiter=delim, lineterminator="").writerow(
            padded + ([count] if counted else []))
        return buf.getvalue()

    distinct = [line([d[int(rng.integers(len(d)))] for d in domains], int(rng.integers(1, 5)))
                for _ in range(int(rng.integers(2, 12)))]
    if not counted:
        distinct.append(delim.join(names))
    lines = ["# generated", "", delim.join(names + (["__count"] if counted else []))]
    for _ in range(int(rng.integers(0, 40))):
        roll = rng.random()
        lines.append("  # note" if roll < 0.1 else " \t" if roll < 0.15
                     else distinct[int(rng.integers(len(distinct)))])
    # every column sees two labels, so that the file fixes a valid schema
    lines += [line([d[i] for d in domains], 1) for i in (1, 2)]
    return ("\r\n" if crlf else "\n").join(lines) + "\n"


class TestFrozenParity:
    @pytest.mark.parametrize("counted", [False, True])
    @pytest.mark.parametrize("delim", [",", "\t"])
    @pytest.mark.parametrize("crlf", [False, True])
    def test_reader_equals_frozen_reader(self, counted, delim, crlf):
        rng = np.random.default_rng([counted, delim == "\t", crlf, 18])
        other = read_population_text("A0,A1,A2\nw0,w1,w2\nv,v,v\n").schema
        for _ in range(40):
            text = _parity_file(rng, counted, delim, crlf)
            want = frozen_read_population_text(text)
            got = read_population_text(text)
            assert got.schema == want.schema
            assert got.equals(want)
            assert read_population_text(text, schema=want.schema).equals(want)
            # errors against a schema the file does not fit compare too
            for schema in (other, AttributeSchema(other.attributes[:want.schema.k])):
                with pytest.raises(ValidationError) as frozen:
                    frozen_read_population_text(text, schema=schema)
                with pytest.raises(ValidationError) as info:
                    read_population_text(text, schema=schema)
                assert str(info.value) == str(frozen.value)

    @pytest.mark.parametrize("counted", [False, True])
    def test_writer_bytes_equal_frozen_writer(self, counted):
        rng = np.random.default_rng([counted, 18])
        for _ in range(20):
            sizes = rng.integers(2, 5, size=int(rng.integers(1, 5)))
            schema = AttributeSchema.from_domains(
                (f"A{a}", [*_AWKWARD[:d - 1], f"c{a}"]) for a, d in enumerate(sizes))
            rows = rng.integers(0, sizes, size=(int(rng.integers(0, 80)), len(sizes)))
            pop = Population.from_assignments(schema, [tuple(r) for r in rows])
            text = population_text(pop, counted=counted, header_comments=["one", "two"])
            assert text == frozen_population_text(pop, counted=counted,
                                                  header_comments=["one", "two"])
            assert read_population_text(text, schema=schema).equals(pop)


class TestCoords:
    def test_computed_once_and_read_only(self):
        pop = Population.from_assignments(schema_of(3, 2, 4), [(0, 1, 3), (2, 0, 1)])
        coords = pop.coords()
        assert pop.coords() is coords
        assert not coords.flags.writeable
        assert np.array_equal(coords, [[0, 2], [1, 0], [3, 1]])


class TestScopeCounts:
    sizes = (3, 2, 3, 2, 3, 2, 2)

    def populations(self):
        schema = schema_of(*self.sizes)
        rng = np.random.default_rng(31)
        rows = rng.integers(0, self.sizes, size=(400, len(self.sizes)))
        yield Population.from_assignments(schema, [tuple(r) for r in rows])
        yield Population(schema, [schema.n_cells - 5], [7])  # one cell

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_same_shape_batches_are_the_frozen_marginals(self, arity):
        for pop in self.populations():
            by_shape = {}
            for scope in itertools.combinations(range(len(self.sizes)), arity):
                by_shape.setdefault(tuple(self.sizes[a] for a in scope), []).append(scope)
            for shape, scopes in by_shape.items():
                counts = scope_counts(pop, scopes)
                assert counts.shape == (len(scopes), *shape)
                for scope, table in zip(scopes, counts):
                    assert np.array_equal(table / pop.total, frozen_dense_marginal(pop, scope))

    def test_mixed_domain_shapes_are_rejected(self):
        pop = next(self.populations())
        for scopes in ([(0,), (1,)], [(0, 1), (0, 2)], [(0, 1, 2), (0, 1, 3)]):
            with pytest.raises(ValidationError, match="^scope_counts needs scopes of one "
                                                      "domain shape$"):
                scope_counts(pop, scopes)

    def test_sparse_masses_are_the_scope_counts_over_the_total(self):
        pop = next(self.populations())
        scopes = [(1,), (0, 4), (2, 5), (0, 3, 6), (1, 2, 4)]
        patterns = [Pattern.of(dict(zip(scope, combo))) for scope in scopes
                    for combo in itertools.product(*(range(self.sizes[a]) for a in scope))]
        masses = ScopeLayout(pop.schema, patterns).sparse_masses(pop.cells, pop.counts,
                                                                 pop.total)
        expected = [scope_counts(pop, [p.scope])[0][p.values] / pop.total for p in patterns]
        assert masses.tolist() == expected
