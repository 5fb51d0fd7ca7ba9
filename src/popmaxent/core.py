"""Categorical attribute spaces, populations, patterns, and marginals.

An attribute space is the Cartesian product of K finite category domains.
Cells of the space are addressed by a mixed-radix integer code with
attribute 0 most significant, so enumeration order is row-major and
bit-reproducible everywhere.  Populations are sparse nonnegative integer
contingency tables over cells; marginals are support-only frequency
tables over 1 to 3 attributes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ValidationError

MAX_PATTERN_ARITY = 3

MARGINAL_SUM_TOL = 1e-9

# the last column of a counted population file
COUNT_COLUMN = "__count"


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered categorical attributes with finite domains.

    ``attributes`` is a tuple of ``(name, domain)`` pairs where each domain
    is a tuple of category labels in canonical (ingestion) order.  Every
    domain must hold at least two distinct categories, and attribute names
    must be unique.  No name or label holds a line break (any character
    ``str.splitlines`` splits on), since a population file row is one line,
    or leading or trailing whitespace, which the reader strips; and none of
    the first attribute starts with ``#``, which would make its line a comment.
    No name holds a tab, which would make the reader take the file as
    tab-delimited, and the last attribute is not named ``__count``, which
    the reader would take as the count column.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.attributes:
            raise ValidationError("schema needs at least one attribute")
        names = [name for name, _ in self.attributes]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be unique")
        for name, domain in self.attributes:
            if len(domain) < 2:
                raise ValidationError(
                    f"attribute {name!r} needs at least 2 categories, got {len(domain)}"
                )
            if len(set(domain)) != len(domain):
                raise ValidationError(f"attribute {name!r} has duplicate category labels")
            if any("".join(text.splitlines()) != text for text in (name, *domain)):
                raise ValidationError(
                    f"attribute {name!r} has a line break in its name or a category label"
                )
            if any(text != text.strip() for text in (name, *domain)):
                raise ValidationError(f"attribute {name!r} has leading or trailing whitespace "
                                      "in its name or a category label")
            if "\t" in name:
                raise ValidationError(f"attribute {name!r} has a tab in its name, which would "
                                      "make its population file read as tab-delimited")
        if any(text.startswith("#") for text in (names[0], *self.attributes[0][1])):
            raise ValidationError(f"attribute {names[0]!r} is first, so its name and category "
                                  "labels must not start with '#'")
        if names[-1] == COUNT_COLUMN:
            raise ValidationError(f"attribute {COUNT_COLUMN!r} is last, so its population "
                                  "file column would read as the count column")

    @classmethod
    def from_domains(cls, attrs: Iterable[tuple[str, Sequence[str]]]) -> "AttributeSchema":
        return cls(tuple((name, tuple(domain)) for name, domain in attrs))

    @property
    def k(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(domain) for _, domain in self.attributes)

    @property
    def n_cells(self) -> int:
        n = 1
        for _, domain in self.attributes:
            n *= len(domain)
        return n

    def domain(self, attr: int) -> tuple[str, ...]:
        return self.attributes[attr][1]

    def attr_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.attributes):
            if n == name:
                return i
        raise ValidationError(f"unknown attribute {name!r}")

    def category_index(self, attr: int, label: str) -> int:
        try:
            return self.domain(attr).index(label)
        except ValueError:
            raise ValidationError(
                f"unknown category {label!r} for attribute {self.names[attr]!r}"
            ) from None


def encode_cell(schema: AttributeSchema, assignment: Sequence[int]) -> int:
    """Mixed-radix code of a full assignment (attribute 0 most significant)."""
    shape = schema.shape
    if len(assignment) != len(shape):
        raise ValidationError(
            f"assignment length {len(assignment)} != number of attributes {len(shape)}"
        )
    code = 0
    for a, d in zip(assignment, shape):
        if not 0 <= a < d:
            raise ValidationError(f"category index {a} out of range for domain size {d}")
        code = code * d + a
    return code


def cell_codes(schema: AttributeSchema, coords) -> np.ndarray:
    """Cell codes of category indices given per attribute, ``(K, n)`` as
    :meth:`Population.coords` returns them.

    Codes are int64, so a space over 2^63 - 1 cells has none.
    """
    if schema.n_cells > np.iinfo(np.int64).max:
        raise CapacityError(
            f"attribute space has {schema.n_cells} cells, over the 2^63 - 1 cells "
            "that int64 cell codes can address; use fewer attributes or categories"
        )
    return np.ravel_multi_index(coords, schema.shape)


def decode_cell(schema: AttributeSchema, cell: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_cell`."""
    if not 0 <= cell < schema.n_cells:
        raise ValidationError(f"cell index {cell} out of range")
    out = []
    for d in reversed(schema.shape):
        out.append(cell % d)
        cell //= d
    return tuple(reversed(out))


@dataclass(frozen=True)
class Pattern:
    """A subset of the attribute space fixing 1 to 3 attribute values.

    ``fixed`` is a tuple of ``(attribute index, category index)`` pairs
    sorted by attribute index.  The pattern's indicator function over cells
    is the feature associated with one atomic constraint.
    """

    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= len(self.fixed) <= MAX_PATTERN_ARITY:
            raise ValidationError(f"pattern arity must be 1..3, got {len(self.fixed)}")
        attrs = [a for a, _ in self.fixed]
        if sorted(set(attrs)) != attrs:
            raise ValidationError("pattern attributes must be distinct and sorted")

    @classmethod
    def of(cls, fixed: Mapping[int, int]) -> "Pattern":
        return cls(tuple(sorted(fixed.items())))

    @property
    def arity(self) -> int:
        return len(self.fixed)

    @property
    def scope(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.fixed)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.fixed)

    def validate_for(self, schema: AttributeSchema) -> None:
        for a, v in self.fixed:
            if not 0 <= a < schema.k:
                raise ValidationError(f"pattern attribute index {a} out of range")
            if not 0 <= v < len(schema.domain(a)):
                raise ValidationError(
                    f"pattern category index {v} out of range for attribute {schema.names[a]!r}"
                )

    def matches(self, schema: AttributeSchema, cell: int) -> bool:
        assignment = decode_cell(schema, cell)
        return all(assignment[a] == v for a, v in self.fixed)

    def describe(self, schema: AttributeSchema) -> str:
        return ",".join(f"{schema.names[a]}={schema.domain(a)[v]}" for a, v in self.fixed)


@dataclass(frozen=True)
class MarginalTable:
    """Support-only empirical frequency table over a 1-3 attribute scope.

    ``cells`` maps observed category-index combinations (tuples aligned
    with ``scope``) to frequencies in (0, 1]; frequencies sum to 1.
    """

    scope: tuple[int, ...]
    cells: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        if not 1 <= len(self.scope) <= MAX_PATTERN_ARITY:
            raise ValidationError("marginal scope must have 1..3 attributes")
        if len(set(self.scope)) != len(self.scope):
            raise ValidationError("marginal scope attributes must be distinct")
        total = sum(self.cells.values())
        if abs(total - 1.0) > MARGINAL_SUM_TOL:
            raise ValidationError(f"marginal frequencies sum to {total!r}, not 1")

    @property
    def support_size(self) -> int:
        """Number of category combinations observed at least once."""
        return len(self.cells)

    def to_dense(self, schema: AttributeSchema) -> np.ndarray:
        """Dense array over the scope's full Cartesian product (zeros off-support)."""
        shape = tuple(len(schema.domain(a)) for a in self.scope)
        out = np.zeros(shape)
        for combo, freq in self.cells.items():
            out[combo] = freq
        return out


def support_size(table: MarginalTable) -> int:
    return table.support_size


@dataclass(frozen=True, eq=False)
class Population:
    """A multiset of complete assignments as a sparse contingency table.

    ``cells`` holds distinct cell codes sorted ascending and ``counts`` the
    matching positive integer multiplicities; ``total`` is the population
    size N.  Instances are immutable and safe to share; compare with
    :meth:`equals`.
    """

    schema: AttributeSchema
    cells: np.ndarray
    counts: np.ndarray
    total: int = field(init=False)

    def equals(self, other: "Population") -> bool:
        return (
            self.schema == other.schema
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.counts, other.counts)
        )

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if cells.shape != counts.shape or cells.ndim != 1:
            raise ValidationError("cells and counts must be 1-d arrays of equal length")
        if cells.size:
            if np.any(counts < 1):
                raise ValidationError("stored counts must all be >= 1")
            if np.any(np.diff(cells) <= 0):
                raise ValidationError("cells must be strictly increasing")
            if cells[0] < 0 or cells[-1] >= self.schema.n_cells:
                raise ValidationError("cell code out of range for schema")
        cells.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(counts.sum()))

    @classmethod
    def from_counts(cls, schema: AttributeSchema, counts: Mapping[int, int]) -> "Population":
        items = sorted(counts.items())
        return cls(
            schema,
            np.array([c for c, _ in items], dtype=np.int64),
            np.array([n for _, n in items], dtype=np.int64),
        )

    @classmethod
    def from_codes(cls, schema: AttributeSchema, codes) -> "Population":
        """Count cell codes, in any order and with repeats, into a population."""
        cells, counts = np.unique(np.asarray(codes, dtype=np.int64), return_counts=True)
        return cls(schema, cells, counts)

    @classmethod
    def from_assignments(
        cls, schema: AttributeSchema, rows: Iterable[Sequence[int]]
    ) -> "Population":
        return cls.from_codes(schema, [encode_cell(schema, row) for row in rows])

    def coords(self) -> np.ndarray:
        """(K, n_support) array of category indices for the stored cells.

        Computed on first use and shared read-only by every later call.
        """
        coords = self.__dict__.get("_coords")
        if coords is None:
            coords = np.array(np.unravel_index(self.cells, self.schema.shape))
            coords.flags.writeable = False
            object.__setattr__(self, "_coords", coords)
        return coords

    def count_of(self, cell: int) -> int:
        i = np.searchsorted(self.cells, cell)
        if i < len(self.cells) and self.cells[i] == cell:
            return int(self.counts[i])
        return 0

    def __len__(self) -> int:
        return self.total


def _require_nonempty(pop: Population, what: str) -> None:
    if pop.total == 0:
        raise ValidationError(f"{what} is undefined on an empty population")


def check_scope(pop: Population, scope: Sequence[int]) -> tuple[int, ...]:
    """``scope`` as a tuple, after checking it names 1-3 distinct attributes
    of a nonempty population."""
    scope = tuple(scope)
    if not 1 <= len(scope) <= MAX_PATTERN_ARITY:
        raise ValidationError("scope must list 1..3 attributes")
    if len(set(scope)) != len(scope):
        raise ValidationError("scope attributes must be distinct")
    for a in scope:
        if not 0 <= a < pop.schema.k:
            raise ValidationError(f"scope attribute index {a} out of range")
    _require_nonempty(pop, "marginal")
    return scope


def check_tolerance(name: str, value: float) -> None:
    """Reject a stopping tolerance no residual can meet or that always holds."""
    if not 0.0 < value < math.inf:  # also false for nan
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


def check_count(name: str, value: int) -> None:
    """Reject an iteration, pass or job count below 1."""
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


def check_seed(name: str, value) -> None:
    """Reject a seed that is not a nonnegative integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")


class _ScopeGroup:
    """The flat table of one attribute scope, in row-major order over the scope."""

    __slots__ = ("scope", "shape", "size", "strides")

    def __init__(self, schema: AttributeSchema, scope: tuple[int, ...]):
        self.scope = scope
        self.shape = tuple(schema.shape[a] for a in scope)
        self.size = math.prod(self.shape)
        self.strides = tuple(math.prod(self.shape[pos + 1:]) for pos in range(len(scope)))

    def keys(self, coords):
        """Flat table entry of ``coords``, indexed by attribute.

        ``coords[a]`` is a category index, or an array of them (one per
        cell), for every attribute ``a`` of the scope.
        """
        return sum(coords[a] * stride for a, stride in zip(self.scope, self.strides))


# index entries per bincount call of scope_counts, so that a batch of many
# scopes over many stored cells is counted in bounded memory
_COUNT_CHUNK = 1 << 18


def scope_counts(pop: Population, scopes: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense count tables of ``pop`` over scopes of one domain shape.

    Returns an array of shape ``(len(scopes), *shape)``: entry ``[s, combo]``
    counts the individuals whose values on ``scopes[s]`` are ``combo``.
    Counts are exact integers held as floats.  Scopes are not validated.
    """
    scopes = np.asarray(scopes, dtype=np.intp)
    group = _ScopeGroup(pop.schema, tuple(scopes[0].tolist()))
    shape, size = group.shape, group.size
    if np.any(np.asarray(pop.schema.shape)[scopes] != shape):
        raise ValidationError("scope_counts needs scopes of one domain shape")
    coords = pop.coords()
    out = np.empty((len(scopes), size))
    step = max(1, _COUNT_CHUNK // max(len(pop.cells), 1))
    for lo in range(0, len(scopes), step):
        block = scopes[lo:lo + step]
        key = np.repeat(np.arange(len(block)) * size, len(pop.cells)).reshape(len(block), -1)
        for p, stride in enumerate(group.strides):
            key += coords[block[:, p]] * stride
        out[lo:lo + step] = np.bincount(
            key.ravel(), weights=np.tile(pop.counts, len(block)), minlength=len(block) * size
        ).reshape(len(block), size)
    return out.reshape(len(scopes), *shape)


def marginal(pop: Population, scope: Sequence[int]) -> MarginalTable:
    """Empirical frequency table of ``pop`` over a 1-3 attribute scope.

    Only combinations observed at least once are stored.
    """
    scope = check_scope(pop, scope)
    sums = scope_counts(pop, [scope])[0]
    cells = {}
    for combo in zip(*np.nonzero(sums)):
        combo = tuple(int(c) for c in combo)
        cells[combo] = float(sums[combo]) / pop.total
    return MarginalTable(scope, cells)


def empirical_frequency(pop: Population, pattern: Pattern) -> float:
    """Fraction of individuals matching ``pattern``."""
    pattern.validate_for(pop.schema)
    _require_nonempty(pop, "empirical frequency")
    coords = pop.coords()
    mask = np.ones(len(pop.cells), dtype=bool)
    for a, v in pattern.fixed:
        mask &= coords[a] == v
    return float(pop.counts[mask].sum()) / pop.total


# ---------------------------------------------------------------------------
# Delimited-text ingestion and emission
# ---------------------------------------------------------------------------

# a line that holds a row: neither blank nor a ``#`` comment
_ROW_LINE = re.compile(r"\s*[^\s#]")


def read_population_text(text: str, schema: AttributeSchema | None = None) -> Population:
    """Parse a delimited population document.

    First non-comment row holds attribute names; remaining rows are one
    individual each, or carry a multiplicity in a final ``__count`` column.
    Comma and tab delimiters are auto-detected from the header.  Domains
    are fixed as the observed values in order of first appearance unless a
    schema is supplied, in which case unseen categories are a hard error.
    A row is one line: a quoted field may hold the delimiter or ``"`` but
    not a line break.  Each distinct line is parsed once, however often it
    repeats.  An error names a row by the first line in ``text`` that
    holds it, comment and blank lines included.
    """
    raw = text.splitlines()
    first = next((n for n, line in enumerate(raw) if _ROW_LINE.match(line)), None)
    if first is None:
        raise ValidationError("population file has no header row")
    # Distinct row lines in order of first appearance, which is the order in
    # which a row-by-row parse would meet their errors.
    occurrences = Counter(raw[first + 1:])
    body = list(filter(_ROW_LINE.match, occurrences))
    # the empty last line shows a quoted field left open on the last row
    reader = csv.reader(itertools.chain([raw[first]], body, [""]),
                        delimiter="\t" if "\t" in raw[first] else ",")
    open_quote = "quoted field runs past the end of its line"

    def line_number(line: str) -> int:
        return raw.index(line, first + 1) + 1

    header = [h.strip() for h in next(reader)]
    if reader.line_num != 1:
        raise ValidationError(f"row {first + 1}: {open_quote}")
    counted = bool(header) and header[-1] == COUNT_COLUMN
    names = header[:-1] if counted else header
    if not names:
        raise ValidationError("population file header has no attribute columns")

    if schema is not None:
        if list(schema.names) != names:
            raise ValidationError(
                f"file attributes {names!r} do not match schema {list(schema.names)!r}"
            )
        lookup = [{label: i for i, label in enumerate(d)} for _, d in schema.attributes]
    else:
        lookup = [{} for _ in names]

    assignments: list[list[int]] = []
    mults: list[int] = []
    for line, row in zip(body, reader):
        if reader.line_num != len(assignments) + 2:
            raise ValidationError(f"row {line_number(line)}: {open_quote}")
        if len(row) != len(header):
            raise ValidationError(f"row {line_number(line)} has {len(row)} fields, "
                                  f"expected {len(header)}")
        if counted:
            count = row[-1].strip()
            try:
                mult = int(count)
            except ValueError:
                raise ValidationError(
                    f"row {line_number(line)}: bad {COUNT_COLUMN} value {count!r}") from None
            if mult < 1:
                raise ValidationError(
                    f"row {line_number(line)}: {COUNT_COLUMN} must be >= 1, got {mult}")
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
                raise ValidationError(f"row {line_number(line)}: unseen category {label!r} "
                                      f"for attribute {names[col]!r}")
        assignments.append(assignment)
        mults.append(mult * occurrences[line])

    if schema is None:
        # each lookup holds its labels in order of first appearance
        schema = AttributeSchema.from_domains(zip(names, lookup))

    codes = cell_codes(schema, np.array(assignments, dtype=np.intp).reshape(-1, schema.k).T)
    cells, inverse = np.unique(codes, return_inverse=True)
    counts = np.zeros(len(cells), dtype=np.int64)
    np.add.at(counts, inverse, np.array(mults, dtype=np.int64))
    return Population(schema, cells.astype(np.int64), counts)


def read_population(path, schema: AttributeSchema | None = None) -> Population:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_population_text(fh.read(), schema)


def population_text(
    pop: Population, counted: bool = True, header_comments: Sequence[str] = ()
) -> str:
    """Serialize a population to the delimited format ingestion accepts.

    Counted form writes one row per occupied cell in canonical cell order
    with a ``__count`` column; uncounted form repeats rows per individual.
    The labels of each attribute are gathered by its coordinates, and every
    row goes out in one ``writerows`` call.
    """
    out = io.StringIO()
    for line in header_comments:
        out.write(f"# {line}\n")
    schema = pop.schema
    writer = csv.writer(out, delimiter=",", lineterminator="\n")
    writer.writerow(list(schema.names) + [COUNT_COLUMN] if counted else schema.names)
    # not pop.coords(): writing a sample out should not keep its coordinates cached
    coords = np.unravel_index(pop.cells, schema.shape)
    if not counted:
        coords = [np.repeat(c, pop.counts) for c in coords]
    columns = [np.array(schema.domain(a), dtype=object)[c].tolist() for a, c in enumerate(coords)]
    writer.writerows(zip(*columns, pop.counts.tolist()) if counted else zip(*columns))
    return out.getvalue()


def write_population(pop: Population, path, counted: bool = True,
                     header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(population_text(pop, counted=counted, header_comments=header_comments))
