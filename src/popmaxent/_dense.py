"""Internal dense-enumeration machinery.

Constraints are grouped by the attribute scope of their patterns.  Every
dual evaluation needs two things from those groups: the per-cell feature
sums (``energies``) and the mass of every pattern under a dense cell
vector (``masses``).  Computing each scope's marginal straight from the
full space costs one pass over every cell per scope group, which on a
16-attribute space with a hundred groups is a hundred passes per call.

Both kernels instead walk one *sum-out tree* over the groups, built once
per layout.  A node holds the groups that share its array; its array
ranges over the union of their scopes (attributes no group at the node
uses are summed out together, in one reduction).  The groups split on the
first attribute, in canonical order, that some but not all of them use:
the branch lacking it sums that axis out once and its groups share the
result.  A node left with one group has reduced to that group's scope.
Each reduction therefore works on an array already shrunk by its
ancestors, and a few full passes serve every group.  This is the summing
step of variable elimination (Koller & Friedman 2009, ch. 9), with the
elimination order fixed by the canonical attribute order.

``energies`` walks the same tree the other way: per-scope multiplier
tables are added up toward the root by broadcasting, and the full space
is materialised once.  Duplicate patterns are supported: their
multipliers accumulate and their masses coincide.

The layout is the one index of the scope tables for fitting, raking,
scoring and the Metropolis chain: a group's ``strides`` and ``keys`` give
the flat table entry of a pattern, of a cell's coordinates or of a
chain's state, and nothing outside this module computes them.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import AttributeSchema, Pattern
from .errors import CapacityError

DEFAULT_ENUM_CAP = 2 ** 24


def check_cap(schema: AttributeSchema, cap: int) -> None:
    if schema.n_cells > cap:
        raise CapacityError(
            f"attribute space has {schema.n_cells} cells, over the enumeration cap "
            f"{cap}; use Metropolis estimation or raise the cap"
        )


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


class _SumOutTree:
    """The sum-out tree over a layout's scope groups, as lists indexed by node.

    Node 0 is the full space; every other node, numbered in depth-first
    preorder, holds an array over the union of its groups' scopes.  Node
    i's array is its parent's summed over the axes ``sum_axes[i]``, and
    ``bshape[i]`` places it back among the parent's axes for broadcasting.
    """

    def __init__(self, shape: tuple[int, ...], groups: list[_ScopeGroup]):
        self.shape = shape
        self.parent = [0]
        self.sum_axes: list[tuple[int, ...]] = [()]
        self.bshape = [shape]
        self.leaf = [0] * len(groups)  # node holding each group's table
        self._build(groups, list(range(len(groups))), tuple(range(len(shape))), 0)
        # in preorder a parent's array is last read by its last child
        self.last_child = {p: node for node, p in enumerate(self.parent) if node}

    def _build(self, groups, members, parent_axes, parent):
        axes = tuple(sorted({a for g in members for a in groups[g].scope}))
        node = len(self.parent)
        self.parent.append(parent)
        self.sum_axes.append(tuple(i for i, a in enumerate(parent_axes) if a not in axes))
        self.bshape.append(tuple(self.shape[a] if a in axes else 1 for a in parent_axes))
        if len(members) == 1:
            self.leaf[members[0]] = node
            return
        split = next(a for a in axes
                     if not all(a in groups[g].scope for g in members))
        for has in (True, False):
            self._build(groups, [g for g in members if (split in groups[g].scope) == has],
                        axes, node)


class ScopeLayout:
    """Scope-grouped incidence between patterns and the enumerated space.

    Patterns must be valid for ``schema`` (:class:`ConstraintSet` checks
    them on construction).
    """

    def __init__(self, schema: AttributeSchema, patterns: Sequence[Pattern]):
        self.schema = schema
        self.groups = [_ScopeGroup(schema, s) for s in sorted({p.scope for p in patterns})]
        index = {g.scope: i for i, g in enumerate(self.groups)}
        # each pattern's group, and its entry in that group's flat table
        self.group_of = np.array([index[p.scope] for p in patterns], dtype=np.int64)
        self.combo = np.array([self.groups[i].keys(dict(p.fixed))
                               for i, p in zip(self.group_of.tolist(), patterns)],
                              dtype=np.int64)
        self._offsets = np.cumsum([0] + [g.size for g in self.groups])
        # pattern j's entry in the concatenation of every group's flat table
        self._keys = self._offsets[self.group_of] + self.combo

    @cached_property
    def _tree(self) -> _SumOutTree:
        return _SumOutTree(self.schema.shape, self.groups)

    def scope_tables(self, lam: np.ndarray) -> list[np.ndarray]:
        """Per-group flat multiplier tables: entry c sums lam_j over patterns at c."""
        flat = np.bincount(self._keys, weights=lam, minlength=int(self._offsets[-1]))
        return np.split(flat, self._offsets[1:-1])

    def energies(self, lam: np.ndarray) -> np.ndarray:
        """Per-cell feature sums sum_j lam_j f_j(x), flat in canonical cell order."""
        if not self.groups:
            return np.zeros(self.schema.n_cells)
        tree = self._tree
        vals: list[np.ndarray | None] = [None] * len(tree.parent)
        for node, table in zip(tree.leaf, self.scope_tables(lam)):
            vals[node] = table
        for node in range(len(tree.parent) - 1, 0, -1):
            parent = tree.parent[node]
            v = vals[node].reshape(tree.bshape[node])
            vals[node] = None
            vals[parent] = v if vals[parent] is None else vals[parent] + v
        full = vals[0]
        if full.shape != self.schema.shape:  # some attribute lies in no scope
            full = np.broadcast_to(full, self.schema.shape).copy()
        return full.ravel()

    def masses(self, dense: np.ndarray) -> np.ndarray:
        """Per-constraint mass of a dense nonnegative cell vector."""
        if not self.groups:
            return np.empty(0)
        tree = self._tree
        vals: list[np.ndarray | None] = [dense.reshape(self.schema.shape)]
        for node in range(1, len(tree.parent)):
            parent, axes = tree.parent[node], tree.sum_axes[node]
            vals.append(vals[parent].sum(axis=axes) if axes else vals[parent])
            if tree.last_child[parent] == node:
                vals[parent] = None
        return np.concatenate([vals[node].ravel() for node in tree.leaf])[self._keys]

    def sparse_masses(self, cells: np.ndarray, weights: np.ndarray, total: float) -> np.ndarray:
        """Per-constraint frequency of a sparse (cells, weights) cell vector.

        Does not require enumerating the space, so it works over the cap.
        """
        if not self.groups:
            return np.empty(0)
        coords = np.unravel_index(np.asarray(cells, dtype=np.int64), self.schema.shape)
        weights = np.asarray(weights, dtype=np.float64)
        sums = [np.bincount(g.keys(coords), weights=weights, minlength=g.size)
                for g in self.groups]
        return np.concatenate(sums)[self._keys] / total
