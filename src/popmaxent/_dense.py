"""Internal dense-enumeration machinery and exact inference on a clique tree.

Every fit and its Newton polish run on ``ScopeLayout.calibrate``: a dual
evaluation, or a complex step of it (the polish's Hessian-vector
product), needs log Z and every pattern's mass under the model, and
neither needs an array over the whole space.  The *clique tree*
(``ScopeLayout.cliques``) eliminates attributes in min-fill order from
the graph joining every two attributes that share a scope (ties go to the
lowest attribute index), keeps the maximal cliques of that elimination,
and joins them by a maximum-weight spanning tree on the number of
attributes they share, which gives the running intersection property.
Constraints are grouped by the attribute scope of their patterns; each
scope group belongs to the smallest clique holding its scope.
``calibrate`` is sum-product calibration (Lauritzen & Spiegelhalter
1988).  Upward, each clique adds its children's log messages to its
log-potential, shifts by the maximum, exponentiates, and sends its
separator marginal, normalised; log Z is the exactly rounded sum
(``math.fsum``) of the shifts and the normalisers.  Downward, each clique
takes its parent's separator marginal over the message it sent (Hugin),
with 0 where that message is 0, and reads its groups' masses off the
result.  No array is larger than the largest clique.  When the min-fill
cliques hold at least as many cells as the space, the tree is the one
clique of every attribute: calibration is then one pass of the dense
kernels below, the same operations in the same order as enumerating the
space.

Within a clique, computing each group's marginal from the clique's array
would cost one pass per group, so a hundred groups would cost a hundred
passes.  Each clique instead walks one *sum-out tree* over its groups,
built once per layout.  A node holds the groups that share its array; its
array ranges over the union of their scopes (attributes no group at the
node uses are summed out together, in one reduction).  The groups split
on the first attribute, in canonical order, that some but not all of
them use: the branch lacking it sums that axis out once and its groups
share the result.  A node left with one group has reduced to that group's
scope.  Each reduction therefore works on an array already shrunk by its
ancestors, and a few full passes serve every group.  This is the summing
step of variable elimination (Koller & Friedman 2009, ch. 9), with the
elimination order fixed by the canonical attribute order.  The tree's
``energies`` walks it the other way: per-scope multiplier tables are
added up toward the root by broadcasting, which builds a clique's
log-potential.  Duplicate patterns are supported: their multipliers
accumulate and their masses coincide.

``ScopeLayout.energies`` and ``ScopeLayout.masses`` run the same kernels
over the whole space, as one clique of every attribute.  No fit calls
them: ``energies`` serves only ``MaxEntModel.probabilities()``,
and ``masses`` only the references in the tests and in perfbench, which
traces both by name; the ROADMAP's open items plan their removal.

The layout is the one index of the scope tables for fitting, raking
and scoring: a group's ``strides`` and ``keys`` give the flat table entry
of a pattern or of a cell's coordinates.  The Metropolis chain reads the
clique tree instead: each clique within the enumeration cap is one table,
its log-potential (``ScopeLayout._log_potential``, the array calibration
starts from), and a clique over the cap falls back to its groups' scope
tables.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import AttributeSchema, Pattern, _ScopeGroup, check_count
from .errors import CapacityError

DEFAULT_ENUM_CAP = 2 ** 24


def check_cap(schema: AttributeSchema, cap: int) -> None:
    check_count("enum_cap", cap)
    if schema.n_cells > cap:
        raise CapacityError(
            f"attribute space has {schema.n_cells} cells, over the enumeration cap "
            f"{cap}, and this step enumerates every cell; raise the cap (enum_cap) "
            "or use fewer attributes or categories"
        )


def check_clique_cap(layout: ScopeLayout, cap: int) -> None:
    check_count("enum_cap", cap)
    largest = layout.cliques.largest
    if largest > cap:
        raise CapacityError(
            f"the largest clique of the scope graph has {largest} cells, over the "
            f"enumeration cap {cap}; use Metropolis estimation or raise the cap"
        )


class _SumOutTree:
    """The sum-out tree over scopes of one array, as lists indexed by node.

    ``scopes`` are sorted tuples of the array's axes.  Node 0 is the whole
    array; every other node, numbered in depth-first preorder, holds an
    array over the union of its scopes.  Node i's array is its parent's
    summed over the axes ``sum_axes[i]``, and ``bshape[i]`` places it back
    among the parent's axes for broadcasting.
    """

    def __init__(self, shape: tuple[int, ...], scopes: list[tuple[int, ...]]):
        self.shape = shape
        self.parent = [0]
        self.sum_axes: list[tuple[int, ...]] = [()]
        self.bshape = [shape]
        self.leaf = [0] * len(scopes)  # node holding each scope's table
        if scopes:
            self._build(scopes, list(range(len(scopes))), tuple(range(len(shape))), 0)
        # in preorder a parent's array is last read by its last child
        self.last_child = {p: node for node, p in enumerate(self.parent) if node}

    def _build(self, scopes, members, parent_axes, parent):
        axes = tuple(sorted({a for g in members for a in scopes[g]}))
        node = len(self.parent)
        self.parent.append(parent)
        self.sum_axes.append(tuple(i for i, a in enumerate(parent_axes) if a not in axes))
        self.bshape.append(tuple(self.shape[a] if a in axes else 1 for a in parent_axes))
        if len(members) == 1:
            self.leaf[members[0]] = node
            return
        split = next(a for a in axes if not all(a in scopes[g] for g in members))
        for has in (True, False):
            self._build(scopes, [g for g in members if (split in scopes[g]) == has],
                        axes, node)

    def energies(self, tables: list[np.ndarray]) -> np.ndarray:
        """The sum of the scopes' flat tables, broadcast over the whole array."""
        vals: list[np.ndarray | None] = [None] * len(self.parent)
        for node, table in zip(self.leaf, tables):
            vals[node] = table
        for node in range(len(self.parent) - 1, 0, -1):
            parent = self.parent[node]
            v = vals[node].reshape(self.bshape[node])
            vals[node] = None
            vals[parent] = v if vals[parent] is None else vals[parent] + v
        full = vals[0]
        if full is None:
            return np.zeros(self.shape)
        if full.shape != self.shape:  # some axis lies in no scope
            full = np.broadcast_to(full, self.shape).copy()
        return full

    def masses(self, array: np.ndarray) -> list[np.ndarray]:
        """Each scope's marginal table of ``array``, in scope order."""
        vals: list[np.ndarray | None] = [array]
        for node in range(1, len(self.parent)):
            parent, axes = self.parent[node], self.sum_axes[node]
            vals.append(np.add.reduce(vals[parent], axis=axes) if axes else vals[parent])
            if self.last_child[parent] == node:
                vals[parent] = None
        return [vals[node] for node in self.leaf]


def _min_fill_cliques(k: int, scopes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Maximal cliques of the scopes' interaction graph, triangulated by min-fill.

    Each step eliminates the attribute whose neighbours lack the fewest
    edges among themselves (ties go to the lowest index), joins those
    neighbours, and records the attribute with its neighbours as a clique.
    """
    nbrs = [set() for _ in range(k)]
    for scope in scopes:
        for a in scope:
            nbrs[a].update(b for b in scope if b != a)

    def fill(v):
        return sum(1 for a, b in itertools.combinations(nbrs[v], 2) if b not in nbrs[a])

    left = set(range(k))
    cliques = []
    while left:
        v = min(left, key=lambda u: (fill(u), u))
        for a in nbrs[v]:
            nbrs[a] |= nbrs[v] - {a}
            nbrs[a].discard(v)
        cliques.append(frozenset(nbrs[v] | {v}))
        left.remove(v)
    # the attribute eliminated with a clique lies in no later one, so cliques are distinct
    return [tuple(sorted(c)) for c in cliques if not any(c < d for d in cliques)]


class _CliqueTree:
    """A calibration tree over a layout's scope groups, as lists indexed by clique.

    Cliques are in the order a maximum-weight spanning tree on separator
    size (attributes shared) grows them from clique 0, so each clique's
    parent comes before it.  Each scope group belongs to the smallest
    clique holding its scope, and each clique has a sum-out tree over its
    own axes for its groups.  Clique c's separator with its parent is
    reached by summing c's array over ``up_axes[c]`` (``up_shape[c]``
    places it among the parent's axes) or the parent's over
    ``down_axes[c]`` (``down_shape[c]`` places it among c's axes).
    """

    def __init__(self, schema: AttributeSchema, groups: list[_ScopeGroup]):
        shape = schema.shape
        cliques = _min_fill_cliques(schema.k, [g.scope for g in groups])
        sizes = [math.prod(shape[a] for a in c) for c in cliques]
        if sum(sizes) >= schema.n_cells:  # the full space is the cheaper tree
            cliques = [tuple(range(schema.k))]
        # Prim: join the clique with the widest separator to the tree so far
        sets = [set(c) for c in cliques]
        order, parent = [0], [-1] * len(cliques)
        best = [(len(s & sets[0]), 0) for s in sets]  # (separator size, clique in the tree)
        rest = set(range(1, len(cliques)))
        while rest:
            c = max(rest, key=lambda d: (best[d][0], -d))
            rest.remove(c)
            order.append(c)
            parent[c] = best[c][1]
            for d in rest:
                shared = len(sets[d] & sets[c])
                if shared > best[d][0]:
                    best[d] = (shared, c)
        position = {c: i for i, c in enumerate(order)}
        self.axes = [cliques[c] for c in order]
        self.parent = [position[parent[c]] if parent[c] >= 0 else -1 for c in order]
        self.sizes = [math.prod(shape[a] for a in axes) for axes in self.axes]
        self.members: list[list[int]] = [[] for _ in self.axes]
        for g, group in enumerate(groups):
            c = min((size, c) for c, (axes, size) in enumerate(zip(self.axes, self.sizes))
                    if set(group.scope) <= set(axes))[1]
            self.members[c].append(g)
        self.trees = [
            _SumOutTree(tuple(shape[a] for a in axes),
                        [tuple(axes.index(a) for a in groups[g].scope) for g in members])
            for axes, members in zip(self.axes, self.members)
        ]
        self.up_axes, self.up_shape, self.down_axes, self.down_shape = [], [], [], []
        for axes, p in zip(self.axes, self.parent):
            pa = self.axes[p] if p >= 0 else ()
            self.up_axes.append(tuple(i for i, a in enumerate(axes) if a not in pa))
            self.up_shape.append(tuple(shape[a] if a in axes else 1 for a in pa))
            self.down_axes.append(tuple(i for i, a in enumerate(pa) if a not in axes))
            self.down_shape.append(tuple(shape[a] if a in pa else 1 for a in axes))

    @property
    def largest(self) -> int:
        """Cells of the largest clique."""
        return max(self.sizes)


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
        self._bounds = list(zip(self._offsets[:-1].tolist(), self._offsets[1:].tolist()))
        # pattern j's entry in the concatenation of every group's flat table
        self._keys = self._offsets[self.group_of] + self.combo

    @cached_property
    def _tree(self) -> _SumOutTree:
        return _SumOutTree(self.schema.shape, [g.scope for g in self.groups])

    @cached_property
    def cliques(self) -> _CliqueTree:
        """The clique tree :meth:`calibrate` runs on, built on first use and kept."""
        return _CliqueTree(self.schema, self.groups)

    def _per_pattern(self, tables) -> np.ndarray:
        """Each pattern's entry of the per-group tables."""
        if not self.groups:
            return np.empty(0)
        return np.concatenate([t.ravel() for t in tables])[self._keys]

    def scope_tables(self, lam: np.ndarray) -> list[np.ndarray]:
        """Per-group flat multiplier tables: entry c sums lam_j over patterns at c."""
        flat = np.bincount(self._keys, weights=lam.real, minlength=int(self._offsets[-1]))
        if np.iscomplexobj(lam):  # bincount takes real weights only
            flat = flat + 1j * np.bincount(self._keys, weights=lam.imag, minlength=flat.size)
        return [flat[start:stop] for start, stop in self._bounds]

    def energies(self, lam: np.ndarray) -> np.ndarray:
        """Per-cell feature sums sum_j lam_j f_j(x), flat in canonical cell order."""
        return self._tree.energies(self.scope_tables(lam)).ravel()

    def masses(self, dense: np.ndarray) -> np.ndarray:
        """Per-constraint mass of a dense nonnegative cell vector."""
        return self._per_pattern(self._tree.masses(dense.reshape(self.schema.shape)))

    def _log_potential(self, c: int, tables: list[np.ndarray]) -> np.ndarray:
        """Clique c's log-potential: its groups' :meth:`scope_tables` summed over its axes."""
        cliques = self.cliques
        return cliques.trees[c].energies([tables[g] for g in cliques.members[c]])

    def calibrate(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        """log Z and every pattern's mass under exp(energies(lam)) / Z, on :attr:`cliques`.

        No array is larger than the largest clique.  A complex ``lam`` (the
        polish's complex step) gives complex masses and the real part of log Z.
        """
        cliques = self.cliques
        tables = self.scope_tables(lam)
        logs = [np.asarray(self._log_potential(c, tables), dtype=lam.dtype)
                for c in range(len(cliques.axes))]  # a scopeless clique's zeros too
        beliefs: list[np.ndarray] = [None] * len(logs)
        sent: list[np.ndarray] = [None] * len(logs)
        log_scales = []  # summed exactly into log Z at the end
        for c in range(len(logs) - 1, -1, -1):  # upward: children before parents
            shift = logs[c].real.max()
            beliefs[c] = np.exp(logs[c] - shift)
            log_scales.append(shift)
            if c == 0:
                break
            sent[c] = beliefs[c].sum(axis=cliques.up_axes[c])
            scale = sent[c].sum()
            log_scales.append(math.log(scale.real))
            with np.errstate(divide="ignore"):  # an empty slice sends log 0
                message = np.log(sent[c] / scale)
            logs[cliques.parent[c]] += message.reshape(cliques.up_shape[c])
        z = beliefs[0].sum()
        log_scales.append(math.log(z.real))
        beliefs[0] /= z
        for c in range(1, len(logs)):  # downward (Hugin): parents before children
            marginal = beliefs[cliques.parent[c]].sum(axis=cliques.down_axes[c])
            ratio = np.divide(marginal, sent[c], out=np.zeros_like(sent[c]),
                              where=sent[c].real > 0)
            beliefs[c] *= ratio.reshape(cliques.down_shape[c])
        per_group: list[np.ndarray] = [None] * len(self.groups)
        for sum_out, members, belief in zip(cliques.trees, cliques.members, beliefs):
            for g, table in zip(members, sum_out.masses(belief)):
                per_group[g] = table
        return math.fsum(log_scales), self._per_pattern(per_group)

    def sparse_masses(self, cells: np.ndarray, weights: np.ndarray, total: float) -> np.ndarray:
        """Per-constraint frequency of a sparse (cells, weights) cell vector.

        Does not require enumerating the space, so it works over the cap.
        """
        if not self.groups:
            return np.empty(0)
        coords = np.unravel_index(np.asarray(cells, dtype=np.int64), self.schema.shape)
        weights = np.asarray(weights, dtype=np.float64)
        return self._per_pattern([g.counts(coords, weights) for g in self.groups]) / total
