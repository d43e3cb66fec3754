"""Finite well-founded trees with the derivative / rank / tau calculus.

A tree is a finite poset in which every ancestor set is a chain, stored as
its parent map: sorted integer ids and, aligned with them, each node's
parent.  A subtree is an id-subset carrying the induced order, so node
identities survive every selection and expressions like
``Q & (P^i \\ P^(i+1))`` are literal set intersections.  The rank is the
longest chain and tau(t) the longest chain strictly above t, i.e. the
height of t, found in one pass that pushes heights up the parents from
the leaves; the z-th derivative P^z is {t : tau(t) >= z}.  The pass that
validates a parent map also builds the children lists and the top-down
order that this push reads; a restriction climbs from the kept nodes only.
Descendant lists come from climbing the parents; ancestor sets are a
derived view, built only for ``ancestors``.
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class TreeError(ValueError):
    pass


def exact_int(value) -> int:
    """The value if it is an int, not a float, string or bool that int() coerces."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


class FiniteTree:
    """Sorted ids and, aligned with them, each node's parent (None at a root).

    A tree is its parent map: two trees are equal when their ids and
    parents are, whatever each has cached."""

    def __init__(self, ids: tuple[int, ...], parents: tuple[int | None, ...]):
        self.ids, self.parents = ids, parents
        self.__post_init__()

    def __post_init__(self) -> None:
        """Nothing to check: the public constructors validate the parent map
        (``from_parents``), and a tree derived from a valid one is built
        from a parent map that is valid by construction (``_of_valid``)."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ids == other.ids and self.parents == other.parents

    def __hash__(self) -> int:
        return hash((self.ids, self.parents))

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_parents(parent: Mapping[int, int | None]) -> "FiniteTree":
        """The tree of a parent map; an unknown parent or a cycle is an error.

        Building the children lists and the breadth-first order from the
        roots is the check: a node left out of that order has an unknown
        parent or sits on a cycle, and the error names what the least such
        node meets as it climbs.  The lists and the order stay on the tree."""
        ids = tuple(sorted(parent))
        tree = FiniteTree(ids, tuple(map(parent.__getitem__, ids)))
        if len(tree._topdown) < len(ids):
            reached = set(tree._topdown)
            s, path = next(t for t in ids if t not in reached), set()
            while s not in path:
                path.add(s)
                if parent[s] not in parent:
                    raise TreeError(f"parent {parent[s]} of node {s} is not a node")
                s = parent[s]
            raise TreeError(f"parent cycle through node {s}")
        return tree

    @staticmethod
    def _of_valid(ids: Sequence[int], parents: Sequence[int | None]) -> "FiniteTree":
        """The tree of sorted ids and their parents, known to form a forest;
        nothing is checked."""
        return FiniteTree(tuple(ids), tuple(parents))

    @staticmethod
    def chain_tree(n: int, start: int = 0) -> "FiniteTree":
        """Single chain start < start+1 < ... of n nodes."""
        return FiniteTree.from_parents(
            {start + i: (start + i - 1 if i else None) for i in range(n)})

    @staticmethod
    def antichain(n: int, start: int = 0) -> "FiniteTree":
        return FiniteTree.from_parents({start + i: None for i in range(n)})

    @staticmethod
    def empty() -> "FiniteTree":
        return FiniteTree.from_parents({})

    def restrict(self, keep: Iterable[int]) -> "FiniteTree":
        """Subtree on an id subset with the induced order: a kept node's
        parent is its nearest kept ancestor.  Each kept node climbs to it and
        every node passed remembers it, so no node is passed twice."""
        ids, up = sorted(set(keep)), self._up
        extra = [t for t in ids if t not in up]
        if extra:
            raise TreeError(f"unknown node ids {extra}")
        at: dict[int | None, int | None] = dict(zip(ids, ids))  # nearest kept node at or above
        at[None] = None
        parents = []
        for t in ids:
            s = up[t]
            if s not in at:
                passed = []
                while s not in at:
                    passed.append(s)
                    s = up[s]
                at.update(dict.fromkeys(passed, at[s]))
            parents.append(at[s])
        return FiniteTree._of_valid(ids, parents)

    # -- basic structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, t: int) -> bool:
        return t in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {t: i for i, t in enumerate(self.ids)}

    @cached_property
    def _kids(self) -> dict[int, list[int]]:
        """Children of each node, in id order; a parent that is not a node is skipped."""
        kids: dict[int, list[int]] = {t: [] for t in self.ids}
        for t, p in zip(self.ids, self.parents):
            if p in kids:
                kids[p].append(t)
        return kids

    @cached_property
    def _topdown(self) -> list[int]:
        """Every node after its parent (breadth first from the roots)."""
        order, kids = list(self.roots()), self._kids
        for t in order:
            order.extend(kids[t])
        return order

    @cached_property
    def anc(self) -> tuple[frozenset[int], ...]:
        """Strict ancestors of each node in id order (n * depth ints, built on
        demand and read only by ``ancestors``)."""
        above: dict[int, frozenset[int]] = dict.fromkeys(self.roots(), frozenset())
        for t in self._topdown:
            with_t = above[t] | {t}
            for c in self._kids[t]:
                above[c] = with_t
        return tuple(above[t] for t in self.ids)

    def ancestors(self, t: int) -> frozenset[int]:
        """Strict ancestors of t (always a chain)."""
        return self.anc[self._node(t)]

    def _node(self, t: int) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise TreeError(f"node {t} is not in the tree") from None

    @cached_property
    def _up(self) -> dict[int, int | None]:
        """The parent of each node, by id."""
        return dict(zip(self.ids, self.parents))

    @cached_property
    def _below(self) -> dict[int, list[int]]:
        """Strict descendants of each node, in id order: each node, taken in
        id order, climbs the parents and joins the list of every ancestor.
        The lists are shared with every reader, who must not change them."""
        up = self._up
        out: dict[int, list[int]] = {t: [] for t in self.ids}
        for t in self.ids:
            s = up[t]
            while s is not None:
                out[s].append(t)
                s = up[s]
        return out

    def descendants(self, t: int) -> frozenset[int]:
        self._node(t)
        return frozenset(self._below[t])

    def parent(self, t: int) -> int | None:
        """Nearest ancestor inside this tree, if any."""
        return self.parents[self._node(t)]

    def children(self, t: int) -> tuple[int, ...]:
        return tuple(self._kids.get(t, ()))

    def roots(self) -> tuple[int, ...]:
        return tuple(t for t, p in zip(self.ids, self.parents) if p is None)

    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t in self.ids if not self._kids[t])

    # -- derivatives and rank --------------------------------------------------

    @cached_property
    def tau_map(self) -> dict[int, int]:
        """tau(s) = the longest chain strictly above s: 0 at a leaf, else one
        more than the largest tau of a child.  Each node, leaves first, pushes
        its final tau up to its parent."""
        up = self._up
        taus = dict.fromkeys(self.ids, 0)
        for t in reversed(self._topdown):
            p = up[t]
            if p is not None and taus[p] <= taus[t]:
                taus[p] = taus[t] + 1
        return taus

    def rank(self) -> int:
        """The length of the longest chain."""
        return 1 + max(self.tau_map.values(), default=-1)

    def iterated_derivative(self, z: int) -> "FiniteTree":
        """P^z: the nodes with tau >= z."""
        if z < 0:
            raise TreeError("derivative order must be non-negative")
        taus = self.tau_map
        return self.restrict(t for t in self.ids if taus[t] >= z)

    def derivative(self) -> "FiniteTree":
        """Remove the maximal nodes."""
        return self.iterated_derivative(1)

    def tau(self, t: int) -> int:
        self._node(t)
        return self.tau_map[t]

    # -- closures and local subtrees --------------------------------------------

    def downward_closure(self, m: Iterable[int]) -> frozenset[int]:
        keep: set[int] = set()
        for t in m:
            while t is not None and t not in keep:
                keep.add(t)
                t = self.parent(t)
        return frozenset(keep)

    def is_downward_closed(self, m: Iterable[int]) -> bool:
        ms = frozenset(m)
        return self.downward_closure(ms) == ms

    def subtree_at(self, t: int, strict: bool = False) -> "FiniteTree":
        """P(t) when strict, else P[t]."""
        below = self.descendants(t)
        return self.restrict(below if strict else below | {t})

    # -- tuple families -----------------------------------------------------------

    def chains(self, n: int) -> Iterator[tuple[int, ...]]:
        """Strictly increasing n-tuples t0 < ... < t(n-1), id-lexicographic."""
        if n < 0:
            raise TreeError("n must be non-negative")
        if n == 0:
            yield ()
            return
        stack = [(t,) for t in reversed(self.ids)]
        while stack:
            prefix = stack.pop()
            if len(prefix) == n:
                yield prefix
            else:
                stack.extend(prefix + (t,) for t in reversed(self._below[prefix[-1]]))

    def leaf_chains(self, n: int) -> Iterator[tuple[int, ...]]:
        """Tuples (t0 < ... < t(n-1) <= tn) with tn a leaf; n = 0 gives leaves."""
        if n == 0:
            yield from ((t,) for t in self.leaves())
            return
        below = self._below
        for chain in self.chains(n):
            top = chain[-1]
            tips = [s for s in below[top] if not below[s]] if below[top] else [top]
            yield from (chain + (leaf,) for leaf in tips)

    def ordered_pairs(self) -> Iterator[tuple[int, int]]:
        """All (s, t) with s < t in the tree order, id-lexicographic."""
        below = self._below
        return ((s, t) for s in self.ids for t in below[s])

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "nodes": [{"id": t, "parent": p} for t, p in zip(self.ids, self.parents)],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteTree":
        if not isinstance(data, dict) or data.get("schema_version", 1) != 1:
            raise TreeError("malformed tree document: not an object with schema_version 1")
        try:
            nodes = data["nodes"]
            parent = {(i if type(i := n["id"]) is int else exact_int(i)):
                      (None if (p := n["parent"]) is None else p if type(p) is int else exact_int(p))
                      for n in nodes}
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeError(f"malformed tree document: {exc}") from exc
        if len(parent) != len(nodes):
            raise TreeError(f"duplicate node ids: {len(nodes)} nodes, {len(parent)} distinct ids")
        return FiniteTree.from_parents(parent)

    @staticmethod
    def load(path: str) -> "FiniteTree":
        with open(path) as fh:
            return FiniteTree.from_json(json.load(fh))


def incomparable_union(parts: Sequence[FiniteTree]) -> FiniteTree:
    """Disjoint forest of the parts.

    Id sets that collide are shifted to fresh consecutive ranges, in part
    order; disjoint inputs keep their ids so subtrees of a common ambient
    tree can be reunited in place.
    """
    total = sum(len(p) for p in parts)
    disjoint = total == len(set().union(*(p.ids for p in parts)))
    offset = 0
    parent: dict[int, int | None] = {}
    for part in parts:
        if not part.ids:
            continue
        shift = 0 if disjoint else offset - part.ids[0]
        for t, p in zip(part.ids, part.parents):
            parent[t + shift] = None if p is None else p + shift
        offset = max(offset, part.ids[-1] + shift + 1)
    return FiniteTree.from_parents(parent)


def graft(base: FiniteTree, attach: Mapping[int, FiniteTree]) -> FiniteTree:
    """Hang one tree of uniform rank z below every leaf of ``base``.

    The result has rank z + rank(base) and its z-th derivative is ``base``.
    All attachments must be present and have equal rank; rank-0 (empty)
    attachments leave the base unchanged.
    """
    leaves = base.leaves()
    missing = [t for t in leaves if t not in attach]
    if missing:
        raise TreeError(f"no attachment for leaves {missing}")
    ranks = {attach[t].rank() for t in leaves}
    if len(ranks) > 1:
        raise TreeError(f"attachments must share one rank, got {sorted(ranks)}")
    if not leaves or ranks == {0}:
        return base
    parent = dict(zip(base.ids, base.parents))
    fresh = base.ids[-1] + 1
    for leaf in leaves:
        part = attach[leaf]
        if parent.keys().isdisjoint(part.ids):
            remap = {t: t for t in part.ids}
        else:
            # collision: move the whole attachment to a fresh id range
            remap = {t: fresh + i for i, t in enumerate(part.ids)}
        for t, p in zip(part.ids, part.parents):
            parent[remap[t]] = leaf if p is None else remap[p]
        fresh = max(fresh, remap[part.ids[-1]] + 1)
    return FiniteTree.from_parents(parent)


class LevelDecomposition(NamedTuple):
    """Partition of a tree into its tau classes: block i holds the nodes
    with tau i."""

    tree: FiniteTree
    blocks: tuple[frozenset[int], ...]


def levels(tree: FiniteTree) -> LevelDecomposition:
    """Split ``tree`` into its tau classes."""
    blocks: list[list[int]] = [[] for _ in range(tree.rank())]
    taus = tree.tau_map
    for t in tree.ids:
        blocks[taus[t]].append(t)
    return LevelDecomposition(tree, tuple(map(frozenset, blocks)))


def select_level_subset(tree: FiniteTree, picked: Iterable[int]) -> FiniteTree:
    """Union of the chosen tau classes; empty selection warns and yields the
    empty tree (the empty-sum convention)."""
    chosen = set(picked)
    if not chosen:
        warnings.warn("empty level selection yields the empty tree", stacklevel=2)
        return tree.restrict(())
    r = tree.rank()
    bad = sorted(i for i in chosen if not 0 <= i < r)
    if bad:
        raise TreeError(f"levels {bad} outside 0..{r - 1}")
    taus = tree.tau_map
    return tree.restrict(t for t in tree.ids if taus[t] in chosen)
