"""Finite well-founded trees with the derivative / rank / tau calculus.

A tree is a finite poset in which every ancestor set is a chain.  Nodes are
integer ids; a subtree is an id-subset carrying the induced order, so node
identities survive every selection and expressions like
``Q & (P^i \\ P^(i+1))`` are literal set intersections.  The rank is the
longest chain and tau(t) the longest chain strictly above t, both read off
ancestor-set sizes in one pass; the z-th derivative P^z is {t : tau(t) >= z}.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


class TreeError(ValueError):
    pass


def exact_int(value) -> int:
    """The value if it is an int, not a float, string or bool that int() coerces."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


@dataclass(frozen=True)
class FiniteTree:
    """ids, plus for each id the frozenset of its strict ancestors."""

    ids: tuple[int, ...]
    anc: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.anc) != len(self.ids):
            raise TreeError("one ancestor set per node required")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise TreeError("node ids must be strictly increasing")
        members = frozenset(self.ids)
        for t, above in zip(self.ids, self.anc):
            if not above <= members or t in above:
                raise TreeError(f"ancestor set of node {t} escapes the tree")

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_parents(parent: Mapping[int, int | None]) -> "FiniteTree":
        ids = tuple(sorted(parent))
        chains: dict[int, frozenset[int]] = {}
        for t in ids:
            # climb to a known node or a root, then fill the path top-down
            path: dict[int, int | None] = {}
            s: int | None = t
            while s is not None and s not in chains:
                if s in path:
                    raise TreeError(f"parent cycle through node {s}")
                p = path[s] = parent[s]
                if p is not None and p not in parent:
                    raise TreeError(f"parent {p} of node {s} is not a node")
                s = p
            for u, p in reversed(path.items()):
                chains[u] = frozenset() if p is None else chains[p] | {p}
        return FiniteTree(ids, tuple(chains[t] for t in ids))

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
        return FiniteTree((), ())

    def restrict(self, keep: Iterable[int]) -> "FiniteTree":
        """Subtree on an id subset with the induced order."""
        keep_set = frozenset(keep)
        extra = keep_set - self._index.keys()
        if extra:
            raise TreeError(f"unknown node ids {sorted(extra)}")
        ids = tuple(t for t in self.ids if t in keep_set)
        return FiniteTree(ids, tuple(self.anc[self._index[t]] & keep_set for t in ids))

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

    def ancestors(self, t: int) -> frozenset[int]:
        """Strict ancestors of t (always a chain)."""
        return self.anc[self._node(t)]

    def _node(self, t: int) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise TreeError(f"node {t} is not in the tree") from None

    def less(self, s: int, t: int) -> bool:
        return s in self.anc[self._node(t)]

    def leq(self, s: int, t: int) -> bool:
        return s == t or self.less(s, t)

    def comparable(self, s: int, t: int) -> bool:
        return s == t or self.less(s, t) or self.less(t, s)

    @cached_property
    def _below(self) -> dict[int, tuple[int, ...]]:
        """Strict descendants of each node, in id order."""
        out: dict[int, list[int]] = {t: [] for t in self.ids}
        for t, above in zip(self.ids, self.anc):
            for s in above:
                out[s].append(t)
        return {t: tuple(v) for t, v in out.items()}

    @cached_property
    def _parents(self) -> dict[int, int | None]:
        """The parent is the ancestor with the most ancestors."""
        depth = dict(zip(self.ids, map(len, self.anc)))
        return {t: max(above, key=depth.__getitem__, default=None)
                for t, above in zip(self.ids, self.anc)}

    def descendants(self, t: int) -> frozenset[int]:
        self._node(t)
        return frozenset(self._below[t])

    def parent(self, t: int) -> int | None:
        """Nearest ancestor inside this tree, if any."""
        self._node(t)
        return self._parents[t]

    def children(self, t: int) -> tuple[int, ...]:
        return tuple(s for s in self._below.get(t, ()) if self._parents[s] == t)

    def roots(self) -> tuple[int, ...]:
        return tuple(t for t, a in zip(self.ids, self.anc) if not a)

    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t in self.ids if not self._below[t])

    # -- derivatives and rank --------------------------------------------------

    @cached_property
    def tau_map(self) -> dict[int, int]:
        """tau(s) = the longest chain strictly above s = max over leaves t >= s
        of |anc(t)| - |anc(s)|, since ancestor sets are chains."""
        depth = dict(zip(self.ids, map(len, self.anc)))
        taus = dict.fromkeys(self.ids, 0)
        for t in self.leaves():
            for s in self.ancestors(t):
                taus[s] = max(taus[s], depth[t] - depth[s])
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

    def tau_beta(self, beta: int, t: int) -> int:
        if beta < 1:
            raise TreeError("beta must be at least 1")
        return self.tau(t) // beta

    # -- closures and local subtrees --------------------------------------------

    def downward_closure(self, m: Iterable[int]) -> frozenset[int]:
        keep: set[int] = set()
        for t in m:
            keep.add(t)
            keep |= self.ancestors(t)
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

    def pairs_to_leaf(self) -> Iterator[tuple[int, int]]:
        """(s, t) with s <= t and t a leaf."""
        return self.leaf_chains(1)  # type: ignore[return-value]

    def ordered_pairs(self) -> Iterator[tuple[int, int]]:
        """All (s, t) with s < t in the tree order."""
        return self.chains(2)  # type: ignore[return-value]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "nodes": [{"id": t, "parent": self.parent(t)} for t in self.ids],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteTree":
        if not isinstance(data, dict) or data.get("schema_version", 1) != 1:
            raise TreeError("malformed tree document: not an object with schema_version 1")
        try:
            nodes = data["nodes"]
            parent = {exact_int(n["id"]): (None if n["parent"] is None else exact_int(n["parent"]))
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
    if not parts:
        return FiniteTree.empty()
    total = sum(len(p) for p in parts)
    disjoint = total == len(set().union(*(set(p.ids) for p in parts)))
    offset = 0
    ids: list[int] = []
    anc: list[frozenset[int]] = []
    for part in parts:
        if disjoint:
            shift = 0
        else:
            shift = offset - (min(part.ids) if part.ids else 0)
        for t, a in zip(part.ids, part.anc):
            ids.append(t + shift)
            anc.append(frozenset(s + shift for s in a))
        if part.ids:
            offset = max(offset, max(t + shift for t in part.ids) + 1)
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    return FiniteTree(tuple(ids[i] for i in order), tuple(anc[i] for i in order))


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
    ids = list(base.ids)
    anc = list(base.anc)
    used = set(base.ids)
    fresh = (max(used) + 1) if used else 0
    for leaf in leaves:
        part = attach[leaf]
        if used & set(part.ids):
            # collision: move the whole attachment to a fresh id range
            remap = {t: fresh + i for i, t in enumerate(part.ids)}
        else:
            remap = {t: t for t in part.ids}
        below = base.ancestors(leaf) | {leaf}
        for t, above in zip(part.ids, part.anc):
            ids.append(remap[t])
            anc.append(frozenset(remap[s] for s in above) | below)
        used |= set(remap.values())
        fresh = max(used) + 1
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    return FiniteTree(tuple(ids[i] for i in order), tuple(anc[i] for i in order))


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of a tree into bands of consecutive tau values.

    boundaries[i] <= tau < boundaries[i+1] puts a node in block i; for the
    all-ones summand list the blocks are exactly the tau classes.
    """

    tree: FiniteTree
    boundaries: tuple[int, ...]
    blocks: tuple[frozenset[int], ...]

    @property
    def count(self) -> int:
        return len(self.blocks)

    def level_of(self, t: int) -> int:
        tau = self.tree.tau(t)
        for i in range(self.count):
            if self.boundaries[i] <= tau < self.boundaries[i + 1]:
                return i
        raise TreeError(f"tau {tau} outside every level")  # pragma: no cover


def levels(tree: FiniteTree, summands: Sequence[int] | None = None) -> LevelDecomposition:
    """Split ``tree`` into blocks whose ranks are the declared summands."""
    r = tree.rank()
    if summands is None:
        summands = [1] * r
    if any(s < 1 for s in summands):
        raise TreeError("summands must be positive")
    if sum(summands) != r:
        raise TreeError(f"summands {list(summands)} do not add up to rank {r}")
    bounds = [0]
    for s in summands:
        bounds.append(bounds[-1] + s)
    taus = tree.tau_map
    blocks = tuple(
        frozenset(t for t in tree.ids if bounds[i] <= taus[t] < bounds[i + 1])
        for i in range(len(summands)))
    return LevelDecomposition(tree, tuple(bounds), blocks)


def select_level_subset(tree: FiniteTree, picked: Iterable[int]) -> FiniteTree:
    """Union of the chosen tau classes; empty selection warns and yields the
    empty tree (the empty-sum convention)."""
    chosen = sorted(set(picked))
    if not chosen:
        warnings.warn("empty level selection yields the empty tree", stacklevel=2)
        return tree.restrict(())
    r = tree.rank()
    bad = [i for i in chosen if not 0 <= i < r]
    if bad:
        raise TreeError(f"levels {bad} outside 0..{r - 1}")
    taus = tree.tau_map
    return tree.restrict(t for t in tree.ids if taus[t] in chosen)
