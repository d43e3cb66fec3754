"""Symbolic trees of strictly decreasing ordinal sequences.

``CanonicalTree(alpha, beta)`` is the tree of non-empty sequences
``x0 > x1 > ... > xn`` with ``beta > x0`` and ``xn >= alpha``, ordered by
sequence extension.  Its derivative calculus is pure ordinal arithmetic:
the z-th derivative bumps ``alpha`` by z, so tau of a node is read off its
last entry and no finite materialization is ever required for exactness.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    compare,
    descend_below,
    factorize,
    is_additively_indecomposable,
    left_divide,
    left_subtract,
    ordinal,
    parse_ordinal,
)
from .tree_core import FiniteTree


class CanonicalError(ValueError):
    pass


CanonicalNode = tuple[Ordinal, ...]


def node_from_text(text: str) -> CanonicalNode:
    """Parse a comma-separated list of ordinal expressions."""
    entries = tuple(parse_ordinal(part) for part in text.split(","))
    for a, b in zip(entries, entries[1:]):
        if compare(b, a) >= 0:
            raise CanonicalError(f"entries must strictly decrease: {text!r}")
    return entries


def node_to_text(node: CanonicalNode) -> str:
    return ", ".join(str(e) for e in node)


class CanonicalTree:
    def __init__(self, alpha: Ordinal, beta: Ordinal):
        self.alpha, self.beta = alpha, beta

    @staticmethod
    def of(alpha: "Ordinal | int", beta: "Ordinal | int") -> "CanonicalTree":
        return CanonicalTree(ordinal(alpha), ordinal(beta))

    @property
    def is_empty(self) -> bool:
        return compare(self.alpha, self.beta) >= 0

    def __contains__(self, node: CanonicalNode) -> bool:
        if not node:
            return False
        node = tuple(map(ordinal, node))  # entries may be given as ints
        return compare(node[0], self.beta) < 0 and self._continues(node, 1)

    def _continues(self, node: CanonicalNode, k: int) -> bool:
        """Whether the entries of the node from index k on continue its
        first k inside the tree: each below the one before, the last at
        least alpha."""
        if node[-1]._key < self.alpha._key:
            return False
        for i in range(k, len(node)):
            if not node[i]._key < node[i - 1]._key:
                return False
        return True

    def _require(self, node: CanonicalNode, known: int = 0) -> None:
        """Raise unless the node is a member; when its first ``known``
        entries are known to form one, only the entries after them are
        checked."""
        if not (self._continues(node, known) if known else node in self):
            raise CanonicalError(f"node ({node_to_text(node)}) is not in {self}")

    def __str__(self) -> str:
        return f"I({self.alpha}, {self.beta})"


def rank_symbolic(tree: CanonicalTree) -> Ordinal:
    """The unique z with alpha + z = beta; 0 when the tree is empty."""
    if tree.is_empty:
        return ZERO
    return left_subtract(tree.alpha, tree.beta)


def node_tau(tree: CanonicalTree, node: CanonicalNode) -> Ordinal:
    """Highest derivative containing the node: its last entry minus alpha."""
    tree._require(node)
    return left_subtract(tree.alpha, node[-1])


def require_below(s: CanonicalNode, t: CanonicalNode) -> None:
    """Raise unless s < t, that is, s is a proper prefix of t."""
    if len(s) >= len(t) or tuple(t[: len(s)]) != tuple(s):
        raise CanonicalError("separation needs s < t (s a proper prefix of t)")


class NodeFacts(NamedTuple):
    """What a pair colour reads of one node: its tau, its depth, and its
    block signature ``sig``, the block of tau at each layer of ``rank``.
    Where separation is undefined, ``sig`` is the reason instead."""

    tau: Ordinal
    depth: int
    rank: Ordinal
    sig: "tuple[Ordinal, ...] | str"


def tau_facts(rank: Ordinal, tau: Ordinal, depth: int = 0, why: str | None = None) -> NodeFacts:
    """The facts of tau under ``rank``: its quotient by each prefix product
    ``factorize(rank).factors[i]``, unless separation is undefined."""
    if why is None and not is_additively_indecomposable(rank):
        why = f"separation needs an additively indecomposable rank, got {rank}"
    return NodeFacts(tau, depth, rank,
                     why or tuple(left_divide(a, tau)[0] for a in factorize(rank).factors))


def separation_of_facts(s: NodeFacts, t: NodeFacts) -> int:
    """Least layer at which the two block signatures agree; blocks are
    interned ordinals, so agreement is identity."""
    if isinstance(s.sig, str):
        raise CanonicalError(s.sig)
    for i, (a, b) in enumerate(zip(s.sig, t.sig)):
        if a is b:
            return i
    raise CanonicalError(f"taus {s.tau}, {t.tau} do not meet below rank {s.rank}")


def separation_of_taus(gamma: Ordinal, tau_s: Ordinal, tau_t: Ordinal) -> int:
    """Least i whose prefix product ``factorize(gamma).factors[i]`` puts the
    two tau values in one block; gamma must be additively indecomposable."""
    return separation_of_facts(tau_facts(gamma, tau_s), tau_facts(gamma, tau_t))


def _separation_undefined(tree: CanonicalTree) -> str | None:
    if not tree.alpha.is_zero:
        return "separation is defined on trees with alpha = 0"
    if tree.beta == ONE:
        return "rank 1 trees have no comparable pairs"
    return None


def node_facts(tree: CanonicalTree, nodes: Iterable[CanonicalNode]) -> list[NodeFacts]:
    """The facts of each node, checking its membership once."""
    why = _separation_undefined(tree)
    return [tau_facts(tree.beta, node_tau(tree, node), len(node), why) for node in nodes]


def window_facts(tree: CanonicalTree, nodes: Sequence[CanonicalNode],
                 parents: Sequence[int | None]) -> list[NodeFacts]:
    """``node_facts(tree, nodes)`` for the nodes of a window, where
    ``parents[i]`` is the index of node i's parent, listed before it.

    A node that extends its parent is checked on the entries it adds below
    it, any other node in full, so a membership error names the same first
    node; nodes with one last entry and depth share one record, and the
    block signature is computed once per tau.  After every membership check,
    a node beside its parent raises ``require_below``'s error, so every
    window pair s < t has s a proper prefix of t."""
    why = _separation_undefined(tree)
    alpha, beta = tree.alpha, tree.beta
    sigs: dict[int, tuple[Ordinal, ...] | str] = {}  # by tau serial
    records: dict[tuple[int, int], NodeFacts] = {}  # by (last entry serial, depth)
    out: list[NodeFacts] = []
    beside = None  # the first (parent, node) where the node does not extend it
    for node, p in zip(nodes, parents):
        above = () if p is None else nodes[p]
        k = len(above)
        extends = 0 < k < len(node) and node[:k] == above
        if beside is None and p is not None and not extends:
            beside = above, node
        tree._require(node, k if extends else 0)
        key = (node[-1]._serial, len(node))
        if key not in records:
            tau = left_subtract(alpha, node[-1])
            if tau._serial not in sigs:
                sigs[tau._serial] = tau_facts(beta, tau, why=why).sig
            records[key] = NodeFacts(tau, len(node), beta, sigs[tau._serial])
        out.append(records[key])
    if beside:
        require_below(*beside)
    return out


def pair_facts(tree: CanonicalTree, s: CanonicalNode,
               t: CanonicalNode) -> tuple[NodeFacts, NodeFacts]:
    """The facts of a pair s < t, checking s < t and both memberships."""
    require_below(s, t)
    return tuple(node_facts(tree, (s, t)))


def separation(tree: CanonicalTree, s: CanonicalNode, t: CanonicalNode) -> int:
    """Separation index of a comparable pair s < t.

    Defined for trees starting at 0 whose rank is additively indecomposable
    and greater than 1; always lands in range(number of layers).
    """
    why = _separation_undefined(tree)
    if why:
        raise CanonicalError(why)
    return separation_of_facts(*pair_facts(tree, s, t))


class Truncation(NamedTuple):
    """Finite window onto a canonical tree.

    ``complete[i]`` marks nodes whose full child set made it into the
    window, so derivative-style checks know where the boundary distorts.
    """

    tree: FiniteTree
    source: CanonicalTree
    to_node: dict[int, CanonicalNode]
    complete: dict[int, bool]

    def node_of(self, i: int) -> CanonicalNode:
        return self.to_node[i]


def _full_child_count(bound: Ordinal, floor: Ordinal) -> int | None:
    """Size of [floor, bound) when finite, else None."""
    if compare(bound, floor) <= 0:
        return 0
    gap = left_subtract(floor, bound)
    return gap.as_int() if gap.is_finite else None


def truncate(tree: CanonicalTree, depth: int, width: int) -> Truncation:
    """Materialize a finite window, sampling children along the canonical
    descending walk (predecessors, with jumps into fundamental sequences)."""
    if depth < 1 or width < 1:
        raise CanonicalError("depth and width must be at least 1")
    parents: dict[int, int | None] = {}
    to_node: dict[int, CanonicalNode] = {}
    complete: dict[int, bool] = {}

    def emit(node: CanonicalNode, parent: int | None) -> int:
        i = len(to_node)
        parents[i] = parent
        to_node[i] = node
        return i

    def expand(node: CanonicalNode, me: int, level: int) -> None:
        bound = node[-1]
        count = _full_child_count(bound, tree.alpha)
        if level >= depth:
            complete[me] = count == 0
            return
        kids = descend_below(bound, width, tree.alpha)
        complete[me] = count is not None and count <= width
        for z in kids:
            child = node + (z,)
            expand(child, emit(child, me), level + 1)

    for x in descend_below(tree.beta, width, tree.alpha):
        node = (x,)
        expand(node, emit(node, None), 1)
    finite = FiniteTree.from_parents(parents)
    return Truncation(finite, tree, to_node, complete)


def instantiate(n: int) -> Truncation:
    """The full finite tree of decreasing sequences over {0..n-1}."""
    return truncate(CanonicalTree.of(0, n), depth=n, width=max(n, 1))
