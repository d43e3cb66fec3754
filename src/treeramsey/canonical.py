"""Symbolic trees of strictly decreasing ordinal sequences.

``CanonicalTree(alpha, beta)`` is the tree of non-empty sequences
``x0 > x1 > ... > xn`` with ``beta > x0`` and ``xn >= alpha``, ordered by
sequence extension.  Its derivative calculus is pure ordinal arithmetic:
the z-th derivative bumps ``alpha`` by z, so tau of a node is read off its
last entry and no finite materialization is ever required for exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ordinal import (
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


@dataclass(frozen=True)
class CanonicalTree:
    alpha: Ordinal
    beta: Ordinal

    @staticmethod
    def of(alpha: "Ordinal | int", beta: "Ordinal | int") -> "CanonicalTree":
        return CanonicalTree(ordinal(alpha), ordinal(beta))

    @property
    def is_empty(self) -> bool:
        return compare(self.alpha, self.beta) >= 0

    def __contains__(self, node: CanonicalNode) -> bool:
        if not node:
            return False
        if compare(node[0], self.beta) >= 0 or compare(node[-1], self.alpha) < 0:
            return False
        return all(compare(b, a) < 0 for a, b in zip(node, node[1:]))

    def _require(self, node: CanonicalNode) -> None:
        if node not in self:
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


def node_tau_beta(tree: CanonicalTree, beta: "Ordinal | int",
                  node: CanonicalNode) -> Ordinal:
    delta, _ = left_divide(ordinal(beta), node_tau(tree, node))
    return delta


@dataclass(frozen=True)
class SeparationContext:
    """Resolution ladder for a tree of additively indecomposable rank.

    ``alphas[i]`` is the rank of the i-th resolution; two comparable nodes
    separate at the first resolution whose blocks contain them both.
    """

    gamma: Ordinal

    @cached_property
    def _fact(self):
        if not is_additively_indecomposable(self.gamma):
            raise CanonicalError(
                f"separation needs an additively indecomposable rank, got {self.gamma}")
        return factorize(self.gamma)

    @property
    def lam(self) -> int:
        return self._fact.lam

    @property
    def alphas(self) -> tuple[Ordinal, ...]:
        return self._fact.factors

    @property
    def cofactors(self) -> tuple[Ordinal, ...]:
        return self._fact.cofactors

    def of_taus(self, tau_s: Ordinal, tau_t: Ordinal) -> int:
        """Least i with the two tau values in the same alpha_i block."""
        for i, a in enumerate(self.alphas):
            if left_divide(a, tau_s)[0] == left_divide(a, tau_t)[0]:
                return i
        raise CanonicalError(
            f"taus {tau_s}, {tau_t} do not meet below rank {self.gamma}")


def separation(tree: CanonicalTree, s: CanonicalNode, t: CanonicalNode) -> int:
    """Separation index of a comparable pair s < t.

    Defined for trees starting at 0 whose rank is additively indecomposable
    and greater than 1; always lands in range(number of layers).
    """
    if not tree.alpha.is_zero:
        raise CanonicalError("separation is defined on trees with alpha = 0")
    ctx = _separation_context(rank_symbolic(tree))
    if ctx.lam == 0:
        raise CanonicalError("rank 1 trees have no comparable pairs")
    if len(s) >= len(t) or tuple(t[: len(s)]) != tuple(s):
        raise CanonicalError("separation needs s < t (s a proper prefix of t)")
    # node_tau rejects a node outside the tree
    return ctx.of_taus(node_tau(tree, s), node_tau(tree, t))


@lru_cache(maxsize=64)
def _separation_context(gamma: Ordinal) -> SeparationContext:
    """One context per rank, so its factorization is computed once."""
    return SeparationContext(gamma)


@dataclass(frozen=True)
class Truncation:
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
    ids: list[CanonicalNode] = []
    parents: dict[int, int | None] = {}
    to_node: dict[int, CanonicalNode] = {}
    complete: dict[int, bool] = {}

    def emit(node: CanonicalNode, parent: int | None) -> int:
        i = len(ids)
        ids.append(node)
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

    root_count = _full_child_count(tree.beta, tree.alpha)
    for x in descend_below(tree.beta, width, tree.alpha):
        node = (x,)
        expand(node, emit(node, None), 1)
    finite = FiniteTree.from_parents(parents)
    trunc = Truncation(finite, tree, to_node, complete)
    # record whether the root rank itself was fully covered
    trunc.complete[-1] = root_count is not None and root_count <= width
    return trunc


def instantiate(n: int) -> Truncation:
    """The full finite tree of decreasing sequences over {0..n-1}."""
    return truncate(CanonicalTree.of(0, n), depth=n, width=max(n, 1))
