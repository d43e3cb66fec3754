"""Contractions and budgeted stabilization on canonical trees.

Infinite subtrees are handled as lazy pieces: generators that answer
membership, enumerate sampled children, and carry a declared symbolic rank
plus a declared position function.  Every construction returns its piece,
and ``piece.window(depth, width)`` materializes the sampled finite window,
each node with the declared position its sampler handed down the walk.
A contraction is the one-block (zeta = 1) case of the blockwise alignment.

Declared data are claims, not proofs; every public construction is paired
with an audit that materializes a finite window at the given budget and
rechecks the claims pair by pair, comparing window ranks against
equal-budget windows of reference trees.  An operation either returns with an all-pass audit or fails naming
the step that could not be certified.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .canonical import (
    CanonicalNode,
    CanonicalTree,
    SeparationContext,
    node_tau,
    rank_symbolic,
    separation,
    truncate,
)
from .ordinal import (
    ONE,
    ZERO,
    IndecomposableFactorization,
    Ordinal,
    add,
    compare,
    descend_below,
    factorize,
    fundamental_sequence,
    is_additively_indecomposable,
    left_divide,
    left_subtract,
    mul,
    omega_pow,
    ordinal,
)
from .report import Check, Report
from .rules import RuleColoring
from .tree_core import FiniteTree


class TransfiniteError(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    """A construction step could not be certified within the budget."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


class AuditFailure(AssertionError):
    def __init__(self, report: "Audit", check: Check):
        super().__init__(f"{report.construction}: {check.name}: {check.detail}")
        self.report = report
        self.step = check.name


@dataclass(frozen=True)
class Budget:
    depth: int = 3
    width: int = 3
    cap: int = 4

    @staticmethod
    def parse(text: str) -> "Budget":
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3 or min(parts) < 1:
            raise TransfiniteError(f"budget must be depth,width,cap with positive entries: {text!r}")
        return Budget(*parts)


@dataclass
class Audit(Report):
    """The checks of one construction's window at one budget."""
    construction: str = ""
    budget: Budget = Budget()
    declared_rank: Ordinal = ZERO

    def require(self) -> "Audit":
        if self.failed is not None:
            raise AuditFailure(self, self.failed)
        return self

    def to_json(self) -> dict:
        return super().to_json(
            construction=self.construction,
            budget=[self.budget.depth, self.budget.width, self.budget.cap],
            declared_rank=str(self.declared_rank))


# -- entry maps ------------------------------------------------------------------


@dataclass(frozen=True)
class EntryMap:
    """Strictly increasing embedding of [0, size) into an entry range."""

    size: Ordinal
    apply: Callable[[Ordinal], Ordinal]
    unapply: Callable[[Ordinal], Ordinal | None]

    @staticmethod
    def identity(size: Ordinal) -> "EntryMap":
        return EntryMap(size, lambda y: y, lambda x: x if compare(x, size) < 0 else None)


def _mixed_digits(x: Ordinal, prods: Sequence[Ordinal]) -> list[Ordinal] | None:
    """Digits of x in the mixed radix given by prefix products, low to high."""
    if not prods:
        return [] if x.is_zero else None
    if compare(x, prods[-1]) >= 0:
        return None
    digits: list[Ordinal] = [ZERO] * len(prods)
    rest = x
    for i in range(len(prods) - 1, 0, -1):
        q, rest = left_divide(prods[i - 1], rest)
        digits[i] = q
    digits[0] = rest
    return digits


def _mixed_value(digits: Sequence[Ordinal], prods: Sequence[Ordinal]) -> Ordinal:
    out = ZERO
    for i in range(len(prods) - 1, -1, -1):
        scale = prods[i - 1] if i else ONE
        out = add(out, mul(scale, digits[i]))
    return out


def digit_embedding(fact: IndecomposableFactorization, keep: Sequence[int]) -> EntryMap:
    """Embed the sub-product over the kept layers into the full value range
    by placing digits at the kept positions and zeros elsewhere."""
    keep = tuple(sorted(keep))
    if any(i < 0 or i >= fact.lam for i in keep):
        raise TransfiniteError(f"layers {keep} outside 0..{fact.lam - 1}")
    full = fact.factors
    sub_fact = IndecomposableFactorization(
        _subproduct(fact, keep), tuple(fact.epsilons[i] for i in keep))
    sub = sub_fact.factors

    def apply(y: Ordinal) -> Ordinal:
        ys = _mixed_digits(y, sub)
        if ys is None:
            raise TransfiniteError(f"{y} outside the contracted range")
        digits = [ZERO] * fact.lam
        for pos, d in zip(keep, ys):
            digits[pos] = d
        return _mixed_value(digits, full)

    def unapply(x: Ordinal) -> Ordinal | None:
        digits = _mixed_digits(x, full)
        if digits is None:
            return None
        if any(not digits[i].is_zero for i in range(fact.lam) if i not in keep):
            return None
        return _mixed_value([digits[i] for i in keep], sub)

    return EntryMap(sub_fact.gamma, apply, unapply)


def _subproduct(fact: IndecomposableFactorization, keep: Sequence[int]) -> Ordinal:
    out = ONE
    for i in keep:
        out = mul(out, omega_pow(omega_pow(fact.epsilons[i])))
    return out


# -- lazy pieces -------------------------------------------------------------------
#
# A piece works with *relative* nodes: tuples of ambient entry values with no
# surrounding prefix.  Containers (unions, stacks) compose by concatenation,
# so a top-level piece's relative nodes are honest canonical nodes.


# a node with its declared position
Positioned = tuple[CanonicalNode, Ordinal]


class Piece:
    """A lazy subtree.  ``roots`` and ``children`` sample members, each with
    its declared position, so a walk carries positions down instead of
    recomputing them; ``contains`` and ``tau_declared`` answer for any node
    and are what the audits recheck against."""

    declared_rank: Ordinal

    def roots(self, width: int) -> list[Positioned]:
        raise NotImplementedError

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        """Sampled children of the member ``node`` at declared position ``pos``."""
        raise NotImplementedError

    def contains(self, node: CanonicalNode) -> bool:
        raise NotImplementedError

    def tau_declared(self, node: CanonicalNode) -> Ordinal:
        raise NotImplementedError

    def window(self, depth: int, width: int) -> tuple[FiniteTree, dict[int, Positioned]]:
        return piece_window(self, depth, width)


@dataclass(frozen=True)
class EntryPiece(Piece):
    """All decreasing sequences over an embedded entry set, shifted by base."""

    base: Ordinal
    emap: EntryMap

    @property
    def declared_rank(self) -> Ordinal:
        return self.emap.size

    def _entry(self, y: Ordinal) -> Ordinal:
        return add(self.base, self.emap.apply(y))

    def _unentry(self, e: Ordinal) -> Ordinal | None:
        if compare(e, self.base) < 0:
            return None
        return self.emap.unapply(left_subtract(self.base, e))

    def roots(self, width: int) -> list[Positioned]:
        return [((self._entry(y),), y) for y in descend_below(self.emap.size, width)]

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        return [(node + (self._entry(z),), z) for z in descend_below(pos, width)]

    def contains(self, node: CanonicalNode) -> bool:
        if not node:
            return False
        ys = [self._unentry(e) for e in node]
        if any(y is None for y in ys):
            return False
        return all(compare(b, a) < 0 for a, b in zip(ys, ys[1:]))

    def tau_declared(self, node: CanonicalNode) -> Ordinal:
        y = self._unentry(node[-1])
        if y is None:
            raise TransfiniteError(f"node ends outside the piece: {node[-1]}")
        return y


@dataclass(frozen=True)
class UnionPiece(Piece):
    """Incomparable union of pieces hung below pairwise incomparable anchors."""

    parts: tuple[tuple[CanonicalNode, Piece], ...]
    rank: Ordinal

    @property
    def declared_rank(self) -> Ordinal:
        return self.rank

    def _match(self, node: CanonicalNode):
        for anchor, piece in self.parts:
            la = len(anchor)
            if len(node) > la and tuple(node[:la]) == tuple(anchor):
                return anchor, piece
        return None

    def roots(self, width: int) -> list[Positioned]:
        return [(anchor + r, pos) for anchor, piece in self.parts for r, pos in piece.roots(width)]

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        hit = self._match(node)
        if hit is None:
            raise TransfiniteError("node lies in no part of the union")
        anchor, piece = hit
        return [(anchor + c, p) for c, p in piece.children(node[len(anchor):], pos, width)]

    def contains(self, node: CanonicalNode) -> bool:
        hit = self._match(node)
        return hit is not None and hit[1].contains(node[len(hit[0]):])

    def tau_declared(self, node: CanonicalNode) -> Ordinal:
        hit = self._match(node)
        if hit is None:
            raise TransfiniteError("node lies in no part of the union")
        return hit[1].tau_declared(node[len(hit[0]):])


@dataclass(frozen=True)
class StackPiece(Piece):
    """Bands grafted in sequence: each band hangs below the leaves of the
    band above it, multiplying the band rank by the number of bands."""

    bands: tuple[tuple[Ordinal, Piece], ...]  # (entry range base, piece), low to high
    band_rank: Ordinal

    @property
    def declared_rank(self) -> Ordinal:
        return mul(self.band_rank, len(self.bands))

    def _band_of(self, e: Ordinal) -> int | None:
        for i, (b, _) in enumerate(self.bands):
            if compare(b, e) <= 0 and compare(e, add(b, self.band_rank)) < 0:
                return i
        return None

    def _split(self, node: CanonicalNode):
        """Cut into per-band segments; None when the node is not a member."""
        segs: list[tuple[int, CanonicalNode]] = []
        cur_band: int | None = None
        cur: CanonicalNode = ()
        for e in node:
            b = self._band_of(e)
            if b is None:
                return None
            if cur_band is None:
                if b != len(self.bands) - 1:
                    return None
                cur_band, cur = b, (e,)
            elif b == cur_band:
                cur = cur + (e,)
            else:
                if b != cur_band - 1:
                    return None
                piece = self.bands[cur_band][1]
                if not piece.contains(cur) or not piece.tau_declared(cur).is_zero:
                    return None
                segs.append((cur_band, cur))
                cur_band, cur = b, (e,)
        if cur_band is None or not self.bands[cur_band][1].contains(cur):
            return None
        segs.append((cur_band, cur))
        return segs

    def roots(self, width: int) -> list[Positioned]:
        return self._in_band(len(self.bands) - 1, (), self.bands[-1][1].roots(width))

    def _in_band(self, b: int, prefix: CanonicalNode, sampled: list[Positioned]) -> list[Positioned]:
        """Band-relative samples of band b below ``prefix``, as stack members."""
        shift = mul(self.band_rank, b)
        return [(prefix + n, add(shift, p)) for n, p in sampled]

    def _last_segment(self, node: CanonicalNode) -> tuple[int, CanonicalNode]:
        segs = self._split(node)
        if segs is None:
            raise TransfiniteError("node is not a member of the stack")
        return segs[-1]

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        # the position band_rank * b + p names the band b and the position p in it
        q, p = left_divide(self.band_rank, pos)
        b = q.as_int()
        if p.is_zero:  # a leaf of band b: band b - 1 hangs below it
            return [] if b == 0 else self._in_band(b - 1, node, self.bands[b - 1][1].roots(width))
        base, piece = self.bands[b]
        # band b's segment is the tail of entries below its range's top;
        # every earlier entry lies in a higher band
        top = add(base, self.band_rank)
        cut = len(node)
        while cut and compare(node[cut - 1], top) < 0:
            cut -= 1
        return self._in_band(b, node[:cut], piece.children(node[cut:], p, width))

    def contains(self, node: CanonicalNode) -> bool:
        return self._split(node) is not None

    def tau_declared(self, node: CanonicalNode) -> Ordinal:
        b, seg = self._last_segment(node)
        return add(mul(self.band_rank, b), self.bands[b][1].tau_declared(seg))


# nodes a filtered piece may walk through while looking for the covers of one node
FRONTIER_CAP = 96


@dataclass(frozen=True)
class FilteredPiece(Piece):
    """Keep the nodes whose declared position has digits only on chosen
    layers; covers are found by a bounded walk through dropped nodes."""

    inner: Piece
    fact: InitVar[IndecomposableFactorization]
    keep: InitVar[tuple[int, ...]]
    emap: EntryMap = field(init=False)

    def __post_init__(self, fact: IndecomposableFactorization, keep: tuple[int, ...]) -> None:
        object.__setattr__(self, "emap", digit_embedding(fact, keep))

    @property
    def declared_rank(self) -> Ordinal:
        return self.emap.size

    def _position(self, node: CanonicalNode) -> Ordinal | None:
        return self.emap.unapply(self.inner.tau_declared(node))

    def _frontier(self, seeds: Iterable[Positioned], width: int) -> list[Positioned]:
        """Walk inner samples (with inner positions) down to the kept ones."""
        out: list[Positioned] = []
        queue = list(seeds)
        spent = 0
        while queue and spent < FRONTIER_CAP:
            node, inner_pos = queue.pop(0)
            spent += 1
            pos = self.emap.unapply(inner_pos)
            if pos is not None:
                out.append((node, pos))
            else:
                queue.extend(self.inner.children(node, inner_pos, width))
        return out

    def roots(self, width: int) -> list[Positioned]:
        return self._frontier(self.inner.roots(width), width)

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        # a kept node's inner position is its position embedded back
        return self._frontier(self.inner.children(node, self.emap.apply(pos), width), width)

    def contains(self, node: CanonicalNode) -> bool:
        return self.inner.contains(node) and self._position(node) is not None

    def tau_declared(self, node: CanonicalNode) -> Ordinal:
        pos = self._position(node)
        if pos is None:
            raise TransfiniteError("node is not a member of the contracted piece")
        return pos


def piece_window(piece: Piece, depth: int, width: int) -> tuple[FiniteTree, dict[int, Positioned]]:
    """Materialize the sampled window as a finite tree plus the node map
    window id -> (node, declared position), each position as the walk
    emitted it."""
    parents: dict[int, int | None] = {}
    mapping: dict[int, Positioned] = {}
    seen: set[CanonicalNode] = set()

    def emit(node: CanonicalNode, pos: Ordinal, parent: int | None) -> int | None:
        if node in seen:
            return None
        seen.add(node)
        i = len(mapping)
        parents[i] = parent
        mapping[i] = (node, pos)
        return i

    def expand(node: CanonicalNode, pos: Ordinal, me: int, level: int) -> None:
        if level >= depth:
            return
        for child, cpos in piece.children(node, pos, width):
            ci = emit(child, cpos, me)
            if ci is not None:
                expand(child, cpos, ci, level + 1)

    for root, pos in piece.roots(width):
        ri = emit(root, pos, None)
        if ri is not None:
            expand(root, pos, ri, 1)
    return FiniteTree.from_parents(parents), mapping


def reference_window_rank(rank: Ordinal, budget: Budget) -> int:
    """Window rank of the canonical tree of the given rank at this budget."""
    if rank.is_zero:
        return 0
    return truncate(CanonicalTree.of(0, rank), budget.depth, budget.width).tree.rank()


def _audit_window(construction: str, piece: Piece, budget: Budget,
                  nonempty: bool = False) -> tuple[Audit, FiniteTree, dict[int, Positioned]]:
    """Open an audit with the window-rank check, after the window-nonempty
    check if asked; every audit starts here."""
    report = Audit(construction=construction, budget=budget, declared_rank=piece.declared_rank)
    window, at = piece_window(piece, budget.depth, budget.width)
    if nonempty:
        report.add("window-nonempty", bool(window.ids))
    ref = reference_window_rank(piece.declared_rank, budget)
    report.add("window-rank-matches-declared", window.rank() == ref,
               f"window rank {window.rank()} vs reference {ref}")
    return report, window, at


def audit_declared_rank(piece: Piece, budget: Budget) -> Audit:
    """Check a declared rank against its equal-budget reference window.

    A declared rank is a claim, so shallow budgets may fail to separate
    close claims; growing the budget only sharpens the comparison.
    """
    return _audit_window("declared-rank", piece, budget)[0]


# -- contractions -------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionSpec:
    """Layer subset A of an additively indecomposable rank, with the
    enumeration of A and the contracted target rank (1 for empty A)."""

    gamma: Ordinal
    layers: frozenset[int]

    @staticmethod
    def of(gamma: "Ordinal | int", layers: Iterable[int]) -> "ContractionSpec":
        return ContractionSpec(ordinal(gamma), frozenset(int(i) for i in layers))

    @cached_property
    def fact(self) -> IndecomposableFactorization:
        return factorize(self.gamma)

    @property
    def enumeration(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers))

    @property
    def target(self) -> Ordinal:
        return _subproduct(self.fact, self.enumeration)


def contract(tree: CanonicalTree, spec: ContractionSpec) -> EntryPiece:
    """The subtree whose entries use only digits on the chosen layers; its
    separation values enumerate back into the ambient ones.  This is the
    one-block alignment, ``proto_align`` at zeta = 1."""
    return proto_align(tree, spec.gamma, spec.layers, ONE)


def audit_contraction(tree: CanonicalTree, spec: ContractionSpec,
                      sub: Piece, budget: Budget) -> Audit:
    report, window, at = _audit_window("contraction", sub, budget)
    report.add("separation-enumerates", *_in_block_separation(tree, spec, window, at, "ambient"))
    return report


def proto_align(tree: CanonicalTree, gamma: "Ordinal | int", layers: Iterable[int],
                zeta: "Ordinal | int") -> EntryPiece:
    """Blockwise contraction of a tree of rank gamma*zeta: each gamma-block
    is contracted to the chosen layers, preserving the block grid."""
    gamma, zeta = ordinal(gamma), ordinal(zeta)
    if not tree.alpha.is_zero:
        raise TransfiniteError("contraction and alignment are defined on trees with alpha = 0")
    if rank_symbolic(tree) != mul(gamma, zeta):
        raise TransfiniteError(f"tree rank {rank_symbolic(tree)} is not {mul(gamma, zeta)}")
    spec = ContractionSpec.of(gamma, layers)
    inner = digit_embedding(spec.fact, spec.enumeration)
    beta = inner.size

    def apply(z: Ordinal) -> Ordinal:
        q, y = left_divide(beta, z)
        return add(mul(gamma, q), inner.apply(y))

    def unapply(x: Ordinal) -> Ordinal | None:
        q, r = left_divide(gamma, x)
        y = inner.unapply(r)
        if y is None or compare(q, zeta) >= 0:
            return None
        return add(mul(beta, q), y)

    return EntryPiece(ZERO, EntryMap(mul(beta, zeta), apply, unapply))


def audit_alignment(tree: CanonicalTree, gamma: "Ordinal | int", layers: Iterable[int],
                    zeta: "Ordinal | int", sub: Piece, budget: Budget) -> Audit:
    spec = ContractionSpec.of(gamma, layers)
    gamma, beta = spec.gamma, spec.target
    report, window, at = _audit_window("block-alignment", sub, budget)
    grid_ok, detail = True, ""
    for node, pos in at.values():
        q_r = left_divide(beta, pos)[0]
        q_p = left_divide(gamma, node_tau(tree, node))[0]
        if q_r != q_p:
            grid_ok = False
            detail = f"node {node}: block {q_r} vs ambient block {q_p}"
            break
    report.add("block-grid-preserved", grid_ok, detail)
    report.add("in-block-separation-enumerates",
               *_in_block_separation(tree, spec, window, at, "block separation"))
    return report


def _in_block_separation(tree: CanonicalTree, spec: ContractionSpec, window: FiniteTree,
                         at: dict[int, Positioned], what: str) -> tuple[bool, str]:
    """Blocks of rank spec.target stay in order, and inside one block the
    declared separation enumerates into the ambient gamma-block separation."""
    gamma, beta, enum = spec.gamma, spec.target, spec.enumeration
    ctx_g = SeparationContext(gamma)
    ctx_b = SeparationContext(beta) if enum else None
    pairs = 0
    for i_s, i_t in window.ordered_pairs():
        (s, pos_s), (t, pos_t) = at[i_s], at[i_t]
        qs = left_divide(beta, pos_s)[0]
        qt = left_divide(beta, pos_t)[0]
        pairs += 1
        if compare(qt, qs) < 0:
            continue  # blocks strictly ordered: nothing more to check
        if qs != qt:
            return False, f"pair ({s},{t}): block order inverted"
        base_r, base_p = mul(beta, qs), mul(gamma, qs)
        sq = ctx_b.of_taus(left_subtract(base_r, pos_s), left_subtract(base_r, pos_t))
        sp = ctx_g.of_taus(left_subtract(base_p, node_tau(tree, s)),
                           left_subtract(base_p, node_tau(tree, t)))
        if enum[sq] != sp:
            return False, f"pair ({s},{t}): {what} {sp} != mapped {enum[sq]}"
    return True, f"{pairs} pairs checked"


# -- graded roots and unions ------------------------------------------------------


@dataclass(frozen=True)
class GradedRoot:
    root: CanonicalNode
    eta: Ordinal
    anchor: CanonicalNode


def _grade(eps: Ordinal, q: int) -> Ordinal:
    """The q-th grade below a top layer w^(w^eps): q when eps = 0,
    w^(w^d * q) when eps = d + 1, and w^(w^eps[q]) when eps is a limit."""
    if eps.is_zero:
        return ordinal(q)
    if eps.is_successor:
        return omega_pow(mul(omega_pow(eps.predecessor()), q))
    return omega_pow(omega_pow(fundamental_sequence(eps, q)))


def pick_graded_roots(tree: CanonicalTree, gamma: "Ordinal | int", count: int) -> list[GradedRoot]:
    """Roots of strictly increasing grade below a tree of rank gamma * w^(w^e),
    each with an anchor sitting exactly at the graded depth."""
    gamma = ordinal(gamma)
    if not tree.alpha.is_zero:
        raise TransfiniteError("graded roots need alpha = 0")
    rho = rank_symbolic(tree)
    eps = _split_top_factor(rho, gamma)
    out: list[GradedRoot] = []
    for q in range(1, count + 1):
        eta = _grade(eps, q)
        entry = mul(gamma, eta)
        if compare(entry, rho) >= 0:  # pragma: no cover - grades stay below the rank
            break
        node = (entry,)
        # the subtree at the root has rank entry+1 > gamma*eta, by construction
        assert compare(node_tau(tree, node), mul(gamma, eta)) >= 0
        out.append(GradedRoot(node, eta, node))
    return out


def _split_top_factor(rho: Ordinal, gamma: Ordinal) -> Ordinal:
    """The e with rho = gamma * w^(w^e); errors when no such e exists."""
    if not is_additively_indecomposable(rho):
        raise TransfiniteError(f"rank {rho} is not additively indecomposable")
    if gamma == ONE:
        diff = rho.leading_exponent
    else:
        if not is_additively_indecomposable(gamma):
            raise TransfiniteError(f"factor {gamma} is not additively indecomposable")
        diff = left_subtract(gamma.leading_exponent, rho.leading_exponent)
    if not is_additively_indecomposable(diff):
        raise TransfiniteError(f"rank {rho} does not factor as {gamma} * w^(w^e)")
    return diff.leading_exponent


def assemble_union(parts: Sequence[tuple[CanonicalNode, Piece]],
                   declared_rank: "Ordinal | None" = None) -> UnionPiece:
    """Incomparable union of pieces below distinct anchors.  The declared
    rank defaults to the largest part rank; pass the intended limit when the
    parts form a cofinal family."""
    anchors = [tuple(a) for a, _ in parts]
    for i, a in enumerate(anchors):
        for b in anchors[i + 1:]:
            la = min(len(a), len(b))
            if a[:la] == b[:la]:
                raise TransfiniteError(f"anchors {a} and {b} are comparable")
    if declared_rank is None:
        declared_rank = ZERO
        for _, piece in parts:
            if compare(declared_rank, piece.declared_rank) < 0:
                declared_rank = piece.declared_rank
    return UnionPiece(tuple((tuple(a), piece) for a, piece in parts), ordinal(declared_rank))


# -- block reduction ----------------------------------------------------------------


def block_reduce(tree: CanonicalTree, n: int, rule: RuleColoring,
                 budget: Budget) -> tuple[StackPiece, tuple[int, ...], Audit]:
    """Stabilize every block of a tree of rank gamma*(N+1), pigeonhole the
    per-block tables, and keep n+1 agreeing blocks stacked in order."""
    if not tree.alpha.is_zero:
        raise TransfiniteError("block reduction needs alpha = 0")
    rho = rank_symbolic(tree)
    if len(rho.terms) != 1:
        raise TransfiniteError(f"rank {rho} is not of the shape gamma*(N+1)")
    gamma = omega_pow(rho.leading_exponent)
    blocks = rho.terms[0][1]
    n_blocks_needed = n * (rule.k + 1) ** factorize(gamma).lam
    if blocks - 1 <= n_blocks_needed:
        raise TransfiniteError(
            f"need more than {n_blocks_needed + 1} blocks for n={n}, k={rule.k}; "
            f"tree has {blocks}")
    tables: dict[tuple[int, ...], list[int]] = {}
    bands: list[tuple[Ordinal, Piece]] = []
    chosen: tuple[int, ...] | None = None
    stabilized = _stabilize_blocks(tree, ZERO, (), gamma, blocks, rule, budget, budget.cap)
    for delta, (b_base, piece, table) in enumerate(stabilized):
        bands.append((b_base, piece))
        hits = tables.setdefault(tuple(table), [])
        hits.append(delta)
        if len(hits) == n + 1 and chosen is None:
            chosen = tuple(table)
    if chosen is None:  # pragma: no cover - excluded by the block-count bound
        raise BudgetExhausted("block-table-pigeonhole",
                              f"no table repeated {n + 1} times across {blocks} blocks")
    picked = tuple(tables[chosen][: n + 1])
    sub = StackPiece(tuple(bands[d] for d in picked), gamma)
    report = _audit_block_reduction(tree, sub, gamma, picked, chosen, rule, budget)
    return sub, chosen, report.require()


def _audit_block_reduction(tree: CanonicalTree, sub: StackPiece, gamma: Ordinal,
                           picked: tuple[int, ...], table: tuple[int, ...],
                           rule: RuleColoring, budget: Budget) -> Audit:
    report, window, at = _audit_window("block-reduction", sub, budget)
    grid_ok, detail = True, ""
    for node, pos in at.values():
        mine = left_divide(gamma, pos)[0].as_int()
        ambient = left_divide(gamma, node_tau(tree, node))[0].as_int()
        if picked[mine] != ambient:
            grid_ok = False
            detail = f"node {node}: level {mine} should sit in block {picked[mine]}, found {ambient}"
            break
    report.add("levels-map-to-picked-blocks", grid_ok, detail)
    ctx = SeparationContext(gamma) if factorize(gamma).lam else None
    colors_ok, detail_c, pairs = True, "", 0
    for i_s, i_t in window.ordered_pairs():
        (s, pos_s), (t, pos_t) = at[i_s], at[i_t]
        if left_divide(gamma, pos_s)[0] != left_divide(gamma, pos_t)[0]:
            continue  # cross-block colors are not constrained here
        eta = left_divide(gamma, node_tau(tree, s))[0]
        loc_s = left_subtract(mul(gamma, eta), node_tau(tree, s))
        loc_t = left_subtract(mul(gamma, eta), node_tau(tree, t))
        sep_idx = ctx.of_taus(loc_s, loc_t)
        pairs += 1
        if rule.value(tree, s, t) != table[sep_idx]:
            colors_ok = False
            detail_c = f"pair ({s},{t}): color {rule.value(tree, s, t)} != table[{sep_idx}]"
            break
    report.add("in-block-colors-recovered", colors_ok,
               detail_c or f"{pairs} pairs checked")
    return report


# -- the budgeted stabilizer ---------------------------------------------------------


@dataclass
class TransfiniteResult:
    subtree: Piece
    table: tuple[int, ...]
    report: Audit

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "declared_rank": str(self.subtree.declared_rank),
            "table": list(self.table),
            "audit": self.report.to_json(),
        }


def stabilize_transfinite(tree: CanonicalTree, rule: RuleColoring,
                          budget: Budget = Budget()) -> TransfiniteResult:
    """Budgeted search for an equal-rank subtree on which the rule coloring
    is a function of the separation index.

    Follows the layered recursion: finite top layers are handled by
    stacking stabilized blocks below graded roots, successor layers by
    contracting recursively stabilized subtrees, and limit layers by
    unions over a cofinal family.  Either returns with an all-pass audit
    or raises naming the uncertifiable step.
    """
    if not tree.alpha.is_zero:
        raise TransfiniteError("stabilization needs alpha = 0")
    rho = rank_symbolic(tree)
    if rho.is_zero or not is_additively_indecomposable(rho):
        raise TransfiniteError(f"rank {rho} is not additively indecomposable")
    lam = factorize(rho).lam
    if rule.k == 0:
        piece: Piece = EntryPiece(ZERO, EntryMap.identity(rho))
        table = (0,) * lam
    else:
        piece, table = _stabilize_segment(tree, ZERO, (), rho, rule, budget, budget.cap)
    report = _audit_stabilization(tree, piece, table, rule, budget)
    return TransfiniteResult(piece, table, report.require())


def _audit_stabilization(tree: CanonicalTree, sub: Piece, table: tuple[int, ...],
                         rule: RuleColoring, budget: Budget) -> Audit:
    report, window, at = _audit_window("stabilization", sub, budget, nonempty=True)
    ctx = SeparationContext(sub.declared_rank)
    report.add("table-spans-layers", len(table) == ctx.lam,
               f"table size {len(table)} vs {ctx.lam} layers")
    sep_ok, col_ok = True, True
    detail_s, detail_c = "", ""
    pairs = 0
    for i_s, i_t in window.ordered_pairs():
        (s, pos_s), (t, pos_t) = at[i_s], at[i_t]
        sq = ctx.of_taus(pos_s, pos_t)
        sp = separation(tree, s, t)
        pairs += 1
        if sq != sp and sep_ok:
            sep_ok = False
            detail_s = f"pair ({s},{t}): subtree separation {sq} != ambient {sp}"
        if table[sq] != rule.value(tree, s, t) and col_ok:
            col_ok = False
            detail_c = (f"pair ({s},{t}): table[{sq}]={table[sq]} "
                        f"!= color {rule.value(tree, s, t)}")
        if not sep_ok and not col_ok:
            break
    report.add("separation-preserved", sep_ok, detail_s or f"{pairs} pairs checked")
    report.add("colors-recovered", col_ok, detail_c or f"{pairs} pairs checked")
    return report


def _stabilize_segment(tree: CanonicalTree, base: Ordinal, prefix: CanonicalNode,
                       rho: Ordinal, rule: RuleColoring, budget: Budget,
                       cap: int) -> tuple[Piece, tuple[int, ...]]:
    """Stabilize the rule on the segment of entries [base, base+rho) below
    ``prefix``; returns a relative piece of declared rank rho with its table."""
    if rho == ONE:
        return EntryPiece(base, EntryMap.identity(ONE)), ()
    if cap <= 0:
        raise BudgetExhausted("recursion-cap", f"segment of rank {rho} left unexplored")
    fact = factorize(rho)
    gamma_p = fact.factors[-2] if fact.lam >= 2 else ONE
    eps = fact.epsilons[-1]
    if eps.is_zero:
        return _segment_finite_top(tree, base, prefix, rho, gamma_p, rule, budget, cap)
    grades = _stabilize_grades(tree, base, prefix, gamma_p, eps, rule, budget, cap)
    if eps.is_successor:
        return _segment_successor(rho, grades)
    return _segment_limit(rho, grades)


def _stabilize_blocks(tree: CanonicalTree, base: Ordinal, prefix: CanonicalNode,
                      gamma: Ordinal, count: int, rule: RuleColoring, budget: Budget,
                      cap: int) -> Iterator[tuple[Ordinal, Piece, tuple[int, ...]]]:
    """Stabilize ``count`` consecutive gamma-blocks from ``base``, one at a
    time, yielding each block's base, piece and table."""
    for delta in range(count):
        b_base = add(base, mul(gamma, delta))
        yield (b_base, *_stabilize_segment(tree, b_base, prefix, gamma, rule, budget, cap))


def _stabilize_grades(tree, base, prefix, gamma_p, eps, rule, budget, cap):
    """Stabilize, for q = 1..width, the segment of rank gamma_p * eta_q hung
    below the anchor entry base + gamma_p * eta_q."""
    grades: list[tuple[CanonicalNode, Piece, tuple[int, ...], Ordinal]] = []
    for q in range(1, budget.width + 1):
        sub_rho = mul(gamma_p, _grade(eps, q))
        anchor = (add(base, sub_rho),)
        piece, table = _stabilize_segment(
            tree, base, prefix + anchor, sub_rho, rule, budget, cap - 1)
        grades.append((anchor, piece, table, sub_rho))
    return grades


def _segment_finite_top(tree, base, prefix, rho, gamma_p, rule, budget, cap):
    anchors = [(add(base, mul(gamma_p, _grade(ZERO, q))),) for q in range(1, budget.width + 1)]
    blocks = _stabilize_blocks(tree, base, prefix + anchors[-1], gamma_p, len(anchors),
                               rule, budget, cap - 1)
    bands: list[tuple[Ordinal, Piece]] = []
    band_table: tuple[int, ...] | None = None
    for delta, (b_base, piece, table) in enumerate(blocks):
        if band_table is None:
            band_table = table
        elif table != band_table:
            raise BudgetExhausted(
                "level-table-unanimity",
                f"blocks disagree: {table} vs {band_table} at block {delta}")
        bands.append((b_base, piece))
    union = assemble_union([(anchor, StackPiece(tuple(bands[:q]), gamma_p))
                            for q, anchor in enumerate(anchors, 1)], rho)
    j = _cross_color(tree, union, prefix, gamma_p, rule, budget)
    return union, band_table + (j,)


def _cross_color(tree, union: UnionPiece, prefix: CanonicalNode, gamma_p: Ordinal,
                 rule: RuleColoring, budget: Budget) -> int:
    window, at = piece_window(union, budget.depth, budget.width)
    level = {i: left_divide(gamma_p, pos)[0] for i, (_, pos) in at.items()}
    seen: int | None = None
    for i_s, i_t in window.ordered_pairs():
        if level[i_s] == level[i_t]:
            continue
        c = rule.value(tree, prefix + at[i_s][0], prefix + at[i_t][0])
        if seen is None:
            seen = c
        elif c != seen:
            raise BudgetExhausted(
                "cross-level-color",
                f"colors {seen} and {c} both appear across levels")
    if seen is None:
        raise BudgetExhausted(
            "cross-level-color",
            "no cross-level pair fits in the window; deepen the budget")
    return seen


def _segment_successor(rho, grades):
    lam_low = factorize(rho).lam - 1
    low = _majority([g[2][:lam_low] for g in grades], "low-table-unanimity")
    kept = [g for g in grades if g[2][:lam_low] == low]
    votes: dict[int, int] = {}
    for _, _, table, _ in kept:
        for c in table[lam_low:]:
            votes[c] = votes.get(c, 0) + 1
    if not votes:
        raise BudgetExhausted("upper-color-vote", "no upper layers materialized")
    j = min(c for c, v in votes.items() if v == max(votes.values()))
    parts = []
    for anchor, piece, table, sub_rho in kept:
        upper = tuple(i for i in range(lam_low, len(table)) if table[i] == j)
        keep = tuple(range(lam_low)) + upper
        fact = factorize(sub_rho)
        if keep != tuple(range(fact.lam)):
            piece = FilteredPiece(piece, fact, keep)
        parts.append((anchor, piece))
    return assemble_union(parts, rho), low + (j,)


def _segment_limit(rho, grades):
    table = _majority([g[2] for g in grades], "limit-table-unanimity")
    return assemble_union([(anchor, piece) for anchor, piece, tab, _ in grades
                           if tab == table], rho), table


def _majority(tables: list[tuple[int, ...]], step: str) -> tuple[int, ...]:
    counts: dict[tuple[int, ...], int] = {}
    for t in tables:
        counts[t] = counts.get(t, 0) + 1
    best = max(counts.values())
    if best <= len(tables) // 2 and len(counts) > 1:
        raise BudgetExhausted(step, f"no table reaches a majority: {counts}")
    for t in tables:  # first table attaining the best count wins
        if counts[t] == best:
            return t
    raise BudgetExhausted(step, "no tables materialized")  # pragma: no cover
