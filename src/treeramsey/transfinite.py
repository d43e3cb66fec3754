"""Contractions and budgeted stabilization on canonical trees.

Infinite subtrees are handled as lazy pieces: samplers that enumerate
sampled roots and children, each with its declared position, under a
declared symbolic rank.  Every construction returns its piece, and
``piece_window(piece, depth, width)`` materializes the sampled finite
window, each node with the declared position its sampler handed down the
walk.  Windows are emitted, not composed: each node is appended once,
under the prefix, parent and entry move that the unions, stacks and
shifted pieces around it hand down, a stack band's positions shifted
once per build; only entry and filtered pieces are walked.  A union
keeps the window ``piece_window`` built for it, and the first build that
contains it takes it.  A contraction keeps the entries whose digits lie
on chosen layers.  The stabilizer recurses on
the top layer, and every layer kind takes one pigeonhole step:
candidates are stabilized in order until ``width`` share a key, which a
finite number of keys guarantees.  A finite top keeps blocks that share
a table and stacks them below graded anchors; a limit keeps grades that
share a table, a successor grades that share a low table, and both join
them in a union.  A successor then keeps the upper layers of the least
color whose count strictly grows along the kept grades, and fails as
``upper-color`` when none grows.

Each segment is stabilized once per view in one run: its rank and cap,
plus its prefix length if the rule reads depth and its base if it reads
tau.  A repeat takes the first table and piece, moved to its base
(``ShiftPiece``), and still counts against the budget's cap, which is
part of the view.  The final audit reads the top window's pairs in one
pass, which also reads the cross-level color of a finite top layer; a
pair pass separates each pair of (signature, position) classes once.

Declared data are claims, not proofs; every public construction is paired
with an audit that materializes a finite window at the given budget and
rechecks the claims pair by pair, comparing window ranks against the
ranks of equal-budget windows of reference trees.  An operation either
returns with an all-pass audit or fails naming the step that could not be
certified.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .canonical import (
    CanonicalNode,
    CanonicalTree,
    NodeFacts,
    node_to_text,
    rank_symbolic,
    require_below,
    separation_of_facts,
    tau_facts,
    window_facts,
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


class Budget:
    def __init__(self, depth: int = 3, width: int = 3, cap: int = 4):
        self.depth, self.width, self.cap = depth, width, cap
        # a window has at least one level and samples at least one child per node
        if depth < 1 or width < 1:
            raise TransfiniteError(f"budget depth and width must be at least 1: {self}")

    def __repr__(self) -> str:
        return f"Budget(depth={self.depth}, width={self.width}, cap={self.cap})"

    @staticmethod
    def parse(text: str) -> "Budget":
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3 or min(parts) < 1:
            raise TransfiniteError(f"budget must be depth,width,cap with positive entries: {text!r}")
        return Budget(*parts)


class Audit(Report):
    """The checks of one construction's window at one budget."""

    def __init__(self, construction: str, budget: Budget, declared_rank: Ordinal):
        super().__init__()
        self.construction, self.budget, self.declared_rank = construction, budget, declared_rank

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


class EntryMap(NamedTuple):
    """Strictly increasing embedding of [0, size) into an entry range;
    ``unapply``, where given, inverts it and answers None off the image."""

    size: Ordinal
    apply: Callable[[Ordinal], Ordinal]
    unapply: Callable[[Ordinal], Ordinal | None] | None = None

    @staticmethod
    def identity(size: Ordinal) -> "EntryMap":
        return EntryMap(size, lambda y: y)


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
    sub_rank = ONE
    for i in keep:
        sub_rank = mul(sub_rank, omega_pow(omega_pow(fact.epsilons[i])))
    sub = factorize(sub_rank).factors

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

    return EntryMap(sub_rank, apply, unapply)


# -- lazy pieces -------------------------------------------------------------------
#
# A piece works with *relative* nodes: tuples of ambient entry values with no
# surrounding prefix.  Containers (unions, stacks) compose by concatenation,
# so a top-level piece's relative nodes are honest canonical nodes.


# a node with its declared position
Positioned = tuple[CanonicalNode, Ordinal]
# a window by id: each node's parent id, and each node with its declared position
Window = tuple[Sequence[int | None], Iterable[Positioned]]


class Piece:
    """A lazy subtree.  ``roots`` and ``children`` sample members, each with
    its declared position, so a walk carries positions down instead of
    recomputing them; the audits recheck the carried positions against the
    ambient tree."""

    declared_rank: Ordinal

    def roots(self, width: int) -> list[Positioned]:
        raise NotImplementedError

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        """Sampled children of the member ``node`` at declared position ``pos``.

        A member at position 0 is a leaf of the piece: no child is sampled
        there.  Stack windows are emitted on this rule (``_Emitter.stack``),
        and ``TestComposedWindows`` checks it on every kind of piece."""
        raise NotImplementedError


class EntryPiece(Piece):
    """All decreasing sequences over an embedded entry set, shifted by base."""

    def __init__(self, base: Ordinal, emap: EntryMap):
        self.base, self.emap = base, emap

    @property
    def declared_rank(self) -> Ordinal:
        return self.emap.size

    def _entry(self, y: Ordinal) -> Ordinal:
        return add(self.base, self.emap.apply(y))

    def roots(self, width: int) -> list[Positioned]:
        return [((self._entry(y),), y) for y in descend_below(self.emap.size, width)]

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        return [(node + (self._entry(z),), z) for z in descend_below(pos, width)]


class UnionPiece(Piece):
    """Incomparable union of pieces hung below pairwise incomparable anchors.

    Its window is its parts' windows side by side.  ``piece_window`` keeps
    it in ``windows`` per (depth, width), and the first build that contains
    the union takes it from there: a kept window is read once."""

    def __init__(self, parts: tuple[tuple[CanonicalNode, Piece], ...], rank: Ordinal):
        anchors = [a for a, _ in parts]
        for i, a in enumerate(anchors):
            for b in anchors[i + 1:]:
                la = min(len(a), len(b))
                if a[:la] == b[:la]:
                    raise TransfiniteError(f"anchors {a} and {b} are comparable")
        self.parts, self.rank = parts, rank
        self.windows: dict[tuple[int, int], Window] = {}

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


class StackPiece(Piece):
    """Bands grafted in sequence: each band hangs below the leaves of the
    band above it, multiplying the band rank by the number of bands."""

    def __init__(self, bands: tuple[tuple[Ordinal, Piece], ...], band_rank: Ordinal):
        self.bands = bands  # (entry range base, piece), low to high
        self.band_rank = band_rank

    @property
    def declared_rank(self) -> Ordinal:
        return mul(self.band_rank, len(self.bands))

    def roots(self, width: int) -> list[Positioned]:
        return self._in_band(len(self.bands) - 1, (), self.bands[-1][1].roots(width))

    def _in_band(self, b: int, prefix: CanonicalNode, sampled: list[Positioned]) -> list[Positioned]:
        """Band-relative samples of band b below ``prefix``, as stack members."""
        shift = mul(self.band_rank, b)
        return [(prefix + n, add(shift, p)) for n, p in sampled]

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


class ShiftPiece(Piece):
    """``inner``, stabilized on the segment of entries from ``src``, moved to
    the segment of the same rank from ``dst``: the entry src + r becomes
    dst + r.  Both bases are left multiples of that rank, so the move keeps
    every separation (see ``_view``)."""

    def __init__(self, inner: Piece, src: Ordinal, dst: Ordinal):
        self.inner, self.src, self.dst = inner, src, dst

    @property
    def declared_rank(self) -> Ordinal:
        return self.inner.declared_rank

    def roots(self, width: int) -> list[Positioned]:
        move = _Move(self.src, self.dst, None)
        return [(move(node), pos) for node, pos in self.inner.roots(width)]

    def children(self, node: CanonicalNode, pos: Ordinal, width: int) -> list[Positioned]:
        move = _Move(self.src, self.dst, None)
        kids = self.inner.children(_Move(self.dst, self.src, None)(node), pos, width)
        return [(move(c), p) for c, p in kids]


class _Move:
    """A ``ShiftPiece``'s entry move src + r -> dst + r, then the move of
    the shifted pieces around it, memoized per entry."""

    def __init__(self, src: Ordinal, dst: Ordinal, outer: "_Move | None"):
        self.src, self.dst, self.outer, self.done = src, dst, outer, {}

    def __call__(self, node: CanonicalNode) -> CanonicalNode:
        done = self.done
        return tuple([done[x._serial] if x._serial in done else self._entry(x) for x in node])

    def _entry(self, x: Ordinal) -> Ordinal:
        y = add(self.dst, left_subtract(self.src, x))
        return self.done.setdefault(x._serial, y if self.outer is None else self.outer((y,))[0])


# nodes a filtered piece may walk through while looking for the covers of one node
FRONTIER_CAP = 96


class FilteredPiece(Piece):
    """Keep the nodes whose declared position has digits only on chosen
    layers; covers are found by a bounded walk through dropped nodes."""

    def __init__(self, inner: Piece, fact: IndecomposableFactorization, keep: tuple[int, ...]):
        self.inner, self.emap = inner, digit_embedding(fact, keep)

    @property
    def declared_rank(self) -> Ordinal:
        return self.emap.size

    def _frontier(self, seeds: Iterable[Positioned], width: int) -> list[Positioned]:
        """Walk inner samples (with inner positions) down to the first
        ``width`` kept ones."""
        out: list[Positioned] = []
        queue = list(seeds)
        spent = 0
        while queue and spent < FRONTIER_CAP and len(out) < width:
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


def piece_window(piece: Piece, depth: int, width: int) -> tuple[FiniteTree, dict[int, Positioned]]:
    """Materialize the sampled window as a finite tree plus the node map
    window id -> (node, declared position), each position as the piece's
    sampler handed it down.  A union keeps this window for the next build
    that contains it, which takes it (``_Emitter.emit``)."""
    parents, at = _Emitter(width).relative(piece, depth)
    # every parent id is smaller than its child's: a forest by construction
    window, at = FiniteTree._of_valid(range(len(parents)), parents), dict(enumerate(at))
    if isinstance(piece, UnionPiece):  # kept without a copy of its own
        piece.windows[depth, width] = window.parents, at.values()
    return window, at


class _Emitter:
    """One build of windows.  ``emit`` appends each node of a piece's
    window to ``out`` once, in the walk's preorder, under a prefix and a
    parent id, its entries moved by the shifted pieces around it.  Walked
    pieces and stack bands keep a relative window in ``memo``, and each
    band its levels and shifted positions in ``bands``; ``moves`` keeps
    each move."""

    def __init__(self, width: int):
        self.width, self.memo, self.bands, self.moves = width, {}, {}, {}

    def relative(self, piece: Piece, depth: int) -> Window:
        """The window of ``piece`` alone, kept for the build."""
        key = (id(piece), depth)
        if key not in self.memo:
            if isinstance(piece, (UnionPiece, StackPiece, ShiftPiece)):
                self.emit(out := ([], []), piece, depth, (), None, None)
                self.memo[key] = out
            else:
                self.memo[key] = _walk(piece, depth, self.width)
        return self.memo[key]

    def emit(self, out, piece, depth, prefix, parent, move) -> None:
        hit = self.memo.get((id(piece), depth))
        if hit is None:
            if isinstance(piece, StackPiece):
                return self.stack(out, piece.bands, len(piece.bands), piece.band_rank,
                                  depth, prefix, parent, move)
            if isinstance(piece, ShiftPiece):
                key = (id(move), piece.src._serial, piece.dst._serial)
                if key not in self.moves:
                    self.moves[key] = _Move(piece.src, piece.dst, move)
                return self.emit(out, piece.inner, depth, prefix, parent, self.moves[key])
            if isinstance(piece, UnionPiece):
                hit = piece.windows.pop((depth, self.width), None)
                if hit is None:
                    return self.union(out, piece, depth, prefix, parent, move)
            else:
                hit = self.relative(piece, depth)
        (parents, at), off = out, len(out[1])
        parents.extend([parent if p is None else p + off for p in hit[0]])
        at.extend([(prefix + (node if move is None else move(node)), pos) for node, pos in hit[1]])

    def union(self, out, piece, depth, prefix, parent, move) -> None:
        """Compose a union's window: its parts' windows side by side."""
        for anchor, part in piece.parts:
            self.emit(out, part, depth, prefix + (anchor if move is None else move(anchor)),
                      parent, move)

    def band(self, piece: Piece, depth: int, shift: Ordinal) -> tuple:
        """A stack band's window, the level of each of its nodes and their
        positions shifted by ``shift``, once per build: a band's window is
        the same below every leaf it hangs from."""
        key = (id(piece), depth, shift._serial)
        if key not in self.bands:
            parents, at = self.relative(piece, depth)
            levels: list[int] = []
            for p in parents:  # every parent before its child
                levels.append(1 if p is None else levels[p] + 1)
            self.bands[key] = parents, at, levels, [add(shift, pos) for _, pos in at]
        return self.bands[key]

    def stack(self, out, bands, n, band_rank, depth, prefix, parent, move) -> None:
        """The stack of the first n bands: band n-1's window, positions
        shifted by band_rank * (n-1), with the stack of the n-1 bands below
        each band leaf (position 0) above the last level, that leaf as
        prefix.  A piece samples no child at position 0, so the leaf's
        subtree in the walk is exactly that stack, and follows the leaf."""
        band_parents, band_at, levels, shifted = self.band(
            bands[n - 1][1], depth, mul(band_rank, n - 1))
        (parents, at), ids = out, []
        for p, (node, pos), level, band_pos in zip(band_parents, band_at, levels, shifted):
            me = len(at)
            ids.append(me)
            parents.append(parent if p is None else ids[p])
            node = prefix + (node if move is None else move(node))
            at.append((node, band_pos))
            if pos.is_zero and n > 1 and level < depth:
                self.stack(out, bands, n - 1, band_rank, depth - level, node, me, move)


def _walk(piece: Piece, depth: int, width: int) -> Window:
    """Walk a piece depth first from its roots, each node once."""
    parents: list[int | None] = []
    at: list[Positioned] = []
    seen: set[CanonicalNode] = set()

    def emit(node: CanonicalNode, pos: Ordinal, parent: int | None) -> int | None:
        if node in seen:
            return None
        seen.add(node)
        parents.append(parent)
        at.append((node, pos))
        return len(at) - 1

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
    return parents, at


def _facts(tree: CanonicalTree, prefix: CanonicalNode, window: FiniteTree,
           at: dict[int, Positioned]) -> list[NodeFacts]:
    """The window facts of the window nodes below ``prefix``, after which
    every window node is required to extend its parent."""
    facts = window_facts(tree, [prefix + node for node, _ in at.values()], window.parents)
    _require_extensions(window, at)
    return facts


def _declared_facts(piece: Piece, at: dict[int, Positioned]) -> list[NodeFacts]:
    """The facts of each window node's declared position, one record per
    position."""
    rank, records = piece.declared_rank, {}  # records by position serial
    return [records.get(pos._serial) or records.setdefault(pos._serial, tau_facts(rank, pos))
            for _, pos in at.values()]


def _classes(*records: Sequence) -> tuple[list[int], int]:
    """Number window nodes by the identity of their records, given per node,
    so that pairs of equal numbers separate alike; and count the numbers."""
    numbers: dict[tuple[int, ...], int] = {}
    return [numbers.setdefault(key, len(numbers))
            for key in zip(*[map(id, per_node) for per_node in records])], len(numbers)


def _require_extensions(window: FiniteTree, at: dict[int, Positioned]) -> None:
    """Raise unless every window node extends its parent: prefix order is
    transitive, so then every window pair s < t has s a proper prefix of t."""
    for i, p in zip(window.ids, window.parents):
        if p is not None:
            require_below(at[p][0], at[i][0])


def reference_window_rank(rank: Ordinal, budget: Budget) -> int:
    """Window rank of the canonical tree of the given rank at this budget,
    the rank of ``truncate(CanonicalTree.of(0, rank), depth, width).tree``,
    read off ``descend_below`` without materializing that window."""
    heights: dict[tuple[Ordinal, int], int] = {}

    def height(x: Ordinal, levels: int) -> int:
        # longest chain down from a node ending in x with ``levels`` window levels left
        key = (x, levels)
        if key not in heights:
            below = descend_below(x, budget.width) if levels > 1 else ()
            heights[key] = 1 + max((height(z, levels - 1) for z in below), default=0)
        return heights[key]

    return max((height(x, budget.depth) for x in descend_below(rank, budget.width)), default=0)


def _audit_window(construction: str, piece: Piece, budget: Budget,
                  nonempty: bool = False) -> tuple[Audit, FiniteTree, dict[int, Positioned]]:
    """Open an audit with the window-rank check, after the window-nonempty
    check if asked; every audit starts here."""
    report = Audit(construction, budget, piece.declared_rank)
    window, at = piece_window(piece, budget.depth, budget.width)
    if nonempty:
        report.add("window-nonempty", bool(window.ids))
    rank, ref = _window_rank(window), reference_window_rank(piece.declared_rank, budget)
    report.add("window-rank-matches-declared", rank == ref,
               f"window rank {rank} vs reference {ref}")
    return report, window, at


def _window_rank(window: FiniteTree) -> int:
    """The rank of a window, its largest depth, in one pass over the
    parents; raises unless every parent id is smaller than its child's."""
    depths: list[int] = []
    for i, p in enumerate(window.parents):
        if p is not None and p >= i:
            raise TransfiniteError(f"window node {i} comes before its parent {p}")
        depths.append(1 if p is None else depths[p] + 1)
    return max(depths, default=0)


def audit_declared_rank(piece: Piece, budget: Budget) -> Audit:
    """Check a declared rank against its equal-budget reference window.

    A declared rank is a claim, so shallow budgets may fail to separate
    close claims; growing the budget only sharpens the comparison.
    """
    return _audit_window("declared-rank", piece, budget)[0]


def _pair_text(at: dict[int, Positioned], i_s: int, i_t: int) -> str:
    return f"pair (({node_to_text(at[i_s][0])}), ({node_to_text(at[i_t][0])}))"


# -- contractions -------------------------------------------------------------------


class ContractionSpec(NamedTuple):
    """Layer subset A of an additively indecomposable rank, with the
    enumeration of A."""

    gamma: Ordinal
    layers: frozenset[int]

    @staticmethod
    def of(gamma: "Ordinal | int", layers: Iterable[int]) -> "ContractionSpec":
        return ContractionSpec(ordinal(gamma), frozenset(int(i) for i in layers))

    @property
    def enumeration(self) -> tuple[int, ...]:
        return tuple(sorted(self.layers))


def contract(tree: CanonicalTree, spec: ContractionSpec) -> EntryPiece:
    """The subtree whose entries use only digits on the chosen layers; its
    separation values enumerate back into the ambient ones."""
    if not tree.alpha.is_zero:
        raise TransfiniteError("contraction is defined on trees with alpha = 0")
    if rank_symbolic(tree) != spec.gamma:
        raise TransfiniteError(f"tree rank {rank_symbolic(tree)} is not {spec.gamma}")
    return EntryPiece(ZERO, digit_embedding(factorize(spec.gamma), spec.enumeration))


def audit_contraction(tree: CanonicalTree, spec: ContractionSpec,
                      sub: Piece, budget: Budget) -> Audit:
    report, window, at = _audit_window("contraction", sub, budget)
    facts, declared = _facts(tree, (), window, at), _declared_facts(sub, at)
    cls, n = _classes([f.sig for f in facts], declared)
    enum, failed, below, seen = spec.enumeration, None, window._below, set()
    for s in window.ids:
        fs, ds, row = facts[s], declared[s], cls[s] * n
        for t in below[s]:
            if row + cls[t] not in seen:  # the first pair of a class pair decides it
                seen.add(row + cls[t])
                sq, sp = separation_of_facts(ds, declared[t]), separation_of_facts(fs, facts[t])
                if failed is None and enum[sq] != sp:
                    failed = f"{_pair_text(at, s, t)}: ambient {sp} != mapped {enum[sq]}"
    count = sum(map(len, below.values()))
    report.add("separation-enumerates", failed is None, failed or f"{count} pairs checked")
    return report


# -- grades and unions ------------------------------------------------------------


def _grade(eps: Ordinal, q: int) -> Ordinal:
    """The q-th grade below a top layer w^(w^eps) with eps > 0:
    w^(w^d * q) when eps = d + 1, and w^(w^eps[q]) when eps is a limit."""
    if eps.is_successor:
        return omega_pow(mul(omega_pow(eps.predecessor()), q))
    return omega_pow(omega_pow(fundamental_sequence(eps, q)))


def assemble_union(parts: Sequence[tuple[CanonicalNode, Piece]],
                   declared_rank: Ordinal) -> UnionPiece:
    """Incomparable union of pieces below pairwise incomparable anchors,
    declared of the given rank: the intended limit when the parts form a
    cofinal family."""
    return UnionPiece(tuple((tuple(a), piece) for a, piece in parts), declared_rank)


# -- the budgeted stabilizer ---------------------------------------------------------


class TransfiniteResult(NamedTuple):
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
    fact = factorize(rho)
    if rule.k == 0:
        piece: Piece = EntryPiece(ZERO, EntryMap.identity(rho))
        table = (0,) * fact.lam
    else:
        piece, table = _stabilize_segment(tree, ZERO, (), rho, rule, budget, budget.cap, {},
                                          top=True)
    # below a finite top layer the table still lacks the cross-level color,
    # which the final audit reads in its pass over the same window
    gamma_p = (fact.factors[-2] if fact.lam >= 2 else ONE) if len(table) < fact.lam else None
    report, table = _audit_stabilization(tree, piece, table, rule, budget, gamma_p)
    return TransfiniteResult(piece, table, report.require())


def _audit_stabilization(tree: CanonicalTree, sub: Piece, table: tuple[int, ...],
                         rule: RuleColoring, budget: Budget,
                         gamma_p: Ordinal | None = None) -> tuple[Audit, tuple[int, ...]]:
    """The stabilization audit, and the completed table, in one pass over
    the window pairs; each pair's ambient separation serves both checks
    and the rule.  With ``gamma_p``, the table lacks the color of the pairs
    across gamma_p-levels, which the pass reads and raises on as
    ``_cross_color`` does, before any audit verdict; those pairs separate
    at the top layer, so their colors need no other check.  An error in
    reading a color waits for the separation verdict, as in a color pass
    after a separation pass."""
    report, window, at = _audit_window("stabilization", sub, budget, nonempty=True)
    lam = factorize(sub.declared_rank).lam
    size = len(table) + (gamma_p is not None)
    report.add("table-spans-layers", size == lam, f"table size {size} vs {lam} layers")
    facts, declared = _facts(tree, (), window, at), _declared_facts(sub, at)
    level = [None if gamma_p is None else left_divide(gamma_p, pos)[0] for _, pos in at.values()]
    cls, n = _classes([f.sig for f in facts], declared)
    below, seps = window._below, {}  # (ambient, declared) separation by class pair
    seen = sep_failed = color_failed = None
    for s in window.ids:
        fs, ds, row, ls = facts[s], declared[s], cls[s] * n, level[s]
        for t in below[s]:
            ft, key = facts[t], row + cls[t]
            if key not in seps:  # an error is raised at the first pair of its class pair
                seps[key] = separation_of_facts(fs, ft), separation_of_facts(ds, declared[t])
            sp, sq = seps[key]
            if sep_failed is None and sq != sp:
                sep_failed = f"{_pair_text(at, s, t)}: subtree separation {sq} != ambient {sp}"
            if ls is not level[t]:
                seen = _cross_level(seen, rule.value(fs, ft, sp))
            elif color_failed is None:
                try:
                    color = rule.value(fs, ft, sp)
                except ValueError as err:  # a rule's error (RuleError, OrdinalError) waits
                    color_failed = err
                    continue
                if table[sq] != color:
                    color_failed = (f"{_pair_text(at, s, t)}: "
                                    f"table[{sq}]={table[sq]} != color {color}")
    count = sum(map(len, below.values()))
    if gamma_p is not None:
        table += (_cross_level_found(seen),)
    report.add("separation-preserved", sep_failed is None, sep_failed or f"{count} pairs checked")
    if isinstance(color_failed, Exception):
        raise color_failed
    report.add("colors-recovered", color_failed is None, color_failed or f"{count} pairs checked")
    return report, table


def _view(rule: RuleColoring, base: Ordinal, prefix: CanonicalNode, rho: Ordinal,
          cap: int) -> tuple:
    """What stabilizing the segment [base, base+rho) below ``prefix`` reads:
    its rank and cap, the prefix length if the rule reads depth, the base
    if it reads tau.  A base is a left multiple of the rank, so moving a
    segment to another base keeps every separation and depth."""
    return (rho, cap, len(prefix) if "depth" in rule.reads else None,
            base if "tau" in rule.reads else None)


def _stabilize_segment(tree: CanonicalTree, base: Ordinal, prefix: CanonicalNode,
                       rho: Ordinal, rule: RuleColoring, budget: Budget,
                       cap: int, memo: dict, top: bool = False) -> tuple[Piece, tuple[int, ...]]:
    """Stabilize the rule on the segment of entries [base, base+rho) below
    ``prefix``; returns a relative piece of declared rank rho with its table.

    ``memo`` holds the piece, table and base of each view (``_view``) of
    one run; a repeat gets them with the piece moved to its base.  A finite
    ``top`` layer leaves its cross-level color to the final audit."""
    if rho == ONE:
        return EntryPiece(base, EntryMap.identity(ONE)), ()
    view = _view(rule, base, prefix, rho, cap)
    if view not in memo:
        piece, table = _stabilize_layers(tree, base, prefix, rho, rule, budget, cap, memo, top)
        memo[view] = piece, table, base
    piece, table, src = memo[view]
    return (piece if src is base else ShiftPiece(piece, src, base)), table


def _stabilize_layers(tree, base, prefix, rho, rule, budget, cap, memo, top):
    """``_stabilize_segment`` on a segment of rank above 1, by its top layer.
    Below a successor or limit top layer, grade q of rank gamma_p * eta_q
    hangs below the anchor entry base + gamma_p * eta_q; the kept grades,
    filtered below a successor, grow in rank, so their union is cofinal."""
    if cap <= 0:
        raise BudgetExhausted("recursion-cap", f"segment of rank {rho} left unexplored")
    fact = factorize(rho)
    gamma_p = fact.factors[-2] if fact.lam >= 2 else ONE
    eps = fact.epsilons[-1]
    if eps.is_zero:
        return _segment_finite_top(tree, base, prefix, rho, gamma_p, rule, budget, cap, memo, top)
    # grades agree on their low tables below a successor, on whole ones below a limit
    lam_key = fact.lam - 1 if eps.is_successor else fact.lam

    def grade(i: int):
        sub_rho = mul(gamma_p, _grade(eps, i + 1))
        anchor = (add(base, sub_rho),)
        piece, table = _stabilize_segment(
            tree, base, prefix + anchor, sub_rho, rule, budget, cap - 1, memo)
        return table[:lam_key], (anchor, piece, table, sub_rho)

    key, grades = _agreeing(grade, (rule.k + 1) ** lam_key, budget.width)
    if not eps.is_successor:
        return assemble_union([(anchor, piece) for anchor, piece, _, _ in grades], rho), key
    j = _upper_color([table for _, _, table, _ in grades], lam_key)
    parts = []
    for anchor, piece, table, sub_rho in grades:
        keep = tuple(i for i, c in enumerate(table) if i < lam_key or c == j)
        sub_fact = factorize(sub_rho)
        if keep != tuple(range(sub_fact.lam)):
            if isinstance(piece, UnionPiece):  # a filtered walk reads no kept window
                piece.windows.clear()
            piece = FilteredPiece(piece, sub_fact, keep)
        parts.append((anchor, piece))
    return assemble_union(parts, rho), key + (j,)


def _agreeing(stabilize_one: Callable[[int], tuple[tuple[int, ...], object]],
              keys: int, width: int) -> tuple[tuple[int, ...], list]:
    """Stabilize candidates 0, 1, ... until one key has come up ``width``
    times; returns that key with its candidates' items in order.

    ``stabilize_one(i)`` gives candidate i's key and item.  With ``keys``
    possible keys, pigeonhole ends the search within keys * (width-1) + 1
    candidates."""
    hits: dict[tuple[int, ...], list] = {}
    for i in range(keys * (width - 1) + 1):
        key, item = stabilize_one(i)
        kept = hits.setdefault(key, [])
        kept.append(item)
        if len(kept) == width:
            break
    return key, kept


def _upper_color(tables: Sequence[tuple[int, ...]], lam_low: int) -> int:
    """The least color whose count of upper layers (past ``lam_low``)
    strictly grows along the kept grades' tables.  The union reaches the
    successor rank only if one color's layers grow without bound; on a
    finite prefix, strict growth is the check that can be made."""
    for c in sorted(set(tables[-1][lam_low:])):
        counts = [table[lam_low:].count(c) for table in tables]
        if all(a < b for a, b in zip(counts, counts[1:])):
            return c
    raise BudgetExhausted("upper-color", f"no color's upper layers grow along {list(tables)}")


def _segment_finite_top(tree, base, prefix, rho, gamma_p, rule, budget, cap, memo, top):
    """Stack ``width`` gamma_p-blocks that share a table below graded anchors.

    Blocks from ``base`` are stabilized in order, all under one prefix above
    every candidate block.  The q-th part hangs the first q kept blocks
    below the entry just above the q-th of them.  The table lacks the
    cross-level color at the ``top``.
    """
    keys = (rule.k + 1) ** factorize(gamma_p).lam
    above = prefix + (add(base, mul(gamma_p, keys * (budget.width - 1) + 1)),)

    def block(delta: int):
        b_base = add(base, mul(gamma_p, delta))
        piece, table = _stabilize_segment(tree, b_base, above, gamma_p, rule, budget, cap - 1, memo)
        return table, (delta, b_base, piece)

    table, kept = _agreeing(block, keys, budget.width)
    bands = [(b_base, piece) for _, b_base, piece in kept]
    union = assemble_union([((add(base, mul(gamma_p, delta + 1)),),
                             StackPiece(tuple(bands[:q]), gamma_p))
                            for q, (delta, _, _) in enumerate(kept, 1)], rho)
    if not top:
        table += (_cross_color(tree, union, prefix, gamma_p, rule, budget),)
    return union, table


def _cross_color(tree, union: Piece, prefix: CanonicalNode, gamma_p: Ordinal,
                 rule: RuleColoring, budget: Budget) -> int:
    """The one color of the window pairs across gamma_p-levels."""
    window, at = piece_window(union, budget.depth, budget.width)
    facts = _facts(tree, prefix, window, at)
    level = [left_divide(gamma_p, pos)[0] for _, pos in at.values()]
    reads_sep = "sep" in rule.reads
    cls, n = _classes([f.sig for f in facts])
    below, seps, seen = window._below, {}, None
    for s in window.ids:
        fs, ls, row = facts[s], level[s], cls[s] * n
        for t in below[s]:
            if ls is not level[t]:
                ft, key = facts[t], row + cls[t]
                if reads_sep and key not in seps:
                    seps[key] = separation_of_facts(fs, ft)
                seen = _cross_level(seen, rule.value(fs, ft, seps.get(key)))
    return _cross_level_found(seen)


def _cross_level(seen: int | None, color: int) -> int:
    """The cross-level color so far, after one more cross-level pair."""
    if seen is None or color == seen:
        return color
    raise BudgetExhausted("cross-level-color", f"colors {seen} and {color} both appear across levels")


def _cross_level_found(seen: int | None) -> int:
    if seen is None:
        raise BudgetExhausted(
            "cross-level-color", "no cross-level pair fits in the window; deepen the budget")
    return seen
