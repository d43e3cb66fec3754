import itertools
import json
import random

import pytest
from test_golden import SWEEP
from test_golden import _cases as golden_cases

from treeramsey import transfinite
from treeramsey.canonical import (
    CanonicalError,
    CanonicalTree,
    node_facts,
    node_tau,
    separation_of_facts,
    separation_of_taus,
    truncate,
    window_facts,
)
from treeramsey.generate import random_ordinal
from treeramsey.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    add,
    descend_below,
    left_divide,
    mul,
    omega_pow,
    ordinal,
    parse_ordinal,
)
from treeramsey.rules import RuleColoring, RuleError, parse_rule
from treeramsey.transfinite import (
    AuditFailure,
    Budget,
    BudgetExhausted,
    ContractionSpec,
    EntryMap,
    EntryPiece,
    FilteredPiece,
    Piece,
    ShiftPiece,
    StackPiece,
    TransfiniteError,
    UnionPiece,
    _audit_stabilization,
    _grade,
    _upper_color,
    assemble_union,
    audit_contraction,
    contract,
    digit_embedding,
    piece_window,
    reference_window_rank,
    stabilize_transfinite,
)
from treeramsey.tree_core import FiniteTree

w = OMEGA
w2 = omega_pow(2)
BUDGET = Budget(3, 3, 4)
WIDE = Budget(3, 4, 4)


@pytest.fixture
def square():
    return CanonicalTree.of(0, w2)


class TestDigitEmbedding:
    def test_round_trip(self):
        from treeramsey.ordinal import factorize
        fact = factorize(omega_pow(3))
        emap = digit_embedding(fact, (0, 2))
        for y in (ZERO, ONE, w, w + 3, mul(w, 2) + 1):
            x = emap.apply(y)
            assert emap.unapply(x) == y
        # a digit on the dropped middle layer is rejected
        assert emap.unapply(w) is None

    def test_empty_keep(self):
        from treeramsey.ordinal import factorize
        emap = digit_embedding(factorize(w2), ())
        assert emap.size == ONE
        assert emap.apply(ZERO) == ZERO
        assert emap.unapply(w) is None


class TestContract:
    def test_identity_layers(self, square):
        spec = ContractionSpec.of(w2, {0, 1})
        sub = contract(square, spec)
        assert sub.declared_rank == w2
        assert audit_contraction(square, spec, sub, WIDE).ok

    def test_empty_layers_single_node(self, square):
        spec = ContractionSpec.of(w2, set())
        sub = contract(square, spec)
        assert sub.declared_rank == ONE
        assert sub.roots(5) == [((ZERO,), ZERO)]
        assert audit_contraction(square, spec, sub, WIDE).ok

    @pytest.mark.parametrize("layers", [{0}, {1}])
    def test_single_layer(self, square, layers):
        spec = ContractionSpec.of(w2, layers)
        sub = contract(square, spec)
        assert sub.declared_rank == w
        report = audit_contraction(square, spec, sub, WIDE)
        assert report.ok, report.to_json()

    def test_low_layer_keeps_small_entries(self, square):
        sub = contract(square, ContractionSpec.of(w2, {0}))
        window, mapping = piece_window(sub, 3, 4)
        for node, _ in mapping.values():
            assert all(e < w for e in node)

    def test_high_layer_keeps_multiples(self, square):
        sub = contract(square, ContractionSpec.of(w2, {1}))
        window, mapping = piece_window(sub, 3, 4)
        for node, _ in mapping.values():
            for e in node:
                assert left_divide(w, e)[1] == ZERO

    def test_rank_mismatch_rejected(self, square):
        with pytest.raises(TransfiniteError):
            contract(square, ContractionSpec.of(omega_pow(3), {0}))

    def test_layer_out_of_range(self, square):
        with pytest.raises(TransfiniteError):
            contract(square, ContractionSpec.of(w2, {5}))

    def test_window_rank_never_exceeds_reference(self, square):
        # contracted windows stay below the same-budget reference window
        from treeramsey.transfinite import reference_window_rank
        for layers in ({0}, {1}, {0, 1}):
            sub = contract(square, ContractionSpec.of(w2, layers))
            for budget in (Budget(2, 2, 4), Budget(3, 4, 4), Budget(4, 3, 4)):
                window, _ = piece_window(sub, budget.depth, budget.width)
                assert window.rank() <= reference_window_rank(sub.declared_rank, budget)


class TestGradedRoots:
    """The grades a successor or limit top layer w^(w^eps) hangs below its anchors."""

    def test_successor_grades(self):
        assert [str(_grade(ONE, q)) for q in (1, 2, 3)] == ["w", "w^2", "w^3"]

    def test_limit_grades(self):
        assert [str(_grade(w, q)) for q in (1, 2)] == ["w^w", "w^(w^2)"]


class TestAssembleUnion:
    def _segment(self, square, size):
        return EntryPiece(ZERO, EntryMap.identity(size))

    def test_declared_override(self, square):
        union = assemble_union([((w,), self._segment(square, w))],
                               declared_rank=w2)
        assert union.declared_rank == w2

    def test_empty(self, square):
        union = assemble_union([], ZERO)
        assert union.declared_rank == ZERO
        assert union.roots(3) == []

    def test_rejects_comparable_anchors(self, square):
        seg = self._segment(square, w)
        with pytest.raises(TransfiniteError):
            assemble_union([((w,), seg), ((w,), seg)], w)
        with pytest.raises(TransfiniteError):
            assemble_union([((mul(w, 2),), seg), ((mul(w, 2), w), seg)], w)

    def test_union_of_graded_segments_attains_reference(self, square):
        # mirror of the graded-roots wrapping: declared rank w^2 certified
        from treeramsey.transfinite import reference_window_rank
        parts = [((mul(w, q),), EntryPiece(ZERO, EntryMap.identity(mul(w, q))))
                 for q in (1, 2, 3)]
        union = assemble_union(parts, declared_rank=w2)
        window, _ = piece_window(union, 3, 3)
        assert window.rank() == reference_window_rank(w2, Budget(3, 3, 4))


class TestFilteredPiece:
    """Position filtering keeps more nodes than the closed-form entry
    contraction (transit prefixes survive) but realizes the same declared
    rank and the same separation mapping."""

    def test_samples_at_most_width_children(self):
        from treeramsey.ordinal import factorize
        cube = omega_pow(3)
        filtered = FilteredPiece(EntryPiece(ZERO, EntryMap.identity(cube)),
                                 factorize(cube), (0, 2))
        window, _ = piece_window(filtered, 3, 3)
        assert len(window.roots()) <= 3
        assert max(len(window.children(t)) for t in window.ids) <= 3

    @pytest.mark.parametrize("keep", [(0,), (1,)])
    def test_same_window_rank_as_closed_form(self, square, keep):
        from treeramsey.ordinal import factorize
        identity = EntryPiece(ZERO, EntryMap.identity(w2))
        filtered = FilteredPiece(identity, factorize(w2), keep)
        closed = contract(square, ContractionSpec.of(w2, set(keep)))
        win_f, _ = piece_window(filtered, 3, 3)
        win_c, _ = piece_window(closed, 3, 3)
        assert filtered.declared_rank == closed.declared_rank
        assert win_f.rank() == win_c.rank()

    @pytest.mark.parametrize("rank,keep", [(2, (0,)), (2, (1,)), (3, (2,))])
    def test_carried_positions_are_the_declared_ones(self, rank, keep):
        from treeramsey.ordinal import factorize
        gamma = omega_pow(rank)
        filtered = FilteredPiece(EntryPiece(ZERO, EntryMap.identity(gamma)),
                                 factorize(gamma), keep)
        ambient = CanonicalTree.of(0, gamma)
        _, mapping = piece_window(filtered, 3, 3)
        assert len(mapping) > 3
        for node, pos in mapping.values():
            assert pos is filtered.emap.unapply(node_tau(ambient, node))

    @pytest.mark.parametrize("keep", [(0,), (1,)])
    def test_separation_enumerates(self, square, keep):
        from treeramsey.ordinal import factorize
        identity = EntryPiece(ZERO, EntryMap.identity(w2))
        filtered = FilteredPiece(identity, factorize(w2), keep)
        window, mapping = piece_window(filtered, 3, 3)
        for i_s, i_t in window.ordered_pairs():
            (s, pos_s), (t, pos_t) = mapping[i_s], mapping[i_t]
            sq = separation_of_taus(filtered.declared_rank, pos_s, pos_t)
            sp = separation_of_taus(w2, node_tau(square, s), node_tau(square, t))
            assert keep[sq] == sp


def _same_block(s, t, sep):
    return 1 if left_divide(w, s.tau)[0] == left_divide(w, t.tau)[0] else 0


# inside one w-block, pairs take the block index mod m; across blocks, 0
BLOCK_PARITY = "if tau(w, s) == tau(w, t) then tau(w, s) mod {m} else 0"


class TestBlockReduce:
    """The finite top layer stabilizes w-blocks of I(0, w^2) in order and
    keeps the first ``width`` that share a table."""

    @staticmethod
    def _kept(res):
        # the last part of the union stacks every kept block below its anchor
        anchors = [anchor for anchor, _ in res.subtree.parts]
        return [base for base, _ in res.subtree.parts[-1][1].bands], anchors

    def test_blockwise_rule(self, square):
        # every block has table (1,): the first width blocks are kept
        rule = RuleColoring(1, _same_block, frozenset({"tau"}))
        res = stabilize_transfinite(square, rule, BUDGET)
        assert res.table == (1, 0) and res.report.ok
        assert self._kept(res) == ([ZERO, w, mul(w, 2)], [(w,), (mul(w, 2),), (mul(w, 3),)])

    def test_alternating_blocks_majority(self, square):
        # block tables alternate (0,), (1,); the first table to come up
        # width times wins, and each anchor sits just above its block
        res = stabilize_transfinite(square, parse_rule(BLOCK_PARITY.format(m=2), k=1),
                                    Budget(3, 3, 6))
        assert res.table == (0, 0) and res.report.ok
        assert self._kept(res) == ([ZERO, mul(w, 2), mul(w, 4)],
                                   [(w,), (mul(w, 3),), (mul(w, 5),)])

    def test_bound_enforced(self, square):
        # three tables need (k+1)^lam * (width-1) + 1 = 7 blocks; the kept
        # blocks 0, 3 and 6 reach the last of them
        res = stabilize_transfinite(square, parse_rule(BLOCK_PARITY.format(m=3), k=2),
                                    Budget(3, 3, 6))
        assert res.table == (0, 0) and res.report.ok
        assert self._kept(res)[0] == [ZERO, mul(w, 3), mul(w, 6)]

    def test_single_color(self, square):
        res = stabilize_transfinite(square, RuleColoring.constant(0, k=1), BUDGET)
        assert res.table == (0, 0) and res.report.ok
        assert self._kept(res)[0] == [ZERO, w, mul(w, 2)]


class TestFilteredPaths:
    """Rules whose upper-layer colors split, so that a successor layer
    filters its grades; the canonical separation tables never do."""

    def test_successor_filters_upper_layers(self):
        tower = CanonicalTree.of(0, omega_pow(w))
        res = stabilize_transfinite(
            tower, parse_rule("if tau(w, s) > tau(w, t) then 1 else 0", k=1), Budget(3, 3, 6))
        # grade q keeps its q upper layers of color 1, so the part ranks grow
        assert res.table == (1,) and res.report.ok
        assert [str(p.declared_rank) for _, p in res.subtree.parts] == ["1", "w", "w^2"]
        assert all(isinstance(p, FilteredPiece) for _, p in res.subtree.parts)
        self._only_the_top_union_keeps_a_window(res, Budget(3, 3, 6))

    def test_filtered_blocks_below_finite_top(self):
        tree = CanonicalTree.of(0, omega_pow(w + 1))
        res = stabilize_transfinite(tree, parse_rule("tau(1, s) mod 2", k=1), Budget(2, 2, 6))
        assert res.table == (0, 0) and res.report.ok
        # each kept w^w-block is a successor union with a filtered grade
        stack = res.subtree.parts[-1][1]
        assert all(any(isinstance(p, FilteredPiece) for _, p in band.parts)
                   for _, band in stack.bands)
        self._only_the_top_union_keeps_a_window(res, Budget(2, 2, 6))

    @staticmethod
    def _only_the_top_union_keeps_a_window(res, budget):
        # the filtered grades' unions drop the windows their _cross_color built
        unions = [sub for sub in _inner_pieces(res.subtree) if isinstance(sub, UnionPiece)]
        assert unions[0] is res.subtree and len(unions) > 1
        assert res.subtree.windows.keys() == {(budget.depth, budget.width)}
        assert not any(sub.windows for sub in unions[1:])


class TestStabilizeTransfinite:
    def test_single_color_identity(self, square):
        res = stabilize_transfinite(square, RuleColoring.constant(0, k=0), BUDGET)
        assert res.table == (0, 0)
        assert res.report.ok

    def test_one_layer_tables(self):
        line = CanonicalTree.of(0, w)
        for c in range(3):
            res = stabilize_transfinite(line, RuleColoring.sep_table((c,), k=2), BUDGET)
            assert res.table == (c,) and res.report.ok

    def test_two_layer_tables(self, square):
        for table in itertools.product(range(2), repeat=2):
            res = stabilize_transfinite(square, RuleColoring.sep_table(table, k=1), BUDGET)
            assert res.table == table and res.report.ok

    def test_successor_layer(self):
        tower = CanonicalTree.of(0, omega_pow(w))
        res = stabilize_transfinite(tower, RuleColoring.sep_table((1,), k=1),
                                    Budget(3, 3, 6))
        assert res.table == (1,) and res.report.ok

    def test_limit_layer(self):
        # every grade has table (1,): the first width grades are kept
        tower = CanonicalTree.of(0, omega_pow(omega_pow(w)))
        res = stabilize_transfinite(tower, RuleColoring.sep_table((1,), k=1),
                                    Budget(2, 2, 16))
        assert res.table == (1,) and res.report.ok
        assert isinstance(res.subtree, UnionPiece)
        assert [str(p.declared_rank) for _, p in res.subtree.parts] == ["w^w", "w^(w^2)"]

    def test_limit_layer_keeps_agreeing_grades(self):
        # grade tables (0,), (1,), (1,): grades 2 and 3 agree and are kept,
        # each below its own anchor
        tower = CanonicalTree.of(0, omega_pow(omega_pow(w)))
        res = stabilize_transfinite(
            tower, parse_rule("if tau(w^w, s) > tau(w^w, t) then 1 else 0", k=1),
            Budget(2, 2, 16))
        assert res.table == (1,) and res.report.ok
        assert [anchor for anchor, _ in res.subtree.parts] == [
            (omega_pow(omega_pow(2)),), (omega_pow(omega_pow(3)),)]
        assert [str(p.declared_rank) for _, p in res.subtree.parts] == ["w^(w^2)", "w^(w^3)"]

    def test_upper_color_grows(self):
        # color 0 shrinks along the tables, color 1 grows
        assert _upper_color([(0,), (1, 1), (1, 1, 1)], 0) == 1
        # the low entries are not counted
        assert _upper_color([(1, 0), (1, 0, 0), (1, 0, 0, 0)], 1) == 0

    def test_upper_color_without_growth_is_named(self):
        with pytest.raises(BudgetExhausted) as err:
            _upper_color([(0,), (1, 1), (0, 0, 1)], 0)
        assert err.value.step == "upper-color"

    def test_three_layers(self):
        cube = CanonicalTree.of(0, omega_pow(3))
        res = stabilize_transfinite(cube, RuleColoring.sep_table((2, 0, 1), k=2),
                                    Budget(3, 3, 6))
        assert res.table == (2, 0, 1) and res.report.ok

    def test_textual_rule(self, square):
        res = stabilize_transfinite(square, parse_rule("F[sep] with F=(1,0)"), BUDGET)
        assert res.table == (1, 0) and res.report.ok

    def test_monotone_budgets(self, square):
        rule = RuleColoring.sep_table((1, 0))
        for budget in (Budget(3, 3, 4), Budget(4, 3, 5), Budget(4, 4, 5)):
            res = stabilize_transfinite(square, rule, budget)
            assert res.report.ok and res.table == (1, 0)

    def test_depth_rule_fails_loudly(self):
        line = CanonicalTree.of(0, w)
        with pytest.raises((BudgetExhausted, AuditFailure)) as err:
            stabilize_transfinite(line, parse_rule("depth(t) mod 2", k=1), BUDGET)
        assert getattr(err.value, "step", None) is not None

    def test_cap_exhaustion_is_named(self):
        tower = CanonicalTree.of(0, omega_pow(omega_pow(w)))
        with pytest.raises(BudgetExhausted) as err:
            stabilize_transfinite(tower, RuleColoring.sep_table((1,), k=1),
                                  Budget(2, 2, 3))
        assert err.value.step == "recursion-cap"

    def test_rejects_decomposable_rank(self):
        bumpy = CanonicalTree.of(0, mul(w, 2))
        with pytest.raises(TransfiniteError):
            stabilize_transfinite(bumpy, RuleColoring.constant(0, k=0), BUDGET)

    def test_rank_one_tree(self):
        one = CanonicalTree.of(0, 1)
        res = stabilize_transfinite(one, RuleColoring.constant(0, k=1), BUDGET)
        assert res.table == ()
        assert res.report.ok

    def test_determinism(self, square):
        rule = RuleColoring.sep_table((1, 0))
        first = stabilize_transfinite(square, rule, BUDGET)
        second = stabilize_transfinite(square, rule, BUDGET)
        assert first.table == second.table
        win1, map1 = piece_window(first.subtree, 3, 3)
        win2, map2 = piece_window(second.subtree, 3, 3)
        assert win1.ids == win2.ids
        assert [map1[i] for i in win1.ids] == [map2[i] for i in win2.ids]
        assert first.to_json() == second.to_json()

    def test_report_serializes(self, square):
        res = stabilize_transfinite(square, RuleColoring.sep_table((0, 1), k=1), BUDGET)
        doc = res.to_json()
        assert doc["schema_version"] == 1
        assert doc["table"] == [0, 1]
        assert doc["audit"]["ok"] is True


class TestDeclaredRankAudits:
    def test_honest_claims_pass(self, square):
        from treeramsey.transfinite import audit_declared_rank
        seg = EntryPiece(ZERO, EntryMap.identity(w))
        for budget in (Budget(2, 2, 4), Budget(3, 3, 4), Budget(4, 3, 4)):
            assert audit_declared_rank(seg, budget).ok

    def test_inflated_claim_caught_at_deeper_budgets(self, square):
        from treeramsey.transfinite import audit_declared_rank
        # a one-layer segment passed off as the two-layer tree: the shallow
        # window cannot tell the claims apart, the deeper one can
        seg = EntryPiece(ZERO, EntryMap.identity(w))
        liar = assemble_union([((mul(w, 3),), seg)], declared_rank=w2)
        assert audit_declared_rank(liar, Budget(3, 3, 4)).ok  # depth saturates
        assert not audit_declared_rank(liar, Budget(4, 3, 4)).ok

    def test_require_names_the_failed_check(self, square):
        from treeramsey.transfinite import audit_declared_rank
        seg = EntryPiece(ZERO, EntryMap.identity(w))
        liar = assemble_union([((mul(w, 3),), seg)], declared_rank=w2)
        with pytest.raises(AuditFailure) as info:
            audit_declared_rank(liar, Budget(4, 3, 4)).require()
        assert str(info.value) == \
            "declared-rank: window-rank-matches-declared: window rank 3 vs reference 4"
        assert info.value.step == "window-rank-matches-declared"
        assert info.value.report.ok is False


class ZeroBelowRoots(Piece):
    """Walks ``inner`` honestly but hands down 0 as the position of every
    depth-2 node, keeping the true one to walk on below it."""

    def __init__(self, inner: Piece):
        self.inner, self.declared_rank = inner, inner.declared_rank
        self.root_nodes, self.true_pos = set(), {}

    def roots(self, width):
        out = self.inner.roots(width)
        self.root_nodes.update(node for node, _ in out)
        return out

    def children(self, node, pos, width):
        kids = self.inner.children(node, self.true_pos.get(node, pos), width)
        if node not in self.root_nodes:
            return kids
        self.true_pos.update(kids)
        return [(child, ZERO) for child, _ in kids]


class ChildrenBesideParent(Piece):
    """Samples single-entry nodes (x,) of I(0, w^2) at their true position
    x, and hands down (z,) with z < x as the children of (x,): members of
    the tree, but none extends its parent."""

    declared_rank = w2

    def roots(self, width):
        return [((x,), x) for x in descend_below(w2, width)]

    def children(self, node, pos, width):
        return [((z,), z) for z in descend_below(node[-1], width)]


class TestMisreportedPositions:
    """The audits are the only check on carried positions: a piece that
    walks the honest window but misreports positions fails them."""

    def test_contraction_audit_names_the_pair(self, square):
        spec = ContractionSpec.of(w2, {0, 1})
        honest = contract(square, spec)
        assert audit_contraction(square, spec, honest, WIDE).ok
        report = audit_contraction(square, spec, ZeroBelowRoots(honest), WIDE)
        assert report.failed.name == "separation-enumerates"
        assert report.failed.detail == "pair ((w*3 + 3), (w*3 + 3, w*3 + 2)): ambient 0 != mapped 1"

    def test_stabilization_audit_names_the_pair(self, square):
        rule = RuleColoring.sep_table((1, 0))
        honest = stabilize_transfinite(square, rule, BUDGET)
        report, _ = _audit_stabilization(square, ZeroBelowRoots(honest.subtree),
                                         honest.table, rule, BUDGET)
        assert report.failed.name == "separation-preserved"
        assert report.failed.detail == \
            "pair ((w*2, w + 2, w + 1), (w*2, w + 2, w + 1, w)): subtree separation 1 != ambient 0"

    def test_children_must_extend_their_parent(self, square):
        piece = ChildrenBesideParent()
        window, _ = piece_window(piece, BUDGET.depth, BUDGET.width)
        assert list(window.ordered_pairs())
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            audit_contraction(square, ContractionSpec.of(w2, {0, 1}), piece, BUDGET)
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            _audit_stabilization(square, piece, (0, 0), RuleColoring.sep_table((0, 0)), BUDGET)

    def test_cross_color_and_audit_check_every_window_edge(self):
        # s < t is checked once per window edge, before any pair is read: a
        # union's _cross_color and its audit share one window, and both reject it
        cube, rule = CanonicalTree.of(0, omega_pow(3)), RuleColoring.sep_table((0, 0, 0))
        union = assemble_union([((mul(w2, 5),), ChildrenBesideParent())], w2)
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            transfinite._cross_color(cube, union, (), w, rule, BUDGET)
        assert union.windows.keys() == {(BUDGET.depth, BUDGET.width)}
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            _audit_stabilization(cube, union, (0, 0), rule, BUDGET)
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            audit_contraction(CanonicalTree.of(0, w2), ContractionSpec.of(w2, {0, 1}),
                              ChildrenBesideParent(), BUDGET)


class RootAtBeta(Piece):
    """Samples the root (w^2,), one entry too high for I(0, w^2), with one
    child, declaring positions on two levels of w-blocks."""

    declared_rank = w2

    def roots(self, width):
        return [((w2,), mul(w, 2))]

    def children(self, node, pos, width):
        return [] if len(node) > 1 else [(node + (ONE,), ONE)]


class TestNodeFactsOncePerNode:
    """Rules and separation read facts built once per window node: the
    membership check runs once per node and still runs."""

    def test_membership_checked_once_per_window_node(self, monkeypatch):
        # and s < t once per window edge
        counts = {"contains": 0, "nodes": 0, "evals": 0, "below": 0, "edges": 0}
        contains, window, value, below = (CanonicalTree.__contains__, transfinite.piece_window,
                                          RuleColoring.value, transfinite.require_below)

        def counted_contains(tree, node):
            counts["contains"] += 1
            return contains(tree, node)

        def counted_window(piece, depth, width):
            out = window(piece, depth, width)
            counts["nodes"] += len(out[1])
            counts["edges"] += sum(p is not None for p in out[0].parents)
            return out

        def counted_below(s, t):
            counts["below"] += 1
            return below(s, t)

        def counted_value(rule, s, t, sep=None):
            counts["evals"] += 1
            return value(rule, s, t, sep)

        monkeypatch.setattr(CanonicalTree, "__contains__", counted_contains)
        monkeypatch.setattr(transfinite, "piece_window", counted_window)
        monkeypatch.setattr(RuleColoring, "value", counted_value)
        monkeypatch.setattr(transfinite, "require_below", counted_below)
        res = stabilize_transfinite(CanonicalTree.of(0, omega_pow(3)),
                                    RuleColoring.sep_table((2, 0, 1)), Budget(4, 3, 6))
        assert res.table == (2, 0, 1) and res.report.ok
        assert counts["evals"] > counts["nodes"] > 0
        assert 0 < counts["contains"] <= counts["nodes"]
        assert 0 < counts["below"] <= counts["edges"]

    def test_node_outside_the_tree_still_raises(self, square):
        rule = RuleColoring.sep_table((1, 0))
        outside = r"node \(w\^2\) is not in I\(0, w\^2\)"
        with pytest.raises(CanonicalError, match=outside):
            _audit_stabilization(square, RootAtBeta(), (1, 0), rule, BUDGET)
        with pytest.raises(CanonicalError, match=outside):
            transfinite._cross_color(square, RootAtBeta(), (), w, rule, BUDGET)


class TestSharpnessCeiling:
    """Window ranks of contractions never exceed the same-budget window of
    the declared-rank reference tree, across a budget matrix."""

    @pytest.mark.parametrize("rank,layers", [
        (w2, frozenset()),
        (w2, frozenset({0})),
        (w2, frozenset({1})),
        (omega_pow(3), frozenset({0, 2})),
        (omega_pow(3), frozenset({1})),
    ])
    def test_ceiling(self, rank, layers):
        from treeramsey.transfinite import reference_window_rank
        tree = CanonicalTree.of(0, rank)
        sub = contract(tree, ContractionSpec.of(rank, layers))
        for budget in (Budget(2, 2, 4), Budget(2, 3, 4), Budget(3, 3, 4)):
            window, _ = piece_window(sub, budget.depth, budget.width)
            assert window.rank() <= reference_window_rank(sub.declared_rank, budget)


class TestMonochromaticSharpness:
    """For separation-table colorings on a window, the exhaustive optimum
    per color equals the same-budget window rank of the contracted tree on
    the layers of that color."""

    @pytest.mark.parametrize("table", [(1, 0), (0, 1), (0, 0)])
    def test_optimum_matches_contraction_window(self, square, table):
        from treeramsey.transfinite import reference_window_rank
        from treeramsey.verify import max_monochromatic_rank
        budget = Budget(3, 3, 4)
        window = truncate(square, budget.depth, budget.width)
        from treeramsey.canonical import separation as sep
        rule_colors = {}
        for i_s, i_t in window.tree.ordered_pairs():
            s, t = window.node_of(i_s), window.node_of(i_t)
            rule_colors[(i_s, i_t)] = table[sep(square, s, t)]
        for j in set(table):
            layers = frozenset(i for i, c in enumerate(table) if c == j)
            sub = contract(square, ContractionSpec.of(w2, layers))
            expected, _ = piece_window(sub, budget.depth, budget.width)
            best = max_monochromatic_rank(
                window.tree, lambda s, t: rule_colors[(s, t)], j)
            assert best.colors[j].rank == expected.rank()


class TestReferenceWindowRank:
    """The reference rank is read off descend_below; truncate materializes
    the window it stands for."""

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_equals_the_truncated_window_rank(self, depth):
        rng = random.Random(depth)
        ranks = [random_ordinal(rng, height=1) for _ in range(8)] + [ZERO, ONE, ordinal(3), w]
        for width in range(1, 6):
            budget = Budget(depth, width, 4)
            for rank in ranks:
                window = truncate(CanonicalTree.of(0, rank), depth, width).tree
                assert reference_window_rank(rank, budget) == window.rank(), (str(rank), width)
            assert reference_window_rank(w, budget) == min(depth, width)

    @pytest.mark.parametrize("dims", [(0, 3, 4), (3, 0, 4)])
    def test_a_window_needs_a_level_and_a_child(self, dims):
        with pytest.raises(TransfiniteError, match="depth and width must be at least 1"):
            Budget(*dims)

    def test_budget_fields_by_keyword_and_default(self):
        assert (Budget().depth, Budget().width, Budget().cap) == (3, 3, 4)
        budget = Budget(depth=3, width=4, cap=4)
        assert (budget.depth, budget.width, budget.cap) == (3, 4, 4)
        assert Budget(width=2).depth == 3

    def test_budget_error_names_the_budget(self):
        with pytest.raises(TransfiniteError) as info:
            Budget(depth=0, width=2, cap=5)
        assert str(info.value) == ("budget depth and width must be at least 1: "
                                   "Budget(depth=0, width=2, cap=5)")

    def test_window_rank_is_the_largest_depth(self):
        window, _ = piece_window(EntryPiece(ZERO, EntryMap.identity(w2)), 4, 3)
        assert transfinite._window_rank(window) == window.rank() == 4
        assert transfinite._window_rank(FiniteTree.empty()) == 0
        # a window lists every parent before its child
        with pytest.raises(TransfiniteError, match="node 0 comes before its parent 1"):
            transfinite._window_rank(FiniteTree.from_parents({0: 1, 1: None}))


def _walk_window(piece, depth, width):
    """Reference: the depth-first walk of a piece's own roots and children,
    each node once, which is how every window was built before a union's
    window became its parts' windows."""
    parents, mapping, seen = {}, {}, set()

    def emit(node, pos, parent):
        if node in seen:
            return None
        seen.add(node)
        i = len(mapping)
        parents[i], mapping[i] = parent, (node, pos)
        return i

    def expand(node, pos, me, level):
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


def _inner_pieces(piece):
    """The piece and every piece inside it, once each: union parts, stack
    bands, and filtered and shifted inners."""
    out, seen, todo = [], set(), [piece]
    while todo:
        p = todo.pop()
        if id(p) in seen:
            continue
        seen.add(id(p))
        out.append(p)
        if isinstance(p, UnionPiece):
            todo.extend(part for _, part in p.parts)
        elif isinstance(p, StackPiece):
            todo.extend(band for _, band in p.bands)
        elif isinstance(p, (FilteredPiece, ShiftPiece)):
            todo.append(p.inner)
    return out


@pytest.fixture(scope="module")
def certified_pieces():
    """(name, ambient tree, piece, budget) for every golden case and every
    case the recorded verdict sweep certified."""
    out = []
    for name, sub, budget, _, _ in golden_cases():
        rank = omega_pow(2) if name.startswith("contract") else sub.declared_rank
        out.append((name, CanonicalTree.of(0, rank), sub, budget))
    for line in SWEEP.read_text().splitlines():
        case = json.loads(line)
        if case["verdict"] == "ok":
            tree = CanonicalTree.of(0, parse_ordinal(case["tree"]))
            budget = Budget(*case["budget"])
            res = stabilize_transfinite(tree, parse_rule(case["rule"], k=case["k"]), budget)
            out.append((f"{case['tree']} {case['rule']} {budget}", tree, res.subtree, budget))
    assert len(out) == 13 + 41
    return out


class TestComposedWindows:
    """A union's window is its parts' windows side by side, kept by
    ``piece_window`` until the first build that contains the union takes
    it, and a stack's is composed from its bands' windows; each equals the
    depth-first walk of the piece's own roots and children, and its window
    facts equal the node-by-node ones."""

    def test_windows_equal_the_depth_first_walk(self, certified_pieces):
        # every depth, so the lower bands' windows grafted at each depth are compared too
        kinds = set()
        for name, _, piece, budget in certified_pieces:
            for sub in _inner_pieces(piece):
                kinds.add(type(sub))
                for depth in range(1, budget.depth + 1):
                    window, at = piece_window(sub, depth, budget.width)
                    ref, ref_at = _walk_window(sub, depth, budget.width)
                    assert window.ids == ref.ids and window.parents == ref.parents, (name, depth)
                    assert [at[i] for i in window.ids] == [ref_at[i] for i in ref.ids], (name, depth)
                    # stacks are composed on this rule: no child is sampled at position 0
                    assert not any(ref_at[p][1].is_zero for p in set(ref.parents) - {None}), name
        assert kinds == {cls for cls in vars(transfinite).values()
                         if isinstance(cls, type) and issubclass(cls, Piece) and cls is not Piece}

    def test_shifts_inside_bands_inside_shifts(self):
        # an emitted window composes the move of a shifted stack with the
        # moves of the shifted bands inside it, at every depth
        res = stabilize_transfinite(CanonicalTree.of(0, omega_pow(3)),
                                    RuleColoring.sep_table((2, 0, 1)), Budget(4, 3, 6))
        stack = res.subtree.parts[-1][1]
        assert any(isinstance(sub, ShiftPiece) for _, band in stack.bands
                   for sub in _inner_pieces(band) if sub is not band)
        w3 = omega_pow(3)
        moved = ShiftPiece(stack, ZERO, w3)
        for piece in (moved, ShiftPiece(moved, w3, mul(w3, 2)),
                      assemble_union([((mul(w3, 5),), moved)], moved.declared_rank)):
            for depth in range(1, 5):
                window, at = piece_window(piece, depth, 3)
                ref, ref_at = _walk_window(piece, depth, 3)
                assert window.parents == ref.parents, depth
                assert [at[i] for i in window.ids] == [ref_at[i] for i in ref.ids], depth

    def test_window_facts_equal_node_facts(self, certified_pieces):
        for name, tree, piece, budget in certified_pieces:
            window, at = piece_window(piece, budget.depth, budget.width)
            nodes = [node for node, _ in at.values()]
            assert window_facts(tree, nodes, window.parents) == node_facts(tree, nodes), name

    def test_union_part_ranks_strictly_increase(self, certified_pieces):
        # a union declared at a limit rank reaches it only through growing parts
        for name, _, piece, _ in certified_pieces:
            for sub in _inner_pieces(piece):
                if isinstance(sub, UnionPiece):
                    ranks = [part.declared_rank for _, part in sub.parts]
                    assert all(a < b for a, b in zip(ranks, ranks[1:])), (name, ranks)

    def test_union_window_is_built_once_per_budget(self):
        parts = [((mul(w, q),), EntryPiece(ZERO, EntryMap.identity(mul(w, q)))) for q in (1, 2)]
        union = assemble_union(parts, declared_rank=w2)
        first, at = piece_window(union, 3, 3)
        again, at_again = piece_window(union, 3, 3)
        assert again == first and at_again == at
        # the first build that contains the union takes its window
        outer = assemble_union([((mul(w2, 2),), union)], w2)
        window, at_outer = piece_window(outer, 3, 3)
        assert not union.windows and outer.windows.keys() == {(3, 3)}
        assert window == first
        assert at_outer == {i: ((mul(w2, 2),) + node, pos) for i, (node, pos) in at.items()}

    def test_union_rejects_comparable_anchors(self):
        seg = EntryPiece(ZERO, EntryMap.identity(w))
        with pytest.raises(TransfiniteError, match="are comparable"):
            UnionPiece((((w,), seg), ((w, ONE), seg)), w2)

    def test_bands_release_their_windows(self):
        cube = CanonicalTree.of(0, omega_pow(3))
        res = stabilize_transfinite(cube, RuleColoring.sep_table((2, 0, 1)), Budget(3, 3, 6))
        # the top union keeps the one window its final pass read
        assert res.subtree.windows.keys() == {(3, 3)}
        bands = [band for _, stack in res.subtree.parts for _, band in stack.bands]
        # the builds that contained them took the windows of the bands and
        # of every union inside one
        inside = [sub for band in bands for sub in _inner_pieces(band) if isinstance(sub, UnionPiece)]
        assert bands and inside and all(not sub.windows for sub in inside)

    def test_the_top_union_takes_its_grades_windows(self):
        # the grades of a limit top are finite-top unions that ran _cross_color
        # below their anchor: the top union's window took theirs
        tree = CanonicalTree.of(0, parse_ordinal("w^w"))
        res = stabilize_transfinite(tree, RuleColoring.sep_table((0, 1)), Budget(4, 3, 6))
        grades = [part for _, part in res.subtree.parts if isinstance(part, UnionPiece)]
        inside = [sub for grade in grades for sub in _inner_pieces(grade) if isinstance(sub, UnionPiece)]
        assert grades and all(not sub.windows for sub in inside)
        assert res.subtree.windows.keys() == {(4, 3)}

    def test_a_union_window_is_composed_once_per_run(self, monkeypatch):
        # a union's window at the budget's depth is composed by its own
        # _cross_color or the final audit, and read again by the window that
        # contains it: that read must not compose it anew.  A composition is
        # an emitter's union call, which reads the union's parts; a kept
        # window or a stack band's relative window is copied instead.  Left
        # out: F[sep] on w^(w*2) at (2,2,6), where one union of rank w is a
        # part of two unions (a w^2 band and a w^w grade share its view and
        # base), so the second composes it again.
        union = transfinite._Emitter.union

        def counted(emitter, out, piece, depth, *frame):
            if depth == budget.depth:
                composed.setdefault(id(piece), [piece, 0])[1] += 1
            return union(emitter, out, piece, depth, *frame)

        monkeypatch.setattr(transfinite._Emitter, "union", counted)
        cases = [(text, RuleColoring.sep_table(table), dims) for text, table, dims in BENCH_CASES]
        for line in SWEEP.read_text().splitlines():
            case = json.loads(line)
            if case["verdict"] == "ok" and case["rule"].startswith("F[sep]") and \
                    (case["tree"], case["budget"]) != ("w^(w*2)", [2, 2, 6]):
                cases.append((case["tree"], parse_rule(case["rule"], k=case["k"]), case["budget"]))
        assert len(cases) == 4 + 4
        for text, rule, dims in cases:
            budget, composed = Budget(*dims), {}
            stabilize_transfinite(CanonicalTree.of(0, parse_ordinal(text)), rule, budget)
            assert composed and max(n for _, n in composed.values()) == 1, (text, dims)


class ChildAboveParent(Piece):
    """Samples roots (x,) of I(0, w^2) and hands down (x, x + 1) below
    each: the child extends its parent but does not decrease."""

    declared_rank = w2

    def roots(self, width):
        return [((x,), x) for x in descend_below(w2, width)]

    def children(self, node, pos, width):
        return [] if len(node) > 1 else [(node + (add(node[-1], 1),), pos)]


def _facts_or_error(facts, *args):
    try:
        return facts(*args)
    except CanonicalError as err:
        return str(err)


class TestWindowFactsErrors:
    """window_facts checks a child only on the entries it adds below its
    parent, and raises the error node_facts raises, at the same node."""

    @pytest.mark.parametrize("piece", [RootAtBeta(), ChildrenBesideParent(), ChildAboveParent()],
                             ids=lambda p: type(p).__name__)
    def test_same_first_error_as_node_facts(self, square, piece):
        window, at = piece_window(piece, BUDGET.depth, BUDGET.width)
        nodes = [node for node, _ in at.values()]
        got = _facts_or_error(window_facts, square, nodes, window.parents)
        assert got == _facts_or_error(node_facts, square, nodes)
        # nodes beside their parents are members: the pair check rejects them
        assert isinstance(got, list) == isinstance(piece, ChildrenBesideParent)
        # below a prefix, as _cross_color reads a segment's window
        cube, prefix = CanonicalTree.of(0, omega_pow(3)), (mul(w2, 5),)
        nodes = [prefix + node for node in nodes]
        assert _facts_or_error(window_facts, cube, nodes, window.parents) == \
            _facts_or_error(node_facts, cube, nodes)


# the four benchmark trees at their benchmark budgets
BENCH_CASES = (
    ("w^3", (2, 0, 1), (4, 3, 6)),
    ("w^w", (1,), (4, 3, 6)),
    ("w^(w+1)", (1, 0), (5, 2, 6)),
    ("w^2", (1, 0), (5, 4, 6)),
)


def _records():
    """Golden records (window nodes, positions, table, report) of every
    golden case and every benchmark case."""
    from test_golden import _record, snapshot
    out = snapshot()
    for text, table, dims in BENCH_CASES:
        budget = Budget(*dims)
        res = stabilize_transfinite(CanonicalTree.of(0, parse_ordinal(text)),
                                    RuleColoring.sep_table(table), budget)
        out[f"bench I(0,{text}) F={table}"] = _record(res.subtree, budget, res.report, res.table)
    return out


class TestSegmentsOncePerView:
    """Segments of one view share one stabilization, moved to their base."""

    def test_sharing_changes_no_output(self, monkeypatch):
        shared = _records()
        monkeypatch.setattr(transfinite, "_view", lambda *args: object())
        assert _records() == shared

    def test_segment_bases_are_left_multiples_of_their_ranks(self, monkeypatch):
        segment, segments = transfinite._stabilize_segment, []

        def recorded(tree, base, prefix, rho, *rest, **kw):
            segments.append((base, rho))
            return segment(tree, base, prefix, rho, *rest, **kw)

        monkeypatch.setattr(transfinite, "_stabilize_segment", recorded)
        _records()
        assert len(segments) > 100
        assert all(left_divide(rho, base)[1].is_zero for base, rho in segments)

    def test_repeated_views_are_shifted(self):
        # under F[sep] every block of a finite top has one view: the first is
        # stabilized, the others are that piece moved to their base
        res = stabilize_transfinite(CanonicalTree.of(0, omega_pow(3)),
                                    RuleColoring.sep_table((2, 0, 1)), Budget(4, 3, 6))
        bands = [band for _, band in res.subtree.parts[-1][1].bands]
        assert isinstance(bands[0], UnionPiece)
        assert all(isinstance(b, ShiftPiece) and b.inner is bands[0] for b in bands[1:])
        assert [b.dst for b in bands[1:]] == [mul(w2, q) for q in (1, 2)]


class TestSinglePass:
    """The final audit reads the top cross-level color in its own pass over
    the window, and raises as the cross-level step did before it."""

    def test_cross_level_conflict_raises_before_the_audit(self):
        tree, rule, budget = CanonicalTree.of(0, w2), parse_rule("tau(1, t) mod 2", k=1), \
            Budget(3, 2, 4)
        piece, table = transfinite._stabilize_segment(
            tree, ZERO, (), w2, rule, budget, budget.cap, {}, top=True)
        # every completion of the table fails the audit
        assert all(_audit_stabilization(tree, piece, table + (c,), rule, budget)[0].failed
                   for c in (0, 1))
        with pytest.raises(BudgetExhausted) as err:
            stabilize_transfinite(tree, rule, budget)
        assert str(err.value) == "cross-level-color: colors 0 and 1 both appear across levels"

    def test_no_cross_level_pair_raises(self):
        with pytest.raises(BudgetExhausted) as err:
            stabilize_transfinite(CanonicalTree.of(0, w), parse_rule("depth(t) mod 2", k=1),
                                  Budget(1, 3, 4))
        assert str(err.value) == \
            "cross-level-color: no cross-level pair fits in the window; deepen the budget"

    def test_a_rule_error_within_levels_waits_for_the_cross_level_verdict(self, square):
        honest = stabilize_transfinite(square, RuleColoring.sep_table((1, 0)), BUDGET)

        def fn(s, t, sep):
            if separation_of_facts(s, t) == 0:
                raise RuleError("no color within levels")
            return t.depth % 2

        rule = RuleColoring(1, fn, frozenset({"sep", "depth"}))
        with pytest.raises(BudgetExhausted) as cross:
            transfinite._cross_color(square, honest.subtree, (), w, rule, BUDGET)
        with pytest.raises(BudgetExhausted) as single:
            _audit_stabilization(square, honest.subtree, honest.table[:-1], rule, BUDGET, w)
        assert str(single.value) == str(cross.value) == \
            "cross-level-color: colors 1 and 0 both appear across levels"
        # with the cross-level color given, the rule's error is raised
        with pytest.raises(RuleError, match="no color within levels"):
            _audit_stabilization(square, honest.subtree, honest.table, rule, BUDGET)

    def test_rules_get_the_separation_of_the_pass(self, monkeypatch):
        # the F[sep] rule reads the separation the pass computed, never its own
        import treeramsey.rules as rules
        cube, rule, budget = CanonicalTree.of(0, omega_pow(3)), RuleColoring.sep_table((2, 0, 1)), \
            Budget(4, 3, 6)
        res = stabilize_transfinite(cube, rule, budget)
        calls = []
        monkeypatch.setattr(rules, "separation_of_facts", lambda s, t: calls.append(s))
        assert _audit_stabilization(cube, res.subtree, res.table, rule, budget)[0].ok and not calls


# -- the pair pass against the pair-by-pair reference -------------------------------


def _reference_contraction(tree, spec, sub, budget):
    """``audit_contraction`` separating every pair on its own, twice."""
    report, window, at = transfinite._audit_window("contraction", sub, budget)
    facts, declared = transfinite._facts(tree, (), window, at), transfinite._declared_facts(sub, at)
    enum, failed, count = spec.enumeration, None, 0
    for count, (i_s, i_t) in enumerate(window.ordered_pairs(), 1):
        sq = separation_of_facts(declared[i_s], declared[i_t])
        sp = separation_of_facts(facts[i_s], facts[i_t])
        if failed is None and enum[sq] != sp:
            failed = f"{transfinite._pair_text(at, i_s, i_t)}: ambient {sp} != mapped {enum[sq]}"
    report.add("separation-enumerates", failed is None, failed or f"{count} pairs checked")
    return report


def _reference_stabilization(tree, sub, table, rule, budget, gamma_p=None):
    """``_audit_stabilization`` separating every pair on its own, twice."""
    from treeramsey.ordinal import factorize
    report, window, at = transfinite._audit_window("stabilization", sub, budget, nonempty=True)
    lam = factorize(sub.declared_rank).lam
    size = len(table) + (gamma_p is not None)
    report.add("table-spans-layers", size == lam, f"table size {size} vs {lam} layers")
    facts, declared = transfinite._facts(tree, (), window, at), transfinite._declared_facts(sub, at)
    level = None if gamma_p is None else [left_divide(gamma_p, pos)[0] for _, pos in at.values()]
    seen = sep_failed = color_failed = None
    count = 0
    for count, (i_s, i_t) in enumerate(window.ordered_pairs(), 1):
        fs, ft = facts[i_s], facts[i_t]
        sp, sq = separation_of_facts(fs, ft), separation_of_facts(declared[i_s], declared[i_t])
        if sep_failed is None and sq != sp:
            sep_failed = (f"{transfinite._pair_text(at, i_s, i_t)}: "
                          f"subtree separation {sq} != ambient {sp}")
        if level is not None and level[i_s] is not level[i_t]:
            seen = transfinite._cross_level(seen, rule.value(fs, ft, sp))
        elif color_failed is None:
            try:
                color = rule.value(fs, ft, sp)
            except ValueError as err:
                color_failed = err
                continue
            if table[sq] != color:
                color_failed = (f"{transfinite._pair_text(at, i_s, i_t)}: "
                                f"table[{sq}]={table[sq]} != color {color}")
    if level is not None:
        table += (transfinite._cross_level_found(seen),)
    report.add("separation-preserved", sep_failed is None, sep_failed or f"{count} pairs checked")
    if isinstance(color_failed, Exception):
        raise color_failed
    report.add("colors-recovered", color_failed is None, color_failed or f"{count} pairs checked")
    return report, table


def _reference_cross_color(tree, union, prefix, gamma_p, rule, budget):
    """``_cross_color`` reading every cross-level pair on its own."""
    window, at = piece_window(union, budget.depth, budget.width)
    facts = transfinite._facts(tree, prefix, window, at)
    level = [left_divide(gamma_p, pos)[0] for _, pos in at.values()]
    seen = None
    for i_s, i_t in window.ordered_pairs():
        if level[i_s] is not level[i_t]:
            seen = transfinite._cross_level(seen, rule.value(facts[i_s], facts[i_t]))
    return transfinite._cross_level_found(seen)


def _outcome(fn, *args):
    """What a call gives: its reports as JSON and any table or color, or the
    type and message of what it raised."""
    try:
        out = fn(*args)
    except Exception as err:  # both sides must raise alike, whatever it is
        return type(err).__name__, str(err)
    if isinstance(out, tuple):
        report, table = out
        return report.to_json(), table
    return out.to_json() if isinstance(out, transfinite.Audit) else out


class TestPairPassExactness:
    """The pair passes separate each class pair once; they give the checks,
    details, completed tables and errors of the pair-by-pair reference."""

    @staticmethod
    def _rules(lam, ambient):
        """(rule, table) pairs: a separation table that the honest pieces
        recover, and a rule of sep, tau and depth that they do not."""
        colors = tuple((i + 1) % 2 for i in range(max(lam, ambient, 1)))
        mixed = "if tau(1, s) mod 2 == 0 then sep else depth(t) mod 2"
        return [(RuleColoring.sep_table(colors), colors[:lam]),
                (parse_rule(mixed, k=len(colors)), tuple(range(lam)))]

    def _agree(self, tree, piece, budget):
        from treeramsey.ordinal import factorize
        fact = factorize(piece.declared_rank)
        gamma_p = fact.factors[-2] if fact.lam >= 2 else ONE
        for rule, table in self._rules(fact.lam, factorize(tree.beta).lam):
            for fn, ref, args in [
                    (_audit_stabilization, _reference_stabilization,
                     (tree, piece, table, rule, budget)),
                    (_audit_stabilization, _reference_stabilization,
                     (tree, piece, table[:-1], rule, budget, gamma_p)),
                    (transfinite._cross_color, _reference_cross_color,
                     (tree, piece, (), gamma_p, rule, budget)),
                    # every pair crosses unit levels: the pass reads every separation
                    (transfinite._cross_color, _reference_cross_color,
                     (tree, piece, (), ONE, rule, budget))]:
                assert _outcome(fn, *args) == _outcome(ref, *args), (fn.__name__, str(rule))
        # layers 0, 1, ... map to themselves, layers 0, 2, ... only the first
        for layers in (range(fact.lam), range(0, 2 * fact.lam, 2)):
            args = (tree, ContractionSpec.of(piece.declared_rank, layers), piece, budget)
            assert _outcome(audit_contraction, *args) == _outcome(_reference_contraction, *args)

    def test_certified_pieces(self, certified_pieces):
        for name, tree, piece, budget in certified_pieces:
            self._agree(tree, piece, budget)

    def test_contractions(self, square):
        for layers in ((), (0,), (1,), (0, 1)):
            spec = ContractionSpec.of(w2, layers)
            sub = contract(square, spec)
            assert _outcome(audit_contraction, square, spec, sub, WIDE) == \
                _outcome(_reference_contraction, square, spec, sub, WIDE)

    def test_tampered_pieces(self, square):
        honest = stabilize_transfinite(square, RuleColoring.sep_table((1, 0)), BUDGET).subtree
        for piece in (ZeroBelowRoots(honest), ChildrenBesideParent()):
            self._agree(square, piece, BUDGET)
        spec = ContractionSpec.of(w2, {0, 1})
        honest = contract(square, spec)
        for piece in (ZeroBelowRoots(honest), ChildrenBesideParent()):
            assert _outcome(audit_contraction, square, spec, piece, WIDE) == \
                _outcome(_reference_contraction, square, spec, piece, WIDE)
