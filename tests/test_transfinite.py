import itertools

import pytest

from treeramsey.canonical import CanonicalTree, node_tau, truncate
from treeramsey.ordinal import OMEGA, ONE, ZERO, left_divide, mul, omega_pow, ordinal
from treeramsey.rules import RuleColoring, parse_rule
from treeramsey.transfinite import (
    AuditFailure,
    Budget,
    BudgetExhausted,
    ContractionSpec,
    EntryMap,
    EntryPiece,
    FilteredPiece,
    TransfiniteError,
    assemble_union,
    audit_alignment,
    audit_contraction,
    block_reduce,
    contract,
    digit_embedding,
    pick_graded_roots,
    piece_window,
    proto_align,
    stabilize_transfinite,
)

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
        window, mapping = sub.window(3, 4)
        for node, _ in mapping.values():
            assert all(e < w for e in node)

    def test_high_layer_keeps_multiples(self, square):
        sub = contract(square, ContractionSpec.of(w2, {1}))
        window, mapping = sub.window(3, 4)
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
                window, _ = sub.window(budget.depth, budget.width)
                assert window.rank() <= reference_window_rank(sub.declared_rank, budget)


class TestProtoAlign:
    def test_single_block_is_contraction(self, square):
        sub = proto_align(square, w2, {0, 1}, ONE)
        assert sub.declared_rank == w2
        assert audit_alignment(square, w2, {0, 1}, ONE, sub, WIDE).ok

    def test_blockwise_low_layer(self):
        cube = CanonicalTree.of(0, omega_pow(3))
        sub = proto_align(cube, w2, {0}, w)
        assert sub.declared_rank == w2  # beta = w per block, times zeta = w
        report = audit_alignment(cube, w2, {0}, w, sub, WIDE)
        assert report.ok, report.to_json()

    def test_empty_layers_chain_of_blocks(self, square):
        sub = proto_align(square, w, set(), w)
        assert sub.declared_rank == w
        report = audit_alignment(square, w, set(), w, sub, WIDE)
        assert report.ok
        window, mapping = sub.window(3, 4)
        for node, _ in mapping.values():
            for e in node:
                assert left_divide(w, e)[1] == ZERO

    def test_rank_mismatch(self, square):
        with pytest.raises(TransfiniteError):
            proto_align(square, w, {0}, ordinal(3))


class TestGradedRoots:
    def test_finite_grades(self):
        tree = CanonicalTree.of(0, mul(w, w))
        roots = pick_graded_roots(tree, w, 3)
        assert [r.eta for r in roots] == [ordinal(1), ordinal(2), ordinal(3)]
        assert [r.root for r in roots] == [(w,), (mul(w, 2),), (mul(w, 3),)]
        assert all(r.anchor == r.root for r in roots)
        for r in roots:
            assert node_tau(tree, r.anchor) == mul(w, r.eta)

    def test_single(self):
        tree = CanonicalTree.of(0, mul(w, w))
        assert len(pick_graded_roots(tree, w, 1)) == 1

    def test_successor_grades(self):
        tree = CanonicalTree.of(0, omega_pow(w))
        roots = pick_graded_roots(tree, ONE, 3)
        assert [str(r.eta) for r in roots] == ["w", "w^2", "w^3"]

    def test_limit_grades(self):
        tree = CanonicalTree.of(0, omega_pow(omega_pow(w)))
        roots = pick_graded_roots(tree, ONE, 2)
        assert [str(r.eta) for r in roots] == ["w^w", "w^(w^2)"]

    def test_rejects_bad_factor(self):
        tree = CanonicalTree.of(0, mul(w, 3))
        with pytest.raises(TransfiniteError):
            pick_graded_roots(tree, w, 2)


class TestAssembleUnion:
    def _segment(self, square, size):
        return EntryPiece(ZERO, EntryMap.identity(size))

    def test_declared_defaults_to_max(self, square):
        union = assemble_union([
            ((w,), self._segment(square, w)),
            ((mul(w, 2),), self._segment(square, mul(w, 2))),
        ])
        assert union.declared_rank == mul(w, 2)

    def test_declared_override(self, square):
        union = assemble_union([((w,), self._segment(square, w))],
                               declared_rank=w2)
        assert union.declared_rank == w2

    def test_empty(self, square):
        union = assemble_union([])
        assert union.declared_rank == ZERO
        assert union.roots(3) == []

    def test_rejects_comparable_anchors(self, square):
        seg = self._segment(square, w)
        with pytest.raises(TransfiniteError):
            assemble_union([((w,), seg), ((w,), seg)])
        with pytest.raises(TransfiniteError):
            assemble_union([((mul(w, 2),), seg), ((mul(w, 2), w), seg)])

    def test_union_of_graded_segments_attains_reference(self, square):
        # mirror of the graded-roots wrapping: declared rank w^2 certified
        from treeramsey.transfinite import reference_window_rank
        parts = []
        for grade in pick_graded_roots(square, w, 3):
            seg = EntryPiece(ZERO, EntryMap.identity(mul(w, grade.eta)))
            parts.append((grade.anchor, seg))
        union = assemble_union(parts, declared_rank=w2)
        window, _ = union.window(3, 3)
        assert window.rank() == reference_window_rank(w2, Budget(3, 3, 4))


class TestFilteredPiece:
    """Position filtering keeps more nodes than the closed-form entry
    contraction (transit prefixes survive) but realizes the same declared
    rank and the same separation mapping."""

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
        _, mapping = piece_window(filtered, 3, 3)
        assert len(mapping) > 3
        for node, pos in mapping.values():
            assert pos is filtered.tau_declared(node)

    @pytest.mark.parametrize("keep", [(0,), (1,)])
    def test_separation_enumerates(self, square, keep):
        from treeramsey.canonical import SeparationContext
        from treeramsey.ordinal import factorize
        identity = EntryPiece(ZERO, EntryMap.identity(w2))
        filtered = FilteredPiece(identity, factorize(w2), keep)
        window, mapping = piece_window(filtered, 3, 3)
        ambient = SeparationContext(w2)
        local = SeparationContext(filtered.declared_rank)
        for i_s, i_t in window.ordered_pairs():
            (s, _), (t, _) = mapping[i_s], mapping[i_t]
            sq = local.of_taus(filtered.tau_declared(s), filtered.tau_declared(t))
            sp = ambient.of_taus(node_tau(square, s), node_tau(square, t))
            assert keep[sq] == sp


class TestBlockReduce:
    def test_blockwise_rule(self):
        tree = CanonicalTree.of(0, mul(w, 4))
        rule = RuleColoring(
            1,
            lambda tr, s, t: 1 if left_divide(w, node_tau(tr, s))[0] ==
            left_divide(w, node_tau(tr, t))[0] else 0,
            "same-block")
        sub, table, report = block_reduce(tree, 1, rule, BUDGET)
        assert table == (1,)
        assert sub.declared_rank == mul(w, 2)
        assert report.ok

    def test_alternating_blocks_majority(self):
        # per-block tables alternate (0,), (1,); the first table to repeat
        # n+1 times wins and its blocks are kept in increasing order
        tree = CanonicalTree.of(0, mul(w, 5))

        def blockwise(tr, s, t):
            qs = left_divide(w, node_tau(tr, s))[0]
            qt = left_divide(w, node_tau(tr, t))[0]
            return 0 if qs != qt else qs.as_int() % 2

        rule = RuleColoring(1, blockwise, "alternating-blocks")
        sub, table, report = block_reduce(tree, 1, rule, BUDGET)
        assert table == (0,)
        assert report.ok
        picked = [left_divide(w, base)[0].as_int() for base, _ in sub.bands]
        assert picked == [0, 2]

    def test_single_color(self):
        tree = CanonicalTree.of(0, mul(w, 4))
        sub, table, report = block_reduce(tree, 2, RuleColoring.constant(0, k=0), BUDGET)
        assert table == (0,) and report.ok

    def test_bound_enforced(self):
        tree = CanonicalTree.of(0, mul(w, 4))
        rule = RuleColoring.sep_table((0,), k=1)
        with pytest.raises(TransfiniteError, match="blocks"):
            block_reduce(tree, 3, rule, BUDGET)

    def test_rejects_indecomposable_rank(self):
        tree = CanonicalTree.of(0, w2 + w)
        with pytest.raises(TransfiniteError):
            block_reduce(tree, 1, RuleColoring.constant(0, k=0), BUDGET)


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
        tower = CanonicalTree.of(0, omega_pow(omega_pow(w)))
        res = stabilize_transfinite(tower, RuleColoring.sep_table((1,), k=1),
                                    Budget(2, 2, 16))
        assert res.table == (1,) and res.report.ok

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
        win1, map1 = first.subtree.window(3, 3)
        win2, map2 = second.subtree.window(3, 3)
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
            window, _ = sub.window(budget.depth, budget.width)
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
            expected, _ = sub.window(budget.depth, budget.width)
            best = max_monochromatic_rank(
                window.tree, lambda s, t: rule_colors[(s, t)], j)
            assert best.colors[j].rank == expected.rank()
