import pytest

from treeramsey.canonical import (
    CanonicalError,
    CanonicalTree,
    node_facts,
    pair_facts,
    separation,
    truncate,
)
from treeramsey.ordinal import OMEGA, ONE, mul, omega_pow, ordinal, parse_ordinal
from treeramsey import transfinite
from treeramsey.rules import PRIMITIVES, RuleColoring, RuleError, parse_rule

w = OMEGA


@pytest.fixture
def square():
    return CanonicalTree.of(0, omega_pow(2))


@pytest.fixture
def pair_same_block():
    s = (mul(w, 2) + 3,)
    return s, s + (mul(w, 2) + 1,)


@pytest.fixture
def pair_cross_block():
    s = (mul(w, 2) + 3,)
    return s, s + (ordinal(5),)


class TestSepTable:
    def test_lookup(self, square, pair_same_block, pair_cross_block):
        rule = RuleColoring.sep_table((1, 0))
        assert rule.k == 1
        assert rule.value(*pair_facts(square, *pair_same_block)) == 1
        assert rule.value(*pair_facts(square, *pair_cross_block)) == 0

    def test_constant(self, square, pair_same_block):
        rule = RuleColoring.constant(2, k=2)
        assert rule.value(*pair_facts(square, *pair_same_block)) == 2

    def test_palette_guard(self, square, pair_same_block):
        rule = RuleColoring(0, lambda s, t, sep: 1, frozenset())
        with pytest.raises(RuleError):
            rule.value(*pair_facts(square, *pair_same_block))


class TestParser:
    def test_table_form(self, square, pair_same_block, pair_cross_block):
        rule = parse_rule("F[sep] with F=(1,0)")
        assert rule.k == 1
        assert rule.value(*pair_facts(square, *pair_same_block)) == 1
        assert rule.value(*pair_facts(square, *pair_cross_block)) == 0

    def test_tau_mod(self, square, pair_same_block):
        rule = parse_rule("tau(w, s) mod 2")
        assert rule.k == 1
        assert rule.value(*pair_facts(square, *pair_same_block)) == 0
        high = (mul(w, 3) + 1,)
        assert rule.value(*pair_facts(square, high, high + (ONE,))) == 1

    def test_depth(self, square, pair_same_block):
        rule = parse_rule("if depth(t) > 1 then 1 else 0")
        assert rule.value(*pair_facts(square, *pair_same_block)) == 1

    def test_comparison_between_primitives(self, square, pair_same_block, pair_cross_block):
        rule = parse_rule("if tau(w, s) == tau(w, t) then 0 else 1")
        assert rule.value(*pair_facts(square, *pair_same_block)) == 0
        assert rule.value(*pair_facts(square, *pair_cross_block)) == 1

    def test_nested_if(self, square, pair_cross_block):
        rule = parse_rule("if sep == 0 then 0 else if depth(t) > 5 then 1 else 2", k=2)
        assert rule.value(*pair_facts(square, *pair_cross_block)) == 2

    @pytest.mark.parametrize("bad", [
        "F[sep] with F=()",
        "tau(w)",
        "if sep then 1 else 0",
        "sep mod",
        "frobnicate",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RuleError):
            parse_rule(bad)

    def test_table_index_guard(self, square, pair_cross_block):
        rule = parse_rule("F[sep] with F=(1)")
        with pytest.raises(RuleError):
            rule.value(*pair_facts(square, *pair_cross_block))


# the rules of the verdict sweep (tools/sweep_transfinite.py), with their k
SWEEP_RULES = (
    ("F[sep] with F=(1,0)", 1),
    ("tau(w, s) mod 2", 1),
    ("tau(w^2, t) mod 2", 1),
    ("depth(t) mod 2", 1),
    ("if depth(s) > 1 then 1 else 0", 1),
    ("tau(w, t) mod 3", 2),
    ("if tau(w^w, t) == tau(w^w, s) then 0 else 1", 1),
    ("tau(w^w, t) mod 2", 1),
    ("if tau(w, s) > tau(w, t) then 1 else 0", 1),
)


class TestNodeFacts:
    @pytest.mark.parametrize("text", ["w^w", "w^(w+1)"])
    def test_window_facts_match_the_pair_helper(self, text):
        """Facts built once per window node give every rule the colour that
        the checked per-pair helper gives."""
        tree = CanonicalTree.of(0, parse_ordinal(text))
        window = truncate(tree, 3, 3)
        ids = window.tree.ids
        facts = dict(zip(ids, node_facts(tree, [window.node_of(i) for i in ids])))
        pairs = [(i_s, i_t, window.node_of(i_s), window.node_of(i_t))
                 for i_s, i_t in window.tree.ordered_pairs()]
        assert len(pairs) > 20
        for source, k in SWEEP_RULES:
            rule = parse_rule(source, k=k)
            colors = {rule.value(facts[i_s], facts[i_t]) for i_s, i_t, _, _ in pairs}
            assert colors <= set(range(k + 1))
            for i_s, i_t, s, t in pairs:
                assert rule.value(facts[i_s], facts[i_t]) == rule.value(*pair_facts(tree, s, t))

    def test_sep_is_the_separation(self, square):
        window = truncate(square, 3, 3)
        rule = parse_rule("sep mod 2")
        for i_s, i_t in window.tree.ordered_pairs():
            s, t = window.node_of(i_s), window.node_of(i_t)
            assert rule.value(*pair_facts(square, s, t)) == separation(square, s, t)

    def test_undefined_sep_raises_only_when_read(self):
        shifted = CanonicalTree.of(1, omega_pow(2))
        pair = pair_facts(shifted, (mul(w, 2),), (mul(w, 2), ordinal(3)))
        assert parse_rule("depth(t) mod 2").value(*pair) == 0
        with pytest.raises(CanonicalError, match="alpha = 0"):
            parse_rule("F[sep] with F=(1,0)").value(*pair)


class TestReads:
    """A rule records the primitives it reads; a segment's view, under which
    the stabilizer shares segments, holds what the rule reads of it."""

    def test_sweep_rules(self):
        expected = {
            "F[sep] with F=(1,0)": {"sep"},
            "tau(w, s) mod 2": {"tau"},
            "tau(w^2, t) mod 2": {"tau"},
            "depth(t) mod 2": {"depth"},
            "if depth(s) > 1 then 1 else 0": {"depth"},
            "tau(w, t) mod 3": {"tau"},
            "if tau(w^w, t) == tau(w^w, s) then 0 else 1": {"tau"},
            "tau(w^w, t) mod 2": {"tau"},
            "if tau(w, s) > tau(w, t) then 1 else 0": {"tau"},
        }
        assert [source for source, _ in SWEEP_RULES] == list(expected)
        for source, k in SWEEP_RULES:
            assert parse_rule(source, k=k).reads == expected[source], source
        assert parse_rule("if sep == 0 then depth(t) else tau(w, s)", k=9).reads == PRIMITIVES
        w2 = omega_pow(2)
        base, prefix = mul(w2, 3), (mul(w2, 5),)
        assert transfinite._view(parse_rule("tau(w, s) mod 2"), base, prefix, w2, 2) == \
            (w2, 2, None, base)
        assert transfinite._view(parse_rule("depth(t) mod 2"), base, prefix, w2, 2) == \
            (w2, 2, 1, None)
        assert transfinite._view(RuleColoring.sep_table((1, 0)), base, prefix, w2, 2) == \
            (w2, 2, None, None)

    def test_sep_table_reads_only_sep(self):
        assert RuleColoring.sep_table((1, 0)).reads == {"sep"}

    def test_constant_reads_nothing(self):
        assert RuleColoring.constant(1).reads == frozenset()

    def test_a_given_separation_is_not_recomputed(self, square, pair_same_block):
        facts = pair_facts(square, *pair_same_block)
        # the pair separates at 0; a caller that hands in 1 gets table[1]
        assert RuleColoring.sep_table((1, 0)).value(*facts) == 1
        assert RuleColoring.sep_table((1, 0)).value(*facts, 1) == 0
        assert parse_rule("F[sep] with F=(1,0)").value(*facts, 1) == 0
        assert parse_rule("depth(t) mod 2").value(*facts, 1) == 0

    @pytest.mark.parametrize("source,k,tree,budget", [
        ("tau(w, s) mod 2", 1, "w^w", (3, 3, 6)),
        ("if tau(w, s) > tau(w, t) then 1 else 0", 1, "w^w", (3, 3, 6)),
        ("tau(1, s) mod 2", 1, "w^(w+1)", (2, 2, 6)),
        ("if tau(w, s) == tau(w, t) then tau(w, s) mod 2 else 0", 1, "w^2", (3, 3, 6)),
    ])
    def test_a_tau_rule_never_gets_a_shifted_piece(self, source, k, tree, budget):
        from test_transfinite import _inner_pieces
        res = transfinite.stabilize_transfinite(
            CanonicalTree.of(0, parse_ordinal(tree)), parse_rule(source, k=k),
            transfinite.Budget(*budget))
        kinds = {type(p) for p in _inner_pieces(res.subtree)}
        assert transfinite.UnionPiece in kinds and transfinite.ShiftPiece not in kinds

    def test_a_negative_palette_bound_is_rejected(self):
        with pytest.raises(RuleError, match="palette bound k must be at least 0, got -1"):
            parse_rule("F[sep] with F=(0)", k=-1)
