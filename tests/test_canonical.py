import random

import pytest

from treeramsey.canonical import (
    CanonicalError,
    CanonicalTree,
    instantiate,
    node_facts,
    node_from_text,
    node_tau,
    node_to_text,
    pair_facts,
    rank_symbolic,
    separation,
    separation_of_facts,
    separation_of_taus,
    tau_facts,
    truncate,
)
from treeramsey.generate import random_ordinal
from treeramsey.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    add,
    compare,
    factorize,
    is_additively_indecomposable,
    left_divide,
    mul,
    omega_pow,
    ordinal,
    parse_ordinal,
)
from treeramsey.transfinite import (
    Budget,
    EntryMap,
    EntryPiece,
    piece_window,
    reference_window_rank,
)

w = OMEGA
w2 = omega_pow(2)


@pytest.fixture
def square():
    return CanonicalTree.of(0, w2)


class TestMembership:
    def test_entries_must_decrease(self, square):
        assert (mul(w, 2), ordinal(5)) in square
        assert (ordinal(5), mul(w, 2)) not in square

    def test_bounds(self, square):
        assert (w2,) not in square
        assert (ZERO,) in square
        line = CanonicalTree.of(w, mul(w, 2))
        assert (w + 3,) in line
        assert (ordinal(3),) not in line

    def test_int_entries(self, square):
        assert (mul(w, 2), 5, 0) in square and (3, 2) in square
        assert (2, 3) not in square and (2,) not in CanonicalTree.of(w, mul(w, 2))

    def test_empty_tree(self):
        assert CanonicalTree.of(w, w).is_empty
        assert not CanonicalTree.of(0, 1).is_empty

    def test_node_text_round_trip(self):
        node = node_from_text("w*2+3, 5")
        assert node == (mul(w, 2) + 3, ordinal(5))
        assert node_from_text(node_to_text(node)) == node
        with pytest.raises(CanonicalError):
            node_from_text("1, w")


class TestRank:
    def test_headline(self):
        assert rank_symbolic(CanonicalTree.of(0, omega_pow(w))) == omega_pow(w)

    def test_empty(self):
        assert rank_symbolic(CanonicalTree.of(w, w)) == ZERO

    def test_shifted(self):
        assert rank_symbolic(CanonicalTree.of(w, mul(w, 2))) == w


class TestNodeTau:
    def test_from_last_entry(self, square):
        assert node_tau(square, (mul(w, 2) + 3,)) == mul(w, 2) + 3

    def test_leaf(self, square):
        assert node_tau(square, (mul(w, 2) + 3, ZERO)) == ZERO

    def test_finite_cross_check(self):
        tree = CanonicalTree.of(0, 3)
        assert node_tau(tree, (ordinal(2), ONE)) == ONE

    def test_shifted_alpha(self):
        line = CanonicalTree.of(w, mul(w, 2))
        assert node_tau(line, (w + 3,)) == ordinal(3)

    def test_rejects_outsiders(self, square):
        with pytest.raises(CanonicalError):
            node_tau(square, (w2,))

    @pytest.mark.parametrize("node,beta,expected", [
        ((mul(w, 2) + 3,), "w", 2),
        ((ordinal(5),), "w", 0),
        ((mul(w, 2) + 3,), "w^2", 0),
    ])
    def test_tau_beta(self, square, node, beta, expected):
        # the block index of tau under left division by beta, as the rule
        # primitive tau(beta, s) reads it
        from treeramsey.rules import parse_rule
        rule = parse_rule(f"F[tau({beta}, s)] with F=(0,1,2)")
        assert rule.value(*pair_facts(square, node, node + (ONE,))) == expected


class TestSeparation:
    def test_same_block(self, square):
        s = (mul(w, 2) + 3,)
        assert separation(square, s, s + (mul(w, 2) + 1,)) == 0

    def test_cross_block(self, square):
        s = (mul(w, 2) + 3,)
        assert separation(square, s, s + (ordinal(5),)) == 1

    def test_single_layer(self):
        line = CanonicalTree.of(0, w)
        assert separation(line, (ordinal(5),), (ordinal(5), ordinal(2))) == 0

    def test_requires_comparable(self, square):
        with pytest.raises(CanonicalError):
            separation(square, (w,), (w + 1,))

    def test_requires_indecomposable_rank(self):
        bumpy = CanonicalTree.of(0, mul(w, 2))
        with pytest.raises(CanonicalError):
            separation(bumpy, (w,), (w, ONE))

    def test_of_taus_layers(self):
        assert factorize(omega_pow(3)).factors == (w, w2, omega_pow(3))
        assert separation_of_taus(omega_pow(3), mul(w2, 2) + w, mul(w2, 2) + 1) == 1
        assert separation_of_taus(omega_pow(3), mul(w2, 2), w2) == 2


def _reference_of_taus(gamma, tau_s, tau_t):
    """The former per-rank context's loop: check indecomposability, then
    scan the prefix products for the first shared block."""
    if not is_additively_indecomposable(gamma):
        raise CanonicalError(
            f"separation needs an additively indecomposable rank, got {gamma}")
    for i, a in enumerate(factorize(gamma).factors):
        if left_divide(a, tau_s)[0] == left_divide(a, tau_t)[0]:
            return i
    raise CanonicalError(f"taus {tau_s}, {tau_t} do not meet below rank {gamma}")


def _digit(rng, layer):
    """A random ordinal below the layer, finite if no draw fits."""
    for _ in range(20):
        d = random_ordinal(rng, height=2, max_terms=2, max_coeff=3)
        if compare(d, layer) < 0:
            return d
    return ordinal(rng.randrange(6))


def _tau_pair(rng, gamma):
    """Two taus below gamma built digit by digit; the second redraws a
    random set of the first one's digits, so every separation index turns up."""
    fact = factorize(gamma)
    layers = [omega_pow(omega_pow(e)) for e in fact.epsilons]
    ds = [_digit(rng, layer) for layer in layers]
    dt = [_digit(rng, layer) if rng.random() < 0.5 else d for d, layer in zip(ds, layers)]
    taus = []
    for digits in (ds, dt):
        tau = ZERO
        for i in range(fact.lam - 1, -1, -1):
            scale = fact.factors[i - 1] if i else ONE
            tau = add(tau, mul(scale, digits[i]))
        assert compare(tau, gamma) < 0
        taus.append(tau)
    return tuple(taus)


class TestSeparationOfTaus:
    def _draws(self, count):
        """Seeded indecomposable ranks of 1-4 layers with two taus below."""
        rng = random.Random(2018)
        out = []
        while len(out) < count:
            xi = random_ordinal(rng, height=2, max_terms=3, max_coeff=2)
            if xi.is_zero or not 1 <= factorize(omega_pow(xi)).lam <= 4:
                continue
            gamma = omega_pow(xi)
            out.append((gamma, *_tau_pair(rng, gamma)))
        return out

    def test_matches_reference_loop(self):
        draws = self._draws(300)
        assert {factorize(g).lam for g, _, _ in draws} == {1, 2, 3, 4}
        assert {separation_of_taus(*d) for d in draws} == {0, 1, 2, 3}
        for gamma, tau_s, tau_t in draws:
            assert separation_of_taus(gamma, tau_s, tau_t) == \
                _reference_of_taus(gamma, tau_s, tau_t), (gamma, tau_s, tau_t)

    @pytest.mark.parametrize("gamma", [mul(w, 2), w + 1, ZERO])
    def test_decomposable_rank_rejected(self, gamma):
        for fn in (separation_of_taus, _reference_of_taus):
            with pytest.raises(CanonicalError, match="additively indecomposable"):
                fn(gamma, ONE, ZERO)


class TestBlockSignatures:
    """Separation read off two block signatures agrees with the pairwise
    definition, and undefined separation raises the same errors."""

    @pytest.mark.parametrize("text", ["w^2", "w^3", "w^w", "w^(w+1)", "w^(w*2)", "w^(w^w)"])
    def test_matches_reference_loop(self, text):
        gamma = parse_ordinal(text)
        rng = random.Random(1805)
        seen = set()
        for _ in range(150):
            tau_s, tau_t = _tau_pair(rng, gamma)
            sep = separation_of_facts(tau_facts(gamma, tau_s), tau_facts(gamma, tau_t))
            assert sep == _reference_of_taus(gamma, tau_s, tau_t), (tau_s, tau_t)
            seen.add(sep)
        assert seen == set(range(factorize(gamma).lam))

    def test_signature_is_the_block_at_each_layer(self):
        cube = omega_pow(3)
        tau = add(mul(w2, 2), mul(w, 4)) + 1
        assert tau_facts(cube, tau, 2) == (tau, 2, cube, (add(mul(w, 2), 4), ordinal(2), ZERO))

    def test_taus_that_do_not_meet(self):
        with pytest.raises(CanonicalError, match="do not meet below rank w"):
            separation_of_facts(tau_facts(w, w), tau_facts(w, mul(w, 2)))

    @pytest.mark.parametrize("tree,message", [
        (CanonicalTree.of(1, w2), "alpha = 0"),
        (CanonicalTree.of(0, mul(w, 2)), r"additively indecomposable rank, got w\*2"),
    ])
    def test_undefined_separation_raises_at_the_pair(self, tree, message):
        s = (w + 3,)
        facts = node_facts(tree, (s, s + (ordinal(2),)))
        assert [f.depth for f in facts] == [1, 2]
        with pytest.raises(CanonicalError, match=message):
            separation_of_facts(*facts)
        with pytest.raises(CanonicalError, match=message):
            separation(tree, s, s + (ordinal(2),))

    def test_pair_facts_checks_order_and_membership(self, square):
        with pytest.raises(CanonicalError, match="separation needs s < t"):
            pair_facts(square, (w,), (w + 1,))
        with pytest.raises(CanonicalError, match=r"is not in I\(0, w\^2\)"):
            pair_facts(square, (w,), (w, w + 1))


class TestTruncation:
    def test_full_small_tree(self):
        window = truncate(CanonicalTree.of(0, 3), 3, 3)
        assert len(window.tree) == 7
        assert window.tree.rank() == 3
        assert all(window.complete)

    def test_complete_marks_exactly_the_window_nodes(self):
        window = truncate(CanonicalTree.of(0, w2), 3, 3)
        assert set(range(len(window.complete))) == set(window.tree.ids)

    def test_depth_one(self):
        window = truncate(CanonicalTree.of(0, w), 1, 4)
        assert len(window.tree) == 4
        assert window.tree.rank() == 1

    def test_sampled_roots_below_omega_squared(self):
        window = truncate(CanonicalTree.of(0, w2), 2, 2)
        roots = {node_to_text(window.node_of(i)) for i in window.tree.roots()}
        assert roots == {"w + 1", "w"}

    def test_tau_agreement_on_complete_windows(self):
        for n in (3, 5):
            window = instantiate(n)
            for i in window.tree.ids:
                assert ordinal(window.tree.tau(i)) == node_tau(window.source, window.node_of(i))

    def test_separation_cross_check_against_finite(self):
        # on a fully materialized window, symbolic separation matches the
        # index computed from finite tau values block by block
        window = truncate(CanonicalTree.of(0, w2), 3, 4)
        for i_s, i_t in window.tree.ordered_pairs():
            s, t = window.node_of(i_s), window.node_of(i_t)
            expected = separation_of_taus(w2, node_tau(window.source, s),
                                          node_tau(window.source, t))
            assert separation(window.source, s, t) == expected

    def test_truncation_respects_alpha_floor(self):
        window = truncate(CanonicalTree.of(w, mul(w, 2)), 2, 3)
        for i in window.tree.ids:
            node = window.node_of(i)
            assert all(entry >= w for entry in node)

    def test_deep_window_is_a_chain(self):
        window = truncate(CanonicalTree.of(0, 3000), 3000, 1)
        assert window.tree.parents == (None, *range(2999))
        assert window.node_of(2999) == tuple(map(ordinal, range(2999, -1, -1)))

    @pytest.mark.parametrize("text", [
        "w + 5, w*2", "2, w^(w + 1)", "3, w*2 + 1", "w, w^2 + 3", "w^2, w^3*2"])
    @pytest.mark.parametrize("depth,width", [(1, 1), (3, 3), (4, 2), (2, 5)])
    def test_window_is_alpha_plus_the_window_of_its_rank(self, text, depth, width):
        # adding alpha to every entry maps I(0, rho) onto I(alpha, alpha + rho)
        alpha, beta = map(parse_ordinal, text.split(","))
        rho = rank_symbolic(CanonicalTree(alpha, beta))
        window = truncate(CanonicalTree(alpha, beta), depth, width)
        base = truncate(CanonicalTree(ZERO, rho), depth, width)
        assert len(window.tree) > 0
        assert (window.tree, window.complete) == (base.tree, base.complete)
        nodes = [window.node_of(i) for i in window.tree.ids]
        assert nodes == [tuple(add(alpha, x) for x in base.node_of(i)) for i in base.tree.ids]
        assert window.tree.rank() == reference_window_rank(rho, Budget(depth, width))
        _, at = piece_window(EntryPiece(alpha, EntryMap.identity(rho)), depth, width)
        assert [node for node, _ in at] == nodes

    def test_rejects_degenerate_budgets(self):
        with pytest.raises(CanonicalError):
            truncate(CanonicalTree.of(0, 3), 0, 3)

    def test_empty_tree_gives_empty_window(self):
        window = truncate(CanonicalTree.of(w, w), 3, 3)
        assert len(window.tree) == 0
        assert window.tree.rank() == 0


class TestDerivativeIdentity:
    """Iterated derivatives of a window agree with symbolic membership on
    nodes whose full child set was materialized."""

    @pytest.mark.parametrize("beta,depth,width", [
        (ordinal(4), 4, 4),
        (w, 3, 3),
        (w2, 3, 3),
    ])
    def test_window_vs_symbolic(self, beta, depth, width):
        tree = CanonicalTree.of(0, beta)
        window = truncate(tree, depth, width)
        finite = window.tree
        closed = {i for i in finite.ids
                  if window.complete[i]
                  and all(window.complete[d] for d in finite.descendants(i))}
        assert closed, "sampling should complete at least the bottom layer"
        from treeramsey.ordinal import add
        for z in range(1, finite.rank() + 1):
            derived = set(finite.iterated_derivative(z).ids)
            shifted = CanonicalTree(add(tree.alpha, ordinal(z)), tree.beta)
            for i in closed:
                assert (i in derived) == (window.node_of(i) in shifted)
