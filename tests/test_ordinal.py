import copy
import pickle
import random

import pytest

from treeramsey.canonical import CanonicalTree, truncate
from treeramsey.ordinal import (
    _DESCENDED,
    _FACTORIZED,
    _INTERNED,
    MEMO_CAP,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    _less,
    add,
    compare,
    descend_below,
    factorize,
    fundamental_sequence,
    is_additively_indecomposable,
    is_multiplicatively_indecomposable,
    left_divide,
    left_subtract,
    mul,
    omega_pow,
    ordinal,
    parse_ordinal,
    sum_decompose,
)
from treeramsey.generate import random_ordinal

w = OMEGA
w2 = omega_pow(2)


class TestCompare:
    def test_zero_one(self):
        assert compare(0, 1) == -1

    def test_equal(self):
        assert compare(w, w) == 0

    def test_leading_exponent_dominates(self):
        # w*2+1 has leading exponent 1, below the exponent 2 of w^2
        assert compare(mul(w, 2) + 1, w2) == -1

    def test_int_interop(self):
        assert ordinal(3) < w
        assert not (w < ordinal(3))

    def test_operators_agree_with_compare_against_ints(self):
        # an Ordinal never == an int, so each operator must go through compare
        rng = random.Random(1207)
        for _ in range(400):
            n = rng.randrange(0, 6)
            x = ordinal(rng.randrange(0, 6)) if rng.random() < 0.5 else random_ordinal(rng)
            for a, b in ((x, n), (n, x)):
                c = compare(a, b)
                assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0), (a, b)


class TestAdd:
    def test_successor(self):
        assert add(w, 1) == parse_ordinal("w + 1")

    def test_absorption(self):
        assert add(1, w) == w

    def test_trailing_terms_dropped(self):
        assert add(w2 + w, w2) == mul(w2, 2)

    def test_associative_examples(self):
        a, b, c = parse_ordinal("w*2+1"), parse_ordinal("w^2"), parse_ordinal("3")
        assert add(add(a, b), c) == add(a, add(b, c))


class TestMul:
    def test_omega_squared(self):
        assert mul(w, w) == w2

    def test_left_absorption(self):
        assert mul(2, w) == w

    def test_sup_of_finite_products(self):
        # (w+1)*n = w*n + 1 for every finite n, so (w+1)*w = w^2
        for n in range(1, 6):
            assert mul(w + 1, n) == mul(w, n) + 1
        assert mul(w + 1, w) == w2

    def test_zero(self):
        assert mul(ZERO, w) == ZERO
        assert mul(w, ZERO) == ZERO


class TestOmegaPow:
    @pytest.mark.parametrize("e,expected", [
        (0, "1"),
        (1, "w"),
    ])
    def test_small(self, e, expected):
        assert str(omega_pow(e)) == expected

    def test_omega_exponent(self):
        assert omega_pow(w) == parse_ordinal("w^w")


class TestLeftSubtract:
    def test_basic(self):
        assert left_subtract(w, mul(w, 2)) == w
        assert left_subtract(ordinal(5), w) == w
        assert left_subtract(w + 1, mul(w, 2)) == w

    def test_rejects_larger(self):
        with pytest.raises(OrdinalError):
            left_subtract(w2, w)


class TestLeftDivide:
    def test_example(self):
        assert left_divide(w, mul(w, 2) + 3) == (ordinal(2), ordinal(3))

    def test_exact(self):
        assert left_divide(w2, w2) == (ONE, ZERO)

    def test_small_dividend(self):
        assert left_divide(w, 5) == (ZERO, ordinal(5))

    def test_rejects_zero(self):
        with pytest.raises(OrdinalError):
            left_divide(ZERO, w)

    def test_tail_adjustment(self):
        # (w+1)*2 = w*2+1 exceeds w*2, so the quotient drops to 1
        delta, rem = left_divide(w + 1, mul(w, 2))
        assert delta == ONE and rem == w


class TestIndecomposability:
    def test_additive(self):
        assert is_additively_indecomposable(w2)
        assert not is_additively_indecomposable(mul(w, 2))
        assert is_additively_indecomposable(1)
        assert not is_additively_indecomposable(0)

    def test_multiplicative(self):
        assert is_multiplicatively_indecomposable(2)
        assert not is_multiplicatively_indecomposable(w2)
        assert is_multiplicatively_indecomposable(w)
        assert is_multiplicatively_indecomposable(omega_pow(w))
        assert not is_multiplicatively_indecomposable(3)


class TestFactorize:
    def test_one(self):
        fact = factorize(ONE)
        assert fact.epsilons == () and fact.lam == 0
        assert fact.factors == () and fact.cofactors == ()

    def test_omega_cubed(self):
        fact = factorize(omega_pow(3))
        assert fact.epsilons == (ZERO, ZERO, ZERO)
        assert fact.lam == 3
        product = ONE
        for e in fact.epsilons:
            product = mul(product, omega_pow(omega_pow(e)))
        assert product == omega_pow(3)

    def test_mixed(self):
        fact = factorize(omega_pow(w + 1))
        assert fact.epsilons == (ONE, ZERO)
        assert fact.lam == 2
        assert fact.factors == (omega_pow(w), omega_pow(w + 1))
        assert fact.cofactors == (w, ONE)

    def test_prefix_times_cofactor(self):
        g = omega_pow(parse_ordinal("w^2 + w + 1"))
        fact = factorize(g)
        for a, r in zip(fact.factors, fact.cofactors):
            assert mul(a, r) == g

    def test_rejects_decomposable(self):
        with pytest.raises(OrdinalError):
            factorize(mul(w, 2))


class TestSumDecompose:
    def test_finite(self):
        assert sum_decompose(3) == (ZERO, ZERO, ZERO)

    def test_with_coefficients(self):
        assert sum_decompose(mul(w, 2) + 1) == (ONE, ONE, ZERO)

    def test_partial_sums_resum(self):
        g = w2 + mul(w, 2)
        sd = sum_decompose(g)
        assert sd == (ordinal(2), ONE, ONE)
        acc = ZERO
        for e in sd:
            acc = add(acc, omega_pow(e))
        assert acc == g

    def test_rejects_zero(self):
        with pytest.raises(OrdinalError):
            sum_decompose(ZERO)


class TestTextSyntax:
    def test_round_trip(self):
        text = "w^(w + 1)*2 + w*3 + 5"
        value = parse_ordinal(text)
        assert parse_ordinal(str(value)) == value

    def test_normalization(self):
        assert parse_ordinal("1 + w") == w

    def test_whitespace_insensitive(self):
        assert parse_ordinal(" w ^ ( w ) ") == omega_pow(w)

    def test_bare_exponent(self):
        assert parse_ordinal("w^2") == w2

    def test_rejects_garbage(self):
        for bad in ("w^", "w*(2)", "q", "w^()", "1 +"):
            with pytest.raises(OrdinalError):
                parse_ordinal(bad)


class TestFundamentalSequences:
    def test_omega(self):
        assert fundamental_sequence(w, 3) == ordinal(3)

    def test_omega_squared(self):
        assert fundamental_sequence(w2, 2) == mul(w, 2)

    def test_omega_tower(self):
        assert fundamental_sequence(omega_pow(w), 3) == omega_pow(3)

    def test_rejects_successor(self):
        with pytest.raises(OrdinalError):
            fundamental_sequence(w + 1, 2)

    def test_descending_sample(self):
        assert descend_below(w2, 2) == [w + 1, w]
        assert descend_below(w, 4) == [ordinal(3), ordinal(2), ONE, ZERO]
        assert descend_below(mul(w, 2), 3) == [w + 2, w + 1, w]
        # the window of I(1, w) is 1 plus the window of I(0, w), which
        # samples descend_below(w, 3) = [2, 1, 0]
        window = truncate(CanonicalTree.of(1, w), 1, 3)
        assert [window.node_of(i) for i in window.tree.ids] == [
            (ordinal(3),), (ordinal(2),), (ONE,)]


class TestLaws:
    """Randomized exact laws; the acceptance suite runs the full volume."""

    def setup_method(self):
        self.rng = random.Random(20240817)

    def test_associativity_and_distributivity(self):
        for _ in range(150):
            a, b, c = (random_ordinal(self.rng) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    def test_division_soundness(self):
        for _ in range(150):
            a = random_ordinal(self.rng)
            xi = random_ordinal(self.rng)
            if a.is_zero:
                continue
            delta, rem = left_divide(a, xi)
            assert add(mul(a, delta), rem) == xi
            assert compare(mul(a, add(delta, ONE)), xi) > 0

    def test_subtraction_round_trip(self):
        for _ in range(150):
            a, b = random_ordinal(self.rng), random_ordinal(self.rng)
            lo, hi = (a, b) if compare(a, b) <= 0 else (b, a)
            assert add(lo, left_subtract(lo, hi)) == hi

    def test_decompositions_reconstruct(self):
        for _ in range(100):
            g = random_ordinal(self.rng)
            if g.is_zero:
                continue
            acc = ZERO
            for e in sum_decompose(g):
                acc = add(acc, omega_pow(e))
            assert acc == g
            h = omega_pow(g)
            fact = factorize(h)
            prod = ONE
            for e in fact.epsilons:
                prod = mul(prod, omega_pow(omega_pow(e)))
            assert prod == h

    def test_hashable_and_unique(self):
        seen = {}
        for _ in range(100):
            g = random_ordinal(self.rng)
            seen[g] = str(g)
        for g, text in seen.items():
            assert parse_ordinal(text) == g


# -- reference: the arithmetic without interning shortcuts or memo tables ------------


def _ref_eq(a, b):
    return len(a.terms) == len(b.terms) and all(
        ca == cb and _ref_eq(ea, eb) for (ea, ca), (eb, cb) in zip(a.terms, b.terms))


def _ref_less(a, b):
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if not _ref_eq(ea, eb):
            return _ref_less(ea, eb)
        if ca != cb:
            return ca < cb
    return len(a.terms) < len(b.terms)


def _ref_compare(a, b):
    if _ref_eq(a, b):
        return 0
    return -1 if _ref_less(a, b) else 1


def _ref_add(a, b):
    if not b.terms:
        return a
    if not a.terms:
        return b
    eb = b.terms[0][0]
    keep = [t for t in a.terms if _ref_less(eb, t[0])]
    if len(keep) < len(a.terms) and _ref_eq(a.terms[len(keep)][0], eb):
        merged = (eb, a.terms[len(keep)][1] + b.terms[0][1])
        return Ordinal(tuple(keep) + (merged,) + b.terms[1:])
    return Ordinal(tuple(keep) + b.terms)


def _ref_mul(a, b):
    if not a.terms or not b.terms:
        return ZERO
    ea = a.terms[0][0]
    out = []
    for eb, cb in b.terms:
        if not eb.terms:
            out.append((ea, a.terms[0][1] * cb))
            out.extend(a.terms[1:])
        else:
            out.append((_ref_add(ea, eb), cb))
    return Ordinal(tuple(out))


def _ref_left_subtract(a, b):
    for i, ((ea, ca), (eb, cb)) in enumerate(zip(a.terms, b.terms)):
        if _ref_eq(ea, eb) and ca == cb:
            continue
        if _ref_eq(ea, eb) and ca < cb:
            return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
        assert _ref_less(ea, eb)
        return Ordinal(b.terms[i:])
    assert len(a.terms) <= len(b.terms)
    return Ordinal(b.terms[len(a.terms):])


def _ref_left_divide(alpha, xi):
    a0, c0 = alpha.terms[0]
    delta_terms = []
    finite_part = 0
    for i, (e, m) in enumerate(xi.terms):
        if _ref_less(a0, e):
            delta_terms.append((_ref_left_subtract(a0, e), m))
        elif _ref_eq(e, a0):
            n = m // c0
            if n >= 1 and c0 * n == m and _ref_less(Ordinal(xi.terms[i + 1:]),
                                                     Ordinal(alpha.terms[1:])):
                n -= 1
            finite_part = n
            break
        else:
            break
    delta = Ordinal(tuple(delta_terms))
    if finite_part:
        delta = _ref_add(delta, Ordinal(((ZERO, finite_part),)))
    return delta, _ref_left_subtract(_ref_mul(alpha, delta), xi)


class TestHashConsing:
    """Equal ordinals are one object, with a structural hash; the memo
    tables agree with uncached arithmetic and stay within their cap."""

    def test_equal_values_are_one_object(self):
        assert parse_ordinal("w^2+1") is add(omega_pow(2), 1)
        assert Ordinal(((ONE, 1),)) is OMEGA
        value = parse_ordinal("w^(w + 1)*2 + w*3 + 5")
        assert hash(value) == hash((value.terms,))
        with pytest.raises(AttributeError):
            value.terms = ()

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_same_object(self, round_trip):
        value = parse_ordinal("w^(w + 1)*2 + w*3 + 5")
        assert round_trip(value) is value
        assert round_trip([ZERO, value])[1] is value

    @pytest.mark.parametrize("terms", [
        (("x", 1),),
        ((ZERO, 0),),
        ((ZERO, 1), (ONE, 1)),
        ((OMEGA, 1), (OMEGA, 2)),
        ((ZERO, 1.5),),
    ])
    def test_malformed_terms_are_not_interned(self, terms):
        with pytest.raises(OrdinalError):
            Ordinal(terms)
        assert terms not in _INTERNED

    def test_text_round_trip_returns_the_same_object(self):
        rng = random.Random(20240817)
        for _ in range(300):
            value = random_ordinal(rng)
            assert parse_ordinal(str(value)) is value

    def test_memoized_arithmetic_matches_uncached(self):
        rng = random.Random(4242)
        pool = [random_ordinal(rng) for _ in range(60)]
        for _ in range(2000):
            a, b = rng.choice(pool), rng.choice(pool)
            assert compare(a, b) == _ref_compare(a, b)
            assert _less(a, b) == _ref_less(a, b)
            assert add(a, b) is _ref_add(a, b)
            assert mul(a, b) is _ref_mul(a, b)
            lo, hi = (a, b) if _ref_compare(a, b) <= 0 else (b, a)
            assert left_subtract(lo, hi) is _ref_left_subtract(lo, hi)
            if a.terms:
                delta, rem = left_divide(a, b)
                ref_delta, ref_rem = _ref_left_divide(a, b)
                assert delta is ref_delta and rem is ref_rem

    @pytest.mark.parametrize("fn", [add, mul, left_subtract, left_divide],
                             ids=lambda fn: fn.__name__)
    def test_memo_table_stays_within_its_cap(self, fn):
        for i in range(MEMO_CAP + 10):
            fn(ordinal(i + 1), OMEGA)
            assert len(fn.memo) <= MEMO_CAP
        assert fn.memo

    def test_factorize_memo_stays_within_its_cap(self):
        for i in range(MEMO_CAP + 10):
            g = omega_pow(omega_pow(i))
            assert factorize(g) is factorize(g)
            assert factorize(g).epsilons == (ordinal(i),)
            assert len(_FACTORIZED) <= MEMO_CAP
        for _ in range(2):  # a rejected argument is not remembered
            with pytest.raises(OrdinalError):
                factorize(mul(w, 2))

    def test_descend_below_memo_stays_within_its_cap(self):
        for i in range(MEMO_CAP + 10):
            assert descend_below(i + 1, 1) == [ordinal(i)]
            assert len(_DESCENDED) <= MEMO_CAP
        assert _DESCENDED

    def test_descend_below_returns_a_fresh_list(self):
        first = descend_below(w2, 3)
        first.append(ZERO)
        again = descend_below(w2, 3)
        assert again == [mul(w, 2) + 2, mul(w, 2) + 1, mul(w, 2)] and again is not first
