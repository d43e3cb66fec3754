"""Exact arithmetic for ordinals below epsilon-zero in Cantor normal form.

An ordinal is a finite sum ``w^e0*c0 + w^e1*c1 + ...`` with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is 0.  Exponents are themselves ordinals of the same kind, so the
representation is finite and canonical.

Values are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): constructing a term list returns the one live
``Ordinal`` with those terms, so equal values are the same object and
equality is identity.  The hash is structural, computed once, and the same
in every run; so is the comparison key, nested tuples of coefficients that
Python compares in the order of the normal forms.  ``add``, ``mul``,
``left_subtract`` and ``left_divide`` remember their results in tables
keyed on the interned operands, ``factorize`` in one keyed on its
interned argument, and ``descend_below`` in one keyed on its interned
bound and width; each table holds at most ``MEMO_CAP`` entries and is
emptied when it fills.
"""

from __future__ import annotations

import re
import weakref
from functools import wraps
from itertools import accumulate, count
from typing import NamedTuple


class OrdinalError(ValueError):
    pass


# entries per memo table; a full table is emptied before the next entry
MEMO_CAP = 4096

# terms -> the live Ordinal with those terms
_INTERNED: "weakref.WeakValueDictionary[tuple, Ordinal]" = weakref.WeakValueDictionary()
# serial numbers of interned values, in order of construction
_SERIAL = count()


class Ordinal:
    """Cantor normal form: tuple of (exponent, coefficient) pairs.

    ``Ordinal(terms)`` returns the interned value; equality is the
    inherited identity test, since equal terms give the same object.
    ``_key`` replaces each exponent by its own key, so two keys compare as
    the normal forms do: term by term, exponent first, a proper prefix
    first.
    """

    __slots__ = ("terms", "_key", "_hash", "_serial", "__weakref__")
    terms: tuple[tuple["Ordinal", int], ...]

    def __new__(cls, terms: tuple[tuple["Ordinal", int], ...] = ()) -> "Ordinal":
        try:
            hit = _INTERNED.get(terms)
        except TypeError:  # an unhashable term is malformed: validation names it
            hit = None
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        self.__post_init__()
        object.__setattr__(self, "_key", tuple((e._key, c) for e, c in terms))
        object.__setattr__(self, "_hash", hash((terms,)))
        object.__setattr__(self, "_serial", next(_SERIAL))
        _INTERNED[terms] = self
        return self

    def __post_init__(self) -> None:
        """Validate a new value; runs once per interned value."""
        for e, c in self.terms:
            if not isinstance(e, Ordinal) or not isinstance(c, int) or c < 1:
                raise OrdinalError(f"malformed term ({e!r}, {c!r})")
        for (e1, _), (e2, _) in zip(self.terms, self.terms[1:]):
            if not _less(e2, e1):
                raise OrdinalError("exponents must be strictly decreasing")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ordinals are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ordinals are immutable")

    def __reduce__(self):
        # unpickling interns again, so a round trip returns the same object
        return Ordinal, (self.terms,)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def as_int(self) -> int:
        if self.is_zero:
            return 0
        if not self.is_finite:
            raise OrdinalError(f"{self} is infinite")
        return self.terms[0][1]

    @property
    def leading_exponent(self) -> "Ordinal":
        if self.is_zero:
            raise OrdinalError("0 has no leading term")
        return self.terms[0][0]

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor")
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        if c > 1:
            rest = rest + ((e, c - 1),)
        return Ordinal(rest)

    # -- comparison / arithmetic -------------------------------------------

    # spelled out rather than derived from __lt__ and ==: an Ordinal never
    # equals an int, so derived operators would get ordinal(3) <= 3 wrong
    def __lt__(self, other: "Ordinal | int") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Ordinal | int") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Ordinal | int") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Ordinal | int") -> bool:
        return compare(self, other) >= 0

    def __add__(self, other) -> "Ordinal":
        return add(self, other)

    def __radd__(self, other) -> "Ordinal":
        return add(other, self)

    def __mul__(self, other) -> "Ordinal":
        return mul(self, other)

    def __rmul__(self, other) -> "Ordinal":
        return mul(other, self)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def ordinal(x: "Ordinal | int") -> Ordinal:
    """Coerce an int (or Ordinal) to an Ordinal."""
    return _coerce(x)


def _coerce(x) -> Ordinal:
    if type(x) is Ordinal:
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


def _memoized(fn):
    """Remember ``fn(a, b)`` per pair of interned operands, in a table of
    at most MEMO_CAP entries (``.memo``) that is emptied when it fills.
    Int operands are coerced first; raised errors are not remembered.

    Keys are the operands' serial numbers: a pair of ints hashes without a
    Python call, holds no operand alive, and no serial is ever reused."""
    memo: dict[tuple[int, int], object] = {}

    @wraps(fn)
    def memoized(a, b):
        if type(a) is not Ordinal:
            a = _coerce(a)
        if type(b) is not Ordinal:
            b = _coerce(b)
        key = (a._serial, b._serial)
        try:
            return memo[key]
        except KeyError:
            pass
        out = fn(a, b)
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[key] = out
        return out

    memoized.memo = memo
    return memoized


def _less(a: Ordinal, b: Ordinal) -> bool:
    return a._key < b._key


def compare(a: "Ordinal | int", b: "Ordinal | int") -> int:
    """-1, 0 or 1 as a <, =, > b."""
    if type(a) is not Ordinal:
        a = _coerce(a)
    if type(b) is not Ordinal:
        b = _coerce(b)
    if a is b:
        return 0
    return -1 if a._key < b._key else 1


@_memoized
def add(a: "Ordinal | int", b: "Ordinal | int") -> Ordinal:
    """Ordinal sum.  Terms of a below the leading exponent of b are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    eb = b.leading_exponent
    keep = [t for t in a.terms if _less(eb, t[0])]
    if len(keep) < len(a.terms) and a.terms[len(keep)][0] is eb:
        merged = (eb, a.terms[len(keep)][1] + b.terms[0][1])
        return Ordinal(tuple(keep) + (merged,) + b.terms[1:])
    return Ordinal(tuple(keep) + b.terms)


@_memoized
def mul(a: "Ordinal | int", b: "Ordinal | int") -> Ordinal:
    """Ordinal product (left-distributes over +: a*(b+c) = a*b + a*c)."""
    if a.is_zero or b.is_zero:
        return ZERO
    ea = a.leading_exponent
    out: list[tuple[Ordinal, int]] = []
    for eb, cb in b.terms:
        if eb.is_zero:
            # a * n = w^ea * (ca*n) followed by the lower terms of a
            out.append((ea, a.terms[0][1] * cb))
            out.extend(a.terms[1:])
        else:
            out.append((add(ea, eb), cb))
    return Ordinal(tuple(out))


def omega_pow(e: "Ordinal | int") -> Ordinal:
    """w**e as a single-term normal form."""
    return Ordinal(((_coerce(e), 1),))


@_memoized
def left_subtract(a: "Ordinal | int", b: "Ordinal | int") -> Ordinal:
    """The unique c with a + c = b; requires a <= b."""
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        (ea, ca), (eb, cb) = ta, tb
        if ea is eb and ca < cb:
            return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
        if _less(ea, eb):
            return Ordinal(b.terms[i:])
        raise OrdinalError(f"{a} > {b}: cannot subtract on the left")
    if len(a.terms) > len(b.terms):
        raise OrdinalError(f"{a} > {b}: cannot subtract on the left")
    return Ordinal(b.terms[len(a.terms):])


@_memoized
def left_divide(alpha: "Ordinal | int", xi: "Ordinal | int") -> tuple[Ordinal, Ordinal]:
    """Greatest delta with alpha*delta <= xi, and the remainder.

    Returns (delta, rem) with alpha*delta + rem = xi and alpha*(delta+1) > xi.
    Computed term by term on the normal form of xi; no search.
    """
    if alpha.is_zero:
        raise OrdinalError("division by 0")
    a0 = alpha.leading_exponent
    c0 = alpha.terms[0][1]
    delta_terms: list[tuple[Ordinal, int]] = []
    finite_part = 0
    for i, (e, m) in enumerate(xi.terms):
        if _less(a0, e):
            delta_terms.append((left_subtract(a0, e), m))
        elif e is a0:
            n = m // c0
            if n >= 1 and c0 * n == m:
                # exact leading fit: the tail of alpha must fit under the tail of xi
                tail_alpha = Ordinal(alpha.terms[1:])
                tail_xi = Ordinal(xi.terms[i + 1:])
                if _less(tail_xi, tail_alpha):
                    n -= 1
            finite_part = n
            break
        else:
            break
    delta = Ordinal(tuple(delta_terms))
    if finite_part:
        delta = add(delta, finite_part)
    rem = left_subtract(mul(alpha, delta), xi)
    return delta, rem


def is_additively_indecomposable(g: "Ordinal | int") -> bool:
    """True when g = w**xi for some xi (equivalently a+g = g for all a < g)."""
    g = _coerce(g)
    return len(g.terms) == 1 and g.terms[0][1] == 1


def is_multiplicatively_indecomposable(g: "Ordinal | int") -> bool:
    """True when g is 1, 2, or w**(w**xi) for some xi."""
    g = _coerce(g)
    if g == ONE or g == Ordinal.from_int(2):
        return True
    if not is_additively_indecomposable(g):
        return False
    return is_additively_indecomposable(g.leading_exponent) and not g.leading_exponent.is_zero


class IndecomposableFactorization(NamedTuple):
    """g = w^(w^e0) * ... * w^(w^el) with e0 >= ... >= el; empty for g = 1.

    ``factors[i]`` is the prefix product through index i, built once by
    ``factorize``; ``cofactors[i]`` is the complementary suffix product,
    computed on each read, so factors[i] * cofactors[i] = g for every i.
    """

    epsilons: tuple[Ordinal, ...]
    factors: tuple[Ordinal, ...]

    @property
    def lam(self) -> int:
        return len(self.epsilons)

    @property
    def cofactors(self) -> tuple[Ordinal, ...]:
        out, acc = [], ONE
        for e in reversed(self.epsilons):
            out.append(acc)
            acc = mul(omega_pow(omega_pow(e)), acc)
        return tuple(reversed(out))


# serial of g -> factorize(g), at most MEMO_CAP entries
_FACTORIZED: dict[int, IndecomposableFactorization] = {}


def factorize(g: "Ordinal | int") -> IndecomposableFactorization:
    """Decompose an additively indecomposable g into multiplicative layers;
    the result is remembered per interned g, like the binary operations."""
    g = _coerce(g)
    hit = _FACTORIZED.get(g._serial)
    if hit is not None:
        return hit
    if not is_additively_indecomposable(g):
        raise OrdinalError(f"{g} is not additively indecomposable")
    xi = g.leading_exponent
    epsilons = () if xi.is_zero else sum_decompose(xi)
    fact = IndecomposableFactorization(
        epsilons, tuple(accumulate((omega_pow(omega_pow(e)) for e in epsilons), mul)))
    if len(_FACTORIZED) >= MEMO_CAP:
        _FACTORIZED.clear()
    _FACTORIZED[g._serial] = fact
    return fact


def sum_decompose(g: "Ordinal | int") -> tuple[Ordinal, ...]:
    """The exponents e0 >= ... >= el of g = w^e0 + ... + w^el."""
    g = _coerce(g)
    if g.is_zero:
        raise OrdinalError("0 has no indecomposable sum decomposition")
    return tuple(e for e, c in g.terms for _ in range(c))


def fundamental_sequence(o: "Ordinal | int", n: int) -> Ordinal:
    """n-th entry of the canonical increasing sequence converging to limit o."""
    o = _coerce(o)
    if not o.is_limit:
        raise OrdinalError(f"{o} is not a limit ordinal")
    e, c = o.terms[-1]
    head = o.terms[:-1] if c == 1 else o.terms[:-1] + ((e, c - 1),)
    base = Ordinal(head)
    if e.is_successor:
        step = omega_pow(e.predecessor())
        return add(base, mul(step, n))
    return add(base, omega_pow(fundamental_sequence(e, n)))


# (serial of bound, width) -> descend_below's values, at most MEMO_CAP entries
_DESCENDED: dict[tuple[int, int], tuple[Ordinal, ...]] = {}


def descend_below(bound: "Ordinal | int", width: int) -> list[Ordinal]:
    """Up to ``width`` strictly decreasing ordinals below ``bound``.

    Successors step down by one; at a limit the walk jumps into the
    fundamental sequence at index ``width`` without emitting, so the
    emitted values sit just below canonical limit points.
    """
    bound = _coerce(bound)
    key = (bound._serial, width)
    hit = _DESCENDED.get(key)
    if hit is not None:
        return list(hit)
    out: list[Ordinal] = []
    cur = bound
    while len(out) < width and not cur.is_zero:
        if cur.is_successor:
            cur = cur.predecessor()
            out.append(cur)
        else:
            cur = fundamental_sequence(cur, width)
    if len(_DESCENDED) >= MEMO_CAP:
        _DESCENDED.clear()
    _DESCENDED[key] = tuple(out)
    return out


# -- text syntax ------------------------------------------------------------
#
#   expr   := term ('+' term)*
#   term   := factor ('*' nat)? | nat
#   factor := 'w' ('^' '(' expr ')')? | 'w' '^' (nat | 'w')
#
# Non-canonical input such as "1 + w" is normalized while parsing.

_TOKEN = re.compile(r"\s*(\d+|[w^()*+])")


def parse_ordinal(text: str) -> Ordinal:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise OrdinalError(f"bad ordinal syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    try:
        value, rest = _parse_expr(tokens)
    except RecursionError:
        raise OrdinalError("ordinal expression nested too deeply") from None
    if rest:
        raise OrdinalError(f"trailing tokens {rest!r} in {text!r}")
    return value


def _parse_expr(toks: list[str]) -> tuple[Ordinal, list[str]]:
    value, toks = _parse_term(toks)
    while toks and toks[0] == "+":
        nxt, toks = _parse_term(toks[1:])
        value = add(value, nxt)
    return value, toks


def _parse_term(toks: list[str]) -> tuple[Ordinal, list[str]]:
    if not toks:
        raise OrdinalError("unexpected end of ordinal expression")
    if toks[0].isdigit():
        return Ordinal.from_int(int(toks[0])), toks[1:]
    if toks[0] != "w":
        raise OrdinalError(f"unexpected token {toks[0]!r}")
    toks = toks[1:]
    exponent = ONE
    if toks and toks[0] == "^":
        toks = toks[1:]
        if toks and toks[0] == "(":
            exponent, toks = _parse_expr(toks[1:])
            if not toks or toks[0] != ")":
                raise OrdinalError("missing ')' in ordinal expression")
            toks = toks[1:]
        elif toks and toks[0].isdigit():
            exponent = Ordinal.from_int(int(toks[0]))
            toks = toks[1:]
        elif toks and toks[0] == "w":
            exponent = OMEGA
            toks = toks[1:]
        else:
            raise OrdinalError("dangling '^' in ordinal expression")
    value = omega_pow(exponent)
    if toks and toks[0] == "*":
        if len(toks) < 2 or not toks[1].isdigit():
            raise OrdinalError("'*' must be followed by a natural number")
        value = mul(value, int(toks[1]))
        toks = toks[2:]
    return value, toks


def format_ordinal(o: Ordinal) -> str:
    if o.is_zero:
        return "0"
    parts = []
    for e, c in o.terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite or e == OMEGA:
            base = f"w^{format_ordinal(e)}"
        else:
            base = f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)
