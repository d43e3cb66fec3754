"""Rule colorings: pair colorings on canonical trees given as expressions.

A rule assigns a color to a comparable pair (s, t) of canonical nodes from
a fixed set of primitives: the separation index ``sep``, block positions
``tau(<ordinal>, s|t)``, sequence lengths ``depth(s|t)``, naturals, ``mod``
reduction, lookup tables applied to the separation, and ``if/else`` over
comparisons.  This is the class of colorings the transfinite stabilizer
can evaluate without materializing infinite trees.

Text examples::

    F[sep] with F=(1,0)
    tau(w, s) mod 2
    if depth(t) > 3 then 1 else 0
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Sequence

from .canonical import NodeFacts, separation_of_facts
from .ordinal import Ordinal, left_divide, ordinal, parse_ordinal


class RuleError(ValueError):
    pass


# what a rule may read of a pair
PRIMITIVES = frozenset({"sep", "depth", "tau"})


class RuleColoring:
    """Pair coloring evaluated by a closure ``fn(s, t, sep)`` over the facts
    of s and t (``canonical.pair_facts``), so a pair costs no membership
    check; ``sep`` is the pair's separation, None when the caller does not
    have it.  ``reads`` names the primitives the closure reads."""

    def __init__(self, k: int, fn: Callable[..., int], reads: frozenset[str]):
        if k < 0:
            raise RuleError(f"palette bound k must be at least 0, got {k}")
        self.k, self.fn, self.reads = k, fn, reads

    def value(self, s: NodeFacts, t: NodeFacts, sep: int | None = None) -> int:
        """The color of s < t, given their separation ``sep`` if at hand."""
        c = self.fn(s, t, sep)
        if not 0 <= c <= self.k:
            raise RuleError(f"rule produced color {c} outside palette 0..{self.k}")
        return c

    @staticmethod
    def sep_table(table: Sequence[int], k: int | None = None) -> "RuleColoring":
        """The separation-determined coloring with the given lookup table."""
        table = tuple(int(c) for c in table)
        kk = max(table) if k is None else k

        def fn(s, t, sep):
            i = separation_of_facts(s, t) if sep is None else sep
            try:
                return table[i]
            except IndexError:  # the parsed form F[sep] raises the same error
                raise RuleError(f"table index {i} outside 0..{len(table) - 1}") from None

        return RuleColoring(kk, fn, frozenset({"sep"}))

    @staticmethod
    def constant(c: int, k: int | None = None) -> "RuleColoring":
        return RuleColoring(c if k is None else k, lambda s, t, sep: c, frozenset())


# -- tiny expression language -------------------------------------------------


def _align(a, b):
    """Lift mixed int/Ordinal operands to a comparable pair."""
    if isinstance(a, Ordinal) or isinstance(b, Ordinal):
        return ordinal(a), ordinal(b)
    return a, b


_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
        "<=": operator.le, ">=": operator.ge}


def _cmp(op: str, a, b) -> bool:
    return _CMP[op](*_align(a, b))


def parse_rule(text: str, k: int | None = None) -> RuleColoring:
    """Compile the textual rule form to a RuleColoring."""
    try:
        expr, colors, reads = _Parser(text).parse()
    except RecursionError:
        raise RuleError("rule nested too deeply") from None
    kk = k if k is not None else max(colors, default=0)

    def fn(s, t, sep):
        return _finite(expr((s, t, sep)))

    return RuleColoring(kk, fn, frozenset(reads))


class _Parser:
    """Recursive descent over: if/else, table form, arithmetic atoms."""

    def __init__(self, text: str):
        self.text = text
        self.toks = self._lex(text)
        self.pos = 0
        self.colors: set[int] = set()
        self.reads: set[str] = set()

    @staticmethod
    def _lex(text: str) -> list[str]:
        out, pos = [], 0
        spec = re.compile(r"\s*(==|!=|<=|>=|\d+|if|then|else|with|mod|sep|tau|depth"
                          r"|[Fst]|[()\[\],=<>+*^]|w)")
        while pos < len(text):
            m = spec.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise RuleError(f"bad rule syntax at {text[pos:]!r}")
                break
            out.append(m.group(1))
            pos = m.end()
        return out

    def parse(self):
        expr = self._expr()
        if self.pos != len(self.toks):
            raise RuleError(f"trailing tokens {self.toks[self.pos:]} in rule")
        return expr, self.colors, self.reads

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self, expected: str | None = None):
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise RuleError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def _expr(self):
        if self._peek() == "if":
            self._take("if")
            lhs = self._arith()
            op = self._take()
            if op not in _CMP:
                raise RuleError(f"unknown comparison {op!r}")
            rhs = self._arith()
            self._take("then")
            then = self._expr()
            self._take("else")
            other = self._expr()
            return lambda ctx: then(ctx) if _cmp(op, lhs(ctx), rhs(ctx)) else other(ctx)
        if self._peek() == "F":
            return self._table_form()
        return self._arith()

    def _int(self) -> int:
        tok = self._take()
        if not tok.isdigit():
            raise RuleError(f"expected a number, found {tok!r}")
        return int(tok)

    def _table_form(self):
        self._take("F")
        self._take("[")
        index = self._expr()
        self._take("]")
        self._take("with")
        self._take("F")
        self._take("=")
        self._take("(")
        entries = [self._int()]
        while self._peek() == ",":
            self._take(",")
            entries.append(self._int())
        self._take(")")
        self.colors.update(entries)
        table = tuple(entries)

        def fn(ctx, table=table, index=index):
            i = _finite(index(ctx))
            if not 0 <= i < len(table):
                raise RuleError(f"table index {i} outside 0..{len(table) - 1}")
            return table[i]

        return fn

    def _arith(self):
        atom = self._atom()
        if self._peek() == "mod":
            self._take("mod")
            n = self._int()
            if n < 1:
                raise RuleError("mod needs a positive modulus")
            self.colors.add(n - 1)  # only the largest color sets the palette
            return lambda ctx: _finite_mod(atom(ctx), n)
        return atom

    def _atom(self):
        tok = self._peek()
        if tok is None:
            raise RuleError("unexpected end of rule")
        if tok in PRIMITIVES:
            self.reads.add(tok)
        if tok == "sep":
            self._take()
            # ctx is (s, t, their separation or None)
            return lambda ctx: separation_of_facts(ctx[0], ctx[1]) if ctx[2] is None else ctx[2]
        if tok == "depth":
            self._take()
            self._take("(")
            which = 0 if self._take() == "s" else 1
            self._take(")")
            return lambda ctx: ctx[which].depth
        if tok == "tau":
            self._take()
            self._take("(")
            beta_toks = []
            while self._peek() != ",":
                beta_toks.append(self._take())
            beta = parse_ordinal(" ".join(beta_toks))
            self._take(",")
            which = 0 if self._take() == "s" else 1
            self._take(")")
            return lambda ctx: left_divide(beta, ctx[which].tau)[0]
        if tok.isdigit():
            self._take()
            value = int(tok)
            self.colors.add(value)
            return lambda ctx: value
        raise RuleError(f"unexpected token {tok!r} in rule")


def _finite(x) -> int:
    """A rule value as a color or table index; an infinite ordinal raises OrdinalError."""
    return x.as_int() if isinstance(x, Ordinal) else int(x)


def _finite_mod(x, n: int) -> int:
    """Remainder of x under left division by n (finite for finite n)."""
    if isinstance(x, int):
        return x % n
    if isinstance(x, Ordinal):
        return left_divide(ordinal(n), x)[1].as_int()
    raise RuleError(f"cannot reduce {x!r} mod {n}")
