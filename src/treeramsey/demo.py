"""The acceptance matrix: one named check per headline guarantee.

Each check raises AssertionError with a diagnostic on failure and returns
a summary string on success.  ``run_all`` executes the matrix with a
single seeded generator and reports a scoreboard; the test suite runs the
same functions through pytest.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from . import stabilize, transfinite, verify
from .canonical import CanonicalTree, node_tau, separation_of_taus, truncate
from .generate import random_ordinal, random_tree, random_tree_of_rank
from .ordinal import (
    ONE,
    ZERO,
    add,
    compare,
    left_divide,
    left_subtract,
    mul,
    omega_pow,
    ordinal,
)
from .report import Check
from .rules import RuleColoring
from .stabilize import Coloring
from .tree_core import FiniteTree, graft, incomparable_union


def check_ordinal_laws(rng: random.Random, quick: bool = False) -> str:
    trials = 200 if quick else 1000
    for _ in range(trials):
        a = random_ordinal(rng)
        b = random_ordinal(rng)
        c = random_ordinal(rng)
        assert add(add(a, b), c) == add(a, add(b, c)), f"add assoc {a},{b},{c}"
        assert mul(mul(a, b), c) == mul(a, mul(b, c)), f"mul assoc {a},{b},{c}"
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), \
            f"left distributivity {a},{b},{c}"
        # absorption against freshly built indecomposables
        g = omega_pow(random_ordinal(rng, height=1))
        if compare(a, g) < 0:
            assert add(a, g) == g, f"additive absorption {a} + {g}"
        m = omega_pow(omega_pow(random_ordinal(rng, height=1)))
        if compare(ZERO, a) < 0 and compare(a, m) < 0:
            assert mul(a, m) == m, f"multiplicative absorption {a} * {m}"
        if not a.is_zero:
            delta, rem = left_divide(a, c)
            assert add(mul(a, delta), rem) == c, f"division identity {a}, {c}"
            assert compare(mul(a, add(delta, ONE)), c) > 0, f"division maximality {a}, {c}"
        # total order on the triple
        for x, y in ((a, b), (b, c), (a, c)):
            assert (compare(x, y) == 0) == (x == y)
            assert (compare(x, y) == -compare(y, x))
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0, f"transitivity {a},{b},{c}"
    return f"{trials} random triples, all laws exact"


def check_derivative_calculus(rng: random.Random, quick: bool = False) -> str:
    trials = 80 if quick else 500
    for _ in range(trials):
        tree = random_tree(rng, max_nodes=40)
        _derivative_suite(rng, tree)
    return f"{trials} random trees up to 40 nodes"


def _derivative_chain(tree: FiniteTree) -> list[FiniteTree]:
    chain = [tree]
    while chain[-1].ids:
        chain.append(chain[-1].derivative())
    return chain


def _derivative_suite(rng: random.Random, tree: FiniteTree) -> None:
    chain = _derivative_chain(tree)
    sets = [frozenset(t.ids) for t in chain]
    rank = len(chain) - 1
    taus = tree.tau_map

    for z in range(rank + 1):
        assert tree.is_downward_closed(sets[z]), f"derivative {z} not downward closed"

    b = rng.randrange(0, rank + 1)
    c = rng.randrange(0, rank + 1 - b)
    assert frozenset(chain[b].iterated_derivative(c).ids) == sets[min(b + c, rank)], \
        "iterated derivatives do not compose"

    for t in tree.ids:
        for s in tree.ancestors(t):
            assert taus[s] > taus[t], "tau must strictly drop along chains"

    if rank:
        b = rng.randrange(1, rank + 1)
        low = tree.restrict(set(tree.ids) - sets[b])
        low_chain = _derivative_chain(low)
        for z in range(len(low_chain)):
            assert frozenset(low_chain[z].ids) == sets[min(z, len(sets) - 1)] - sets[b], \
                "initial-part derivatives disagree"
        assert low.rank() == b, "initial part has the wrong rank"

    parts = [tree.subtree_at(r) for r in tree.roots()]
    glued = incomparable_union(parts)
    assert frozenset(glued.ids) == sets[0], "root decomposition loses nodes"
    derived_union = frozenset().union(*(frozenset(p.derivative().ids) for p in parts)) \
        if parts else frozenset()
    assert derived_union == sets[1] if rank else not derived_union, \
        "derivative does not distribute over the root decomposition"

    if tree.ids:
        s = rng.choice(tree.ids)
        below = tree.subtree_at(s, strict=True)
        closed_s = tree.subtree_at(s)
        assert frozenset(below.leaves()) == frozenset(below.ids) & frozenset(tree.leaves()), \
            "leaves of an open cone disagree"
        assert frozenset(closed_s.leaves()) == frozenset(closed_s.ids) & frozenset(tree.leaves()), \
            "leaves of a closed cone disagree"
        z = rng.randrange(0, rank + 1)
        assert frozenset(below.iterated_derivative(z).ids) == sets[z] & frozenset(below.ids), \
            "derivative does not localize to open cones"
        assert frozenset(closed_s.iterated_derivative(z).ids) == sets[z] & frozenset(closed_s.ids), \
            "derivative does not localize to closed cones"
        below_taus = below.tau_map
        for t in below.ids:
            assert below_taus[t] == taus[t], "tau changes on cones"
        t = rng.choice(tree.ids)
        cone = tree.subtree_at(t, strict=True)
        closed = tree.subtree_at(t)
        assert (t in sets[z]) == (taus[t] >= z) == (cone.rank() >= z) == (closed.rank() > z), \
            "membership / tau / cone-rank equivalences break"
        assert (t in frozenset(chain[min(z, rank)].leaves())) == (cone.rank() == z) == (taus[t] == z), \
            "leaf characterization breaks"

    if rank:
        b = rng.randrange(0, rank)
        g = rng.randrange(0, rank + 1 - b)
        mid = [t for t in tree.ids if t in sets[b + g]] if b + g <= rank else []
        if mid and g:
            t = rng.choice(mid)
            band = (sets[b] - sets[b + g]) & frozenset(tree.descendants(t))
            assert tree.restrict(band).rank() == g, "band below a deep node has wrong rank"

    base = random_tree(rng, max_nodes=6)
    z = rng.randrange(0, 4)
    attachments = {}
    next_id = (max(base.ids) + 1) if base.ids else 0
    for leaf in base.leaves():
        attachments[leaf] = FiniteTree.chain_tree(z, start=next_id)
        next_id += z
    grafted = graft(base, attachments)
    assert grafted.rank() == z + base.rank(), "graft rank law fails"
    assert frozenset(grafted.iterated_derivative(z).ids) == frozenset(base.ids), \
        "graft does not peel back to the base"


def check_canonical_consistency(rng: random.Random, quick: bool = False) -> str:
    checked = 0
    for n in (3, 5):
        window = truncate(CanonicalTree.of(0, n), depth=n, width=n)
        assert window.tree.rank() == n, f"window of the depth-{n} tree has rank {window.tree.rank()}"
        assert len(window.tree) == 2 ** n - 1
        for i in window.tree.ids:
            sym = node_tau(window.source, window.node_of(i))
            assert ordinal(window.tree.tau(i)) == sym, \
                f"tau mismatch at {window.node_of(i)}"
            checked += 1
    return f"ranks 3 and 5 reproduced, {checked} tau values agree"


def check_block_local_separation(rng: random.Random, quick: bool = False) -> str:
    w = omega_pow(1)
    cases = [(omega_pow(2), [w]), (omega_pow(3), [w, omega_pow(2)])]
    pairs = 0
    for rank, gammas in cases:
        window = truncate(CanonicalTree.of(0, rank), depth=3, width=4)
        for gamma in gammas:
            for i_s, i_t in window.tree.ordered_pairs():
                s, t = window.node_of(i_s), window.node_of(i_t)
                tau_s, tau_t = node_tau(window.source, s), node_tau(window.source, t)
                eta_s, _ = left_divide(gamma, tau_s)
                eta_t, _ = left_divide(gamma, tau_t)
                if eta_s != eta_t:
                    continue
                inside = separation_of_taus(gamma, left_subtract(mul(gamma, eta_s), tau_s),
                                            left_subtract(mul(gamma, eta_s), tau_t))
                outside = separation_of_taus(rank, tau_s, tau_t)
                assert inside == outside, \
                    f"block-local separation {inside} != ambient {outside} at ({s},{t})"
                pairs += 1
    assert pairs > 0
    return f"{pairs} in-block pairs agree across both windows"


def check_stabilization_certificates(rng: random.Random, quick: bool = False) -> str:
    trials = 60 if quick else 300
    for _ in range(trials):
        tree = random_tree(rng, max_nodes=18, max_rank=5)
        k = rng.randrange(0, 3)
        nodes = Coloring.of_nodes(tree, lambda t: rng.randrange(0, k + 1), k=k)
        res = stabilize.stabilize_levels(tree, nodes)
        assert res.certificate.ok and res.subtree.rank() == tree.rank()
        verify.cross_validate(res)
    for _ in range(trials):
        tree = random_tree(rng, max_nodes=18, max_rank=5)
        k = rng.randrange(0, 3)
        pairs = Coloring.of_pairs(tree, lambda s, t: rng.randrange(0, k + 1), k=k)
        res = stabilize.stabilize_pairs_by_level(tree, pairs)
        assert res.certificate.ok and res.subtree.rank() == tree.rank()
        verify.cross_validate(res)
    return f"{2 * trials} stabilizations, every certificate green, rank always preserved"


def check_ramsey_constant(rng: random.Random, quick: bool = False) -> str:
    r = stabilize.finite_ramsey(2, 1)
    assert r == 5, f"computed threshold {r}"
    # the cyclic two-coloring of the 5-point complete graph has no
    # monochromatic triangle, witnessing that 4 points short of the bound fail
    pentagon = {(u, v): 0 if (v - u) % 5 in (1, 4) else 1
                for u in range(5) for v in range(u + 1, 5)}
    assert not stabilize.has_monochromatic_subset(pentagon, 5, 3)
    assert stabilize.find_clique_free_coloring(6, 3, 2) is None
    return "threshold 5 certified: explicit 5-point coloring, exhaustive 6-point sweep"


def check_multiplicative_exclusion(rng: random.Random, quick: bool = False) -> str:
    per_rank = 3 if quick else 8
    searched = 0
    for n in (3, 4, 5):
        alpha = 2
        beta = next(b for b in range(2, n) if alpha * b >= n)
        for _ in range(per_rank):
            tree = random_tree_of_rank(rng, n, max_nodes=14)
            coloring = verify.multiplicative_obstruction(tree, alpha)
            for j in (0, 1):
                report = verify.max_monochromatic_rank(tree, coloring, j)
                assert report.exhaustive, "search budget must not truncate here"
                best = report.colors[j].rank
                assert best <= max(alpha, beta) < n, \
                    f"rank {n}: color {j} reaches {best}"
                searched += 1
    return f"{searched} exhaustive searches, no full-rank monochromatic subtree"


def check_level_sharpness(rng: random.Random, quick: bool = False) -> str:
    trials = 25 if quick else 100
    for _ in range(trials):
        tree = random_tree(rng, max_nodes=16, max_rank=5)
        r = tree.rank()
        k = rng.randrange(0, 3)
        table = [rng.randrange(0, k + 1) for _ in range(r)]
        taus = tree.tau_map
        coloring = Coloring.of_nodes(tree, lambda t: table[taus[t]], k=k)
        res = stabilize.stabilize_levels(tree, coloring)
        assert res.reduced == tuple(table), "level table must be recovered exactly"
        for j in range(k + 1):
            expected = table.count(j)
            extracted = stabilize.extract_monochromatic(res, j)
            oracle = verify.max_monochromatic_rank_nodes(tree, coloring, j)
            assert extracted.rank() == expected == oracle.colors[j].rank, \
                f"color {j}: extracted {extracted.rank()}, table {expected}, " \
                f"oracle {oracle.colors[j].rank}"
    return f"{trials} instances: extraction = color count = exhaustive optimum"


def check_contraction_audits(rng: random.Random, quick: bool = False) -> str:
    square = omega_pow(2)
    tree = CanonicalTree.of(0, square)
    budget = transfinite.Budget(depth=3, width=4, cap=4)
    for layers in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
        spec = transfinite.ContractionSpec.of(square, layers)
        sub = transfinite.contract(tree, spec)
        report = transfinite.audit_contraction(tree, spec, sub, budget)
        report.require()
    return "all four layer subsets audited at depth 3, width 4"


def check_budgeted_stabilizer(rng: random.Random, quick: bool = False) -> str:
    budget = transfinite.Budget(depth=3, width=3, cap=4)
    ks = (1,) if quick else (1, 2)
    runs = 0
    line = CanonicalTree.of(0, omega_pow(1))
    for k in ks:
        for c in range(k + 1):
            res = transfinite.stabilize_transfinite(
                line, RuleColoring.sep_table((c,), k=k), budget)
            assert res.table == (c,) and res.report.ok
            runs += 1
    square = CanonicalTree.of(0, omega_pow(2))
    for k in ks:
        for table in itertools.product(range(k + 1), repeat=2):
            res = transfinite.stabilize_transfinite(
                square, RuleColoring.sep_table(table, k=k), budget)
            assert res.table == table and res.report.ok
            runs += 1
    return f"{runs} separation tables recovered exactly with all-pass audits"


class Outcome(Check):
    def __init__(self, name: str, passed: bool, detail: str = "", seconds: float = 0.0):
        super().__init__(name, passed, detail)
        self.seconds = seconds


CHECKS: list[tuple[str, Callable[[random.Random, bool], str]]] = [
    ("ordinal-laws", check_ordinal_laws),
    ("derivative-calculus", check_derivative_calculus),
    ("canonical-consistency", check_canonical_consistency),
    ("block-local-separation", check_block_local_separation),
    ("stabilization-certificates", check_stabilization_certificates),
    ("ramsey-constant", check_ramsey_constant),
    ("multiplicative-exclusion", check_multiplicative_exclusion),
    ("level-sharpness", check_level_sharpness),
    ("contraction-audits", check_contraction_audits),
    ("budgeted-stabilizer", check_budgeted_stabilizer),
]


def run_all(seed: int = 0, quick: bool = False,
            names: list[str] | None = None) -> list[Outcome]:
    outcomes = []
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        try:
            detail = fn(rng, quick)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        outcomes.append(Outcome(name, passed, detail, time.perf_counter() - start))
    return outcomes


def scoreboard(outcomes: list[Outcome]) -> str:
    lines = []
    for o in outcomes:
        flag = "PASS" if o.passed else "FAIL"
        lines.append(f"[{flag}] {o.name:28s} {o.seconds:7.2f}s  {o.detail}")
    total = sum(o.seconds for o in outcomes)
    good = sum(o.passed for o in outcomes)
    lines.append(f"{good}/{len(outcomes)} checks passed in {total:.2f}s")
    return "\n".join(lines)
