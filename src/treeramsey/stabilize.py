"""Constructive stabilization of colorings on finite trees.

In a finite tree of rank r, one chain of r nodes with tau r-1, ..., 0 is
already an equal-rank, tau-compatible subtree on which node colors depend
only on the level and pair colors only on the two levels.  Every stabilizer
keeps one such chain, found by a greedy walk that breaks ties by minimum
node id, and reads its reduced color function off that chain.  Each result
carries a certificate recomputed from scratch on the output; the
certificate, not the construction, carries the proof.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .report import Report
from .tree_core import FiniteTree, exact_int, select_level_subset

select_levels = select_level_subset


class StabilizeError(ValueError):
    pass


class RamseyBudgetError(RuntimeError):
    """The exhaustive search would exceed the configured size budget."""

    def __init__(self, message: str, lower_bound: int):
        super().__init__(message)
        self.lower_bound = lower_bound


# -- colorings ---------------------------------------------------------------


class Coloring:
    """Explicit color assignment on nodes, ordered pairs, or leaf chains.

    Pair keys are (ancestor, descendant); chain keys are the full tuples
    ending at a leaf, with ``n`` the number of strictly increasing entries
    before the leaf.
    """

    def __init__(self, arity: str, k: int, table: Mapping, n: int | None = None):
        self.arity, self.k, self.table, self.n = arity, k, table, n

    def value(self, key):
        return self.table[key]

    @staticmethod
    def of_nodes(tree: FiniteTree, fn: Callable[[int], int], k: int | None = None) -> "Coloring":
        table = {t: fn(t) for t in tree.ids}
        return Coloring("nodes", _palette(table.values(), k), table)

    @staticmethod
    def of_pairs(tree: FiniteTree, fn: Callable[[int, int], int], k: int | None = None) -> "Coloring":
        table = {(s, t): fn(s, t) for s, t in tree.ordered_pairs()}
        return Coloring("pairs", _palette(table.values(), k), table)

    @staticmethod
    def of_leaf_chains(tree: FiniteTree, n: int, fn: Callable[..., int],
                       k: int | None = None) -> "Coloring":
        table = {chain: fn(*chain) for chain in tree.leaf_chains(n)}
        return Coloring("chains", _palette(table.values(), k), table, n=n)

    def to_json(self) -> dict:
        arity = {"nodes": 1, "pairs": 2}.get(self.arity, "chains")
        n = {"n": self.n} if self.arity == "chains" else {}
        return {"schema_version": 1, "k": self.k, "arity": arity, **n,
                self.arity: _to_rows(self.table)}

    @staticmethod
    def from_json(data: dict) -> "Coloring":
        """Read a coloring document; ``k`` is inferred when absent."""
        if not isinstance(data, dict) or data.get("schema_version", 1) != 1:
            raise StabilizeError("malformed coloring document: not an object with schema_version 1")
        arity, n = data.get("arity"), None
        try:
            k = None if data.get("k") is None else exact_int(data["k"])
            if arity in (1, "1", "nodes") or "nodes" in data:
                arity, table = "nodes", {
                    (t if type(t) is int else exact_int(t)):
                    (c if type(c) is int else exact_int(c)) for t, c in data["nodes"]}
            elif arity in (2, "2", "pairs") or "pairs" in data:
                arity, table = "pairs", {
                    (s if type(s) is int else exact_int(s), t if type(t) is int else exact_int(t)):
                    (c if type(c) is int else exact_int(c)) for s, t, c in data["pairs"]}
            elif arity == "chains" or "chains" in data:
                arity, n = "chains", exact_int(data["n"])
                table = {tuple(exact_int(x) for x in row[:-1]): exact_int(row[-1])
                         for row in data["chains"]}
            else:
                raise ValueError("no nodes, pairs or chains table")
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise StabilizeError(f"malformed coloring document: {exc}") from exc
        return Coloring(arity, _palette(table.values(), k), table, n=n)

    @staticmethod
    def load(path: str) -> "Coloring":
        with open(path) as fh:
            return Coloring.from_json(json.load(fh))


def _palette(values: Iterable[int], k: int | None) -> int:
    values = set(values)
    low, top = min(values, default=0), max(values, default=0)
    if low < 0:
        raise StabilizeError(f"color {low} is negative")
    if k is None:
        return top
    if top > k:
        raise StabilizeError(f"color {top} outside palette 0..{k}")
    return k


def check_coverage(tree: FiniteTree, coloring: Coloring, *arities: str) -> None:
    """The coloring must have one of the given arities.  A node coloring must
    color every node, a pair coloring every pair (s, t) with s an ancestor of
    t, a chain coloring every leaf chain."""
    if coloring.arity not in arities:
        raise StabilizeError(f"expected a {' or '.join(arities)} coloring, got {coloring.arity}")
    if coloring.arity == "nodes":
        keys = iter(tree.ids)
    elif coloring.arity == "pairs":
        keys = _pair_keys(tree)
    else:
        keys = tree.leaf_chains(coloring.n)
    missing = next((key for key in keys if key not in coloring.table), None)
    if missing is not None:
        raise StabilizeError(f"coloring assigns no color to {missing}")


def _pair_keys(tree: FiniteTree) -> Iterator[tuple[int, int]]:
    """The pairs (s, t) of each node t in id order, s by id among the strict
    ancestors climbed from t."""
    up = tree._up
    for t in tree.ids:
        above, s = [], up[t]
        while s is not None:
            above.append(s)
            s = up[s]
        yield from ((s, t) for s in sorted(above))


# -- results -------------------------------------------------------------------


class StabilizationResult:
    def __init__(self, ambient: FiniteTree, subtree: FiniteTree, mode: str, reduced: object,
                 coloring: Coloring, expected_rank: int, extra: dict | None = None):
        self.ambient, self.subtree, self.mode, self.reduced = ambient, subtree, mode, reduced
        self.coloring, self.expected_rank = coloring, expected_rank
        self.extra = {} if extra is None else extra
        self.certificate = Report()

    def recheck(self) -> Report:
        """Re-run the certificate from the stored data."""
        return _certify(self)

    def to_json(self) -> dict:
        reduced = self.reduced
        if self.mode == "levels":
            reduced = list(reduced)
        elif self.mode in ("pairs", "leaf-chains"):
            reduced = _to_rows(reduced)
        return {
            "schema_version": 1,
            "mode": self.mode,
            "ambient": self.ambient.to_json(),
            "subtree_ids": list(self.subtree.ids),
            "expected_rank": self.expected_rank,
            "reduced": reduced,
            "coloring": self.coloring.to_json(),
            "certificate": [c.to_json() for c in self.certificate.checks],
            "extra": {name: _to_rows(table) for name, table in self.extra.items()},
        }

    @staticmethod
    def from_json(doc: dict) -> "StabilizationResult":
        """Read a document written by ``to_json``.  The certificate is not read
        back: ``recheck()`` recomputes it from the data.  The coloring must
        be complete on the ambient tree, with the arity of the mode."""
        if not isinstance(doc, dict) or doc.get("schema_version", 1) != 1:
            raise StabilizeError("malformed result document: not an object with schema_version 1")
        try:
            ambient = FiniteTree.from_json(doc["ambient"])
            subtree = ambient.restrict(exact_int(t) for t in doc["subtree_ids"])
            coloring = Coloring.from_json(doc["coloring"])
            mode, raw = doc["mode"], doc["reduced"]
            if mode == "levels":
                reduced: object = tuple(exact_int(c) for c in raw)
            elif mode == "pairs":
                reduced = {(exact_int(i), exact_int(j)): exact_int(c) for i, j, c in raw}
            elif mode == "leaf-chains":
                reduced = _from_rows(raw)
            else:
                reduced = {"color": exact_int(raw["color"]),
                           "picked": tuple(exact_int(i) for i in raw["picked"])}
            extra = {name: _from_rows(rows, scalar=True)
                     for name, rows in doc.get("extra", {}).items()}
            expected_rank = exact_int(doc["expected_rank"])
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise StabilizeError(f"malformed result document: {exc}") from exc
        check_coverage(ambient, coloring,
                       {"levels": "nodes", "leaf-chains": "chains"}.get(mode, "pairs"))
        return StabilizationResult(ambient, subtree, mode, reduced, coloring,
                                   expected_rank=expected_rank, extra=extra)


def _to_rows(table: Mapping) -> list[list[int]]:
    """Sorted rows: the key's entries (a tuple key spread out), then the value."""
    return [[*key, v] if isinstance(key, tuple) else [key, v] for key, v in sorted(table.items())]


def _from_rows(rows, scalar: bool = False) -> dict:
    """Invert ``_to_rows``; with ``scalar``, one-entry keys come back as bare ids."""
    rows = [[exact_int(x) for x in row] for row in rows]
    return {(row[0] if scalar and len(row) == 2 else tuple(row[:-1])): row[-1] for row in rows}


def _certify(result: StabilizationResult) -> Report:
    cert = Report()
    P, Q = result.ambient, result.subtree
    cert.add("rank-preserved", Q.rank() == result.expected_rank,
             f"rank(Q)={Q.rank()} required={result.expected_rank}")
    tau_p, tau_q = P.tau_map, Q.tau_map
    if result.mode != "ramsey-reduce":
        bad = [t for t in Q.ids if tau_q[t] != tau_p[t]]
        cert.add("tau-compatible", not bad, f"mismatch at {bad[:5]}")
    f = result.coloring
    # a table entry that is missing counts as a disagreement
    if result.mode == "levels":
        F = dict(enumerate(result.reduced))
        bad = [t for t in Q.ids if f.value(t) != F.get(tau_q[t])]
        cert.add("level-colors-constant", not bad, f"disagrees at {bad[:5]}")
    elif result.mode == "pairs":
        G = result.reduced
        bad = [(s, t) for s, t in Q.ordered_pairs()
               if tau_q[s] > tau_q[t] and f.value((s, t)) != G.get((tau_q[t], tau_q[s]))]
        cert.add("pair-colors-by-level", not bad, f"disagrees at {bad[:5]}")
    elif result.mode == "leaf-chains":
        F = result.reduced
        bad = [chain for chain in Q.leaf_chains(f.n)
               if F.get(chain[:-1]) != f.value(chain)]
        cert.add("chain-colors-agree", not bad, f"disagrees at {bad[:3]}")
    elif result.mode == "ramsey-reduce":
        j = result.reduced["color"]
        picked = dict(enumerate(result.reduced["picked"]))
        tau_amb = result.extra.get("pair_stage_tau", {})
        bad = [(s, t) for s, t in Q.ordered_pairs()
               if tau_q[s] > tau_q[t] and f.value((s, t)) != j]
        cert.add("cross-level-monochromatic", not bad, f"off-color pairs {bad[:5]}")
        bad_levels = [t for t in Q.ids
                      if t not in tau_amb or picked.get(tau_q[t]) != tau_amb[t]]
        cert.add("levels-relabelled-in-order", not bad_levels,
                 f"level relabelling broken at {bad_levels[:5]}")
    return cert


def _finish(result: StabilizationResult) -> StabilizationResult:
    result.certificate = _certify(result)
    failed = result.certificate.failed
    if failed is not None:
        raise StabilizeError(f"internal stabilization defect: {failed.name}: {failed.detail}")
    return result


# -- the greedy chain ---------------------------------------------------------------


def _greedy_chain(P: FiniteTree) -> list[int]:
    """A chain whose i-th entry has tau i: the least node of tau rank-1, then
    at each step the least child whose tau is one lower, down to a leaf.  A
    descendant whose tau is one lower is always a child, so the walk looks
    only at children."""
    taus, top = P.tau_map, P.rank() - 1
    t = next(s for s in P.ids if taus[s] == top)
    chain = [t]
    while taus[t]:
        t = next(s for s in P.children(t) if taus[s] == taus[t] - 1)
        chain.append(t)
    return chain[::-1]


# -- leaf-chain stabilization ---------------------------------------------------


def stabilize_leaf_chains(tree: FiniteTree, n: int, coloring: Coloring) -> StabilizationResult:
    """Keep the greedy chain; every n-chain lam of it closes at the same
    bottom leaf, so the reduced function is F[lam] = color of lam + (leaf,)."""
    if not tree.ids:
        raise StabilizeError("cannot stabilize the empty tree")
    if n < 0:
        raise StabilizeError("chain length must be non-negative")
    if coloring.arity != "chains" or coloring.n != n:
        raise StabilizeError("coloring must assign colors to chains of the given length")
    chain = _greedy_chain(tree)
    Q = tree.restrict(chain)
    F = {lam: coloring.value(lam + (chain[0],)) for lam in Q.chains(n)}
    result = StabilizationResult(tree, Q, "leaf-chains", F, coloring,
                                 expected_rank=tree.rank())
    return _finish(result)


def select_leafset(tree: FiniteTree, classes: Sequence[Iterable[int]]) -> tuple[int, FiniteTree]:
    """Pick a class index i and an equal-rank subtree whose leaves all fall
    in class i: the greedy chain, with i the smallest index containing its
    bottom leaf."""
    leaves = set(tree.leaves())
    classes = [frozenset(m) for m in classes]
    covered = frozenset().union(*classes) if classes else frozenset()
    if not leaves <= covered:
        raise StabilizeError(f"leaves {sorted(leaves - covered)[:5]} not covered")
    chain = _greedy_chain(tree)
    i = min(i for i, m in enumerate(classes) if chain[0] in m)
    Q = tree.restrict(chain)
    if not set(Q.leaves()) <= classes[i]:
        raise StabilizeError("selected subtree leaves escape the chosen class")
    return i, Q


# -- node-coloring stabilization --------------------------------------------------


def stabilize_levels(tree: FiniteTree, coloring: Coloring) -> StabilizationResult:
    """Keep the greedy chain, which has one node per tau class; the level
    table F[i] is the color of its node of tau i."""
    if not tree.ids:
        raise StabilizeError("cannot stabilize the empty tree")
    if coloring.arity != "nodes":
        raise StabilizeError("stabilize_levels expects a node coloring")
    chain = _greedy_chain(tree)
    result = StabilizationResult(tree, tree.restrict(chain), "levels",
                                 tuple(map(coloring.value, chain)), coloring,
                                 expected_rank=tree.rank())
    return _finish(result)


def extract_monochromatic(result: StabilizationResult, j: int) -> FiniteTree:
    """Union of the levels colored j in a level-stabilization result; its
    rank is the number of such levels."""
    if result.mode != "levels":
        raise StabilizeError("extraction needs a level-stabilization result")
    if not result.certificate.ok:
        raise StabilizeError("refusing to extract from an invalid certificate")
    picked = [i for i, c in enumerate(result.reduced) if c == j]
    if not picked:
        return result.subtree.restrict(())
    return select_levels(result.subtree, picked)


# -- pair-coloring stabilization ----------------------------------------------------


def stabilize_pairs_by_level(tree: FiniteTree, coloring: Coloring) -> StabilizationResult:
    """Keep the greedy chain; the table G[(i, j)] over level pairs i < j is
    the color of its pair (node of tau j, node of tau i).  A rank-1 tree has
    no pairs and is kept whole."""
    if not tree.ids:
        raise StabilizeError("cannot stabilize the empty tree")
    if coloring.arity != "pairs":
        raise StabilizeError("stabilize_pairs_by_level expects a pair coloring")
    if tree.rank() == 1:
        Q, G = tree, {}
    else:
        chain = _greedy_chain(tree)
        Q = tree.restrict(chain)
        G = {(i, j): coloring.value((chain[j], chain[i]))
             for j in range(len(chain)) for i in range(j)}
    result = StabilizationResult(tree, Q, "pairs", G, coloring,
                                 expected_rank=tree.rank())
    return _finish(result)


# -- finite Ramsey machinery -----------------------------------------------------


RAMSEY_MAX_VERTICES = 9
RAMSEY_MAX_COLORS = 3


def find_clique_free_coloring(m: int, target: int, colors: int) -> dict | None:
    """An edge coloring of the complete graph on m vertices with no
    monochromatic ``target``-clique, or None when every coloring has one.

    Backtracking over edges in lexicographic order, with the colors assigned
    so far as the stack; color symmetry is broken by only allowing one
    brand-new color at each step.  Each vertex keeps a bit set of its
    neighbours in each color: edge (a, b) closes a color-c clique when the
    common color-c neighbours of a and b hold one of ``target - 2`` vertices.
    """
    edges = list(combinations(range(m), 2))
    near = [[0] * m for _ in range(colors)]  # near[c][v]: v's color-c neighbours
    stack: list[int] = []  # the colors of edges[:len(stack)]

    def has_clique(common: int, size: int, near_c: list[int]) -> bool:
        while common.bit_count() >= size:
            if size <= 1:
                return True
            low = common & -common
            common ^= low
            if has_clique(common & near_c[low.bit_length() - 1], size - 1, near_c):
                return True
        return False

    c = 0  # the next color to try on the first uncolored edge
    while len(stack) < len(edges):
        a, b = edges[len(stack)]
        allowed = min(max(stack, default=-1) + 2, colors)
        while c < allowed and has_clique(near[c][a] & near[c][b], target - 2, near[c]):
            c += 1
        if c < allowed:
            near[c][a] |= 1 << b
            near[c][b] |= 1 << a
            stack.append(c)
            c = 0
        elif stack:
            a, b = edges[len(stack) - 1]
            c = stack.pop()
            near[c][a] ^= 1 << b
            near[c][b] ^= 1 << a
            c += 1
        else:
            return None
    return dict(zip(edges, stack))


def has_monochromatic_subset(coloring: Mapping[tuple[int, int], int],
                             m: int, target: int) -> bool:
    for group in combinations(range(m), target):
        colors = {coloring[pair] for pair in combinations(group, 2)}  # u < v in each pair
        if len(colors) <= 1:
            return True
    return False


@cache
def finite_ramsey(p: int, k: int) -> int:
    """Least r such that every (k+1)-coloring of the pairs from any set of
    more than r points has a monochromatic subset of p+1 points.  Values
    are cached; an error is raised again on every call."""
    if p < 1 or k < 0:
        raise StabilizeError("need p >= 1 and k >= 0")
    if k + 1 > RAMSEY_MAX_COLORS:
        raise RamseyBudgetError(
            f"{k + 1} colors exceed the search budget of {RAMSEY_MAX_COLORS}",
            lower_bound=p)
    for m in range(2, RAMSEY_MAX_VERTICES + 1):
        if find_clique_free_coloring(m, p + 1, k + 1) is None:
            return m - 1
    raise RamseyBudgetError(
        f"no complete graph on <= {RAMSEY_MAX_VERTICES} vertices forces a "
        f"monochromatic {p + 1}-set with {k + 1} colors",
        lower_bound=RAMSEY_MAX_VERTICES)


def ramsey_reduce_levels(tree: FiniteTree, p: int, coloring: Coloring) -> StabilizationResult:
    """Stabilize pairs by level, then keep p+1 levels whose cross colors
    agree; every cross-level pair of the output takes the same color."""
    k = coloring.k
    required = finite_ramsey(p, k)
    r = tree.rank() - 1
    if r < required:
        raise StabilizeError(
            f"rank {tree.rank()} too small: need rank >= {required + 1} "
            f"for p={p}, k={k}")
    staged = stabilize_pairs_by_level(tree, coloring)
    G = staged.reduced
    for subset in combinations(range(r + 1), p + 1):
        seen = {G[(i, j)] for i, j in combinations(subset, 2)}
        if len(seen) == 1:
            j = seen.pop()
            break
    else:  # pragma: no cover - excluded by the rank precondition
        raise StabilizeError("no monochromatic level subset found")
    reduced_tree = select_levels(staged.subtree, subset)
    tau_stage = staged.subtree.tau_map
    result = StabilizationResult(
        tree, reduced_tree, "ramsey-reduce",
        {"color": j, "picked": tuple(subset)},
        coloring, expected_rank=p + 1,
        extra={"pair_stage_tau": {t: tau_stage[t] for t in reduced_tree.ids},
               "pair_table": G})
    return _finish(result)
