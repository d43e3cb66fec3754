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
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .report import Report
from .tree_core import FiniteTree, exact_int, select_level_subset

select_levels = select_level_subset


class StabilizeError(ValueError):
    pass


class RamseyBudgetError(RuntimeError):
    """The exhaustive search would exceed the configured size budget."""

    def __init__(self, message: str, lower_bound: int, upper_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound


# -- colorings ---------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Explicit color assignment on nodes, ordered pairs, or leaf chains.

    Pair keys are (ancestor, descendant); chain keys are the full tuples
    ending at a leaf, with ``n`` the number of strictly increasing entries
    before the leaf.
    """

    arity: str
    k: int
    table: Mapping
    n: int | None = None

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
                arity, table = "nodes", {exact_int(t): exact_int(c) for t, c in data["nodes"]}
            elif arity in (2, "2", "pairs") or "pairs" in data:
                arity, table = "pairs", {(exact_int(s), exact_int(t)): exact_int(c)
                                         for s, t, c in data["pairs"]}
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
    values = list(values)
    low, top = min(values, default=0), max(values, default=0)
    if low < 0:
        raise StabilizeError(f"color {low} is negative")
    if k is None:
        return top
    if top > k:
        raise StabilizeError(f"color {top} outside palette 0..{k}")
    return k


# -- results -------------------------------------------------------------------


@dataclass
class StabilizationResult:
    ambient: FiniteTree
    subtree: FiniteTree
    mode: str
    reduced: object
    coloring: Coloring
    expected_rank: int
    certificate: Report = field(default_factory=Report)
    chain_length: int | None = None
    extra: dict = field(default_factory=dict)

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
        back: ``recheck()`` recomputes it from the data."""
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
        return StabilizationResult(
            ambient, subtree, mode, reduced, coloring, expected_rank=expected_rank,
            chain_length=coloring.n if mode == "leaf-chains" else None, extra=extra)


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
        bad = [chain for chain in Q.leaf_chains(result.chain_length)
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
    taus = P.tau_map
    t = next(s for s in P.ids if taus[s] == P.rank() - 1)
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
                                 expected_rank=tree.rank(), chain_length=n)
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

    Backtracking over edges in lexicographic order, with the assignment as
    the stack; color symmetry is broken by only allowing one brand-new color
    at each step.
    """
    edges = list(combinations(range(m), 2))
    assignment: dict[tuple[int, int], int] = {}

    def completes_clique(edge: tuple[int, int], c: int) -> bool:
        a, b = edge
        partners = [v for v in range(m)
                    if v not in edge
                    and assignment.get(_e(a, v)) == c and assignment.get(_e(b, v)) == c]
        if target == 2:
            return True
        for group in combinations(partners, target - 2):
            if all(assignment.get(_e(u, v)) == c for u, v in combinations(group, 2)):
                return True
        return False

    c = 0  # the next color to try on the first unassigned edge
    while len(assignment) < len(edges):
        edge = edges[len(assignment)]
        allowed = min(max(assignment.values(), default=-1) + 2, colors)
        while c < allowed and completes_clique(edge, c):
            c += 1
        if c < allowed:
            assignment[edge], c = c, 0
        elif assignment:
            # backtrack: popitem() removes the last assigned edge (LIFO)
            c = assignment.popitem()[1] + 1
        else:
            return None
    return dict(assignment)


def _e(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def has_monochromatic_subset(coloring: Mapping[tuple[int, int], int],
                             m: int, target: int) -> bool:
    for group in combinations(range(m), target):
        colors = {coloring[_e(u, v)] for u, v in combinations(group, 2)}
        if len(colors) <= 1:
            return True
    return False


def finite_ramsey(p: int, k: int,
                  max_vertices: int = RAMSEY_MAX_VERTICES,
                  max_colors: int = RAMSEY_MAX_COLORS) -> int:
    """Least r such that every (k+1)-coloring of the pairs from any set of
    more than r points has a monochromatic subset of p+1 points."""
    if p < 1 or k < 0:
        raise StabilizeError("need p >= 1 and k >= 0")
    if k + 1 > max_colors:
        raise RamseyBudgetError(
            f"{k + 1} colors exceed the search budget of {max_colors}",
            lower_bound=p)
    for m in range(2, max_vertices + 1):
        if find_clique_free_coloring(m, p + 1, k + 1) is None:
            return m - 1
    raise RamseyBudgetError(
        f"no complete graph on <= {max_vertices} vertices forces a "
        f"monochromatic {p + 1}-set with {k + 1} colors",
        lower_bound=max_vertices)


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
