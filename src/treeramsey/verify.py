"""Brute-force oracles and obstruction colorings.

Everything here recomputes tree structure from the raw (ids, parents)
data with its own helpers instead of calling the constructive modules, so
a bug upstream cannot vouch for itself: ``_walk``, ``_settle`` and
``_climb`` walk the raw parents themselves, build no ancestor set, and read
no ancestor set, height or index that ``tree_core`` built.  The pair oracle
is a longest monochromatic chain search down descendant lists that carries
each chain's candidates, exhaustive within a node budget and saying so.
``cross_validate`` walks the ambient tree once: each node's nearest kept
ancestor gives the pairs of the output to check, and the bottom-up
``_settle`` pass along the same walk gives the tau and rank it trusts; leaf
chains come from ``_climb``'s descendant lists.
``cross_validate`` records into the shared ``report.Report``, which is a
bare list of named checks: every check is still computed here, so no tree,
ordinal or checking code is shared with the constructive modules.
"""

from __future__ import annotations

from typing import Mapping

from .report import Report
from .tree_core import FiniteTree


class VerificationError(AssertionError):
    """A certified claim failed independent re-derivation."""


# -- independent structure helpers (deliberately not tree_core methods) -------


def _walk(tree: FiniteTree, ids: frozenset[int]) -> tuple[dict[int, int | None], list[int]]:
    """Each node's nearest strict ancestor in ``ids`` (None if it has none)
    and the breadth-first order, from one pass down the raw parents."""
    kids: dict[int, list[int]] = {t: [] for t in tree.ids}
    order = []
    for t, p in zip(tree.ids, tree.parents):
        (order if p is None else kids[p]).append(t)
    near: dict[int, int | None] = dict.fromkeys(order)
    for t in order:  # the list grows while it is read: breadth-first
        nearest = t if t in ids else near[t]
        for u in kids[t]:
            near[u] = nearest
        order.extend(kids[t])
    return near, order


def _settle(order: list[int], up: Mapping[int, int | None], ids: frozenset[int]) -> dict[int, int]:
    """Height of each node of ``ids`` in the forest where a node of ``ids``
    hangs below ``up`` of it: taken in the reverse of ``order``, each node
    pushes its final height up."""
    height = dict.fromkeys(ids, 0)
    for t in reversed(order):
        u = up[t]
        if u is not None and t in height and height[u] <= height[t]:
            height[u] = height[t] + 1
    return height


def _heights(tree: FiniteTree, ids: frozenset[int]) -> dict[int, int]:
    """Height of each node of ``ids`` in the forest that ``ids`` induces,
    where a node hangs below its nearest kept ancestor."""
    near, order = _walk(tree, ids)
    return _settle(order, near, ids)


def _rank_of(heights: Mapping[int, int]) -> int:
    return max(heights.values(), default=-1) + 1


# (tree, descendant lists, heights) of the last tree climbed: an oracle job
# builds its obstruction coloring and then searches each color on one tree
_last_climb: tuple = (None, {}, {})


def _climb(tree: FiniteTree) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Strict descendants of each node in id order, and heights, of ``tree``,
    remembered for the last tree only: each node, taken in id order, climbs
    the raw parents and joins the list of every ancestor."""
    global _last_climb
    if _last_climb[0] is not tree:
        up = dict(zip(tree.ids, tree.parents))
        below: dict[int, list[int]] = {t: [] for t in tree.ids}
        for t in tree.ids:
            s = up[t]
            while s is not None:
                below[s].append(t)
                s = up[s]
        _last_climb = (tree, below, _heights(tree, frozenset(tree.ids)))
    return _last_climb[1], _last_climb[2]


def _leaf_chains(tree: FiniteTree, n: int):
    """Tuples (t0 < ... < t(n-1) <= tn), tn a leaf, id-lexicographic, off
    ``_climb``: a chain whose top is a leaf closes at it; n = 0 gives leaves."""
    below = _climb(tree)[0]
    stack: list[tuple[int, ...]] = [()]
    while stack:
        chain = stack.pop()
        under = below[chain[-1]] if chain else tree.ids
        if len(chain) < n:
            stack.extend(chain + (u,) for u in reversed(under))
        else:
            leaves = [u for u in under if not below[u]] or chain[-1:]
            yield from (chain + (leaf,) for leaf in leaves)


# -- search reports ------------------------------------------------------------


class ColorBest:
    def __init__(self, rank: int, witness: tuple[int, ...]):
        self.rank, self.witness = rank, witness


class SearchReport:
    def __init__(self, colors: dict[int, ColorBest], explored: int = 0):
        self.colors, self.explored, self.pruned, self.exhaustive = colors, explored, 0, True

    @property
    def best_rank(self) -> int:
        return max((b.rank for b in self.colors.values()), default=0)

    @property
    def best_witness(self) -> tuple[int, ...]:
        best = max(self.colors.values(), key=lambda b: (b.rank, tuple(-i for i in b.witness)),
                   default=None)
        return best.witness if best else ()

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "best_rank": self.best_rank,
            "best_ids": list(self.best_witness),
            "per_color": {str(j): {"rank": b.rank, "ids": list(b.witness)}
                          for j, b in sorted(self.colors.items())},
            "explored": self.explored,
            "pruned": self.pruned,
            "exhaustive": self.exhaustive,
        }


DEFAULT_NODE_BUDGET = 2_000_000


def max_monochromatic_rank(tree: FiniteTree, coloring, j: int,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> SearchReport:
    """Largest rank of a subtree whose ordered pairs all take color j.

    The rank of a finite tree is its longest chain, and every chain of a
    monochromatic subtree is monochromatic, so this is a depth-first search
    down descendant lists for the longest chain of color j, a clique of the
    color-j comparability graph.  As in maximum-clique branch and bound,
    each frame carries its candidates: the nodes below the chain that every
    chain node colors j with (None at the roots: every node).  A chain whose
    candidates cannot carry it past the best found pushes none of them, and
    a popped t is pruned when the chain through it, at most
    len(chain) + 1 + height(t) long, cannot beat it.
    """
    below, height = _climb(tree)
    pair_color = _color_fn(coloring, pairs=True)
    best, witness, explored, pruned, exhaustive = 0, (), 0, 0, True
    chain: list[int] = []
    stack = [(0, t, None) for t in reversed(tree.ids)]  # (len(chain), t, candidates)
    while stack:
        depth, t, allowed = stack.pop()
        if explored == node_budget:
            exhaustive = False
            break
        explored += 1
        if depth + 1 + height[t] <= best:
            pruned += 1
            continue
        del chain[depth:]
        chain.append(t)
        if depth >= best:
            best, witness = depth + 1, tuple(sorted(chain))
        nxt = [u for u in below[t] if (allowed is None or u in allowed) and pair_color(t, u) == j]
        if depth + 1 + len(nxt) > best:
            shared = frozenset(nxt)
            stack.extend((depth + 1, u, shared) for u in reversed(nxt))
    if best == 0 and tree.ids:
        # a single node is always monochromatic (no pairs)
        best, witness = 1, (min(tree.ids),)
    report = SearchReport({j: ColorBest(best, witness)}, explored)
    report.pruned, report.exhaustive = pruned, exhaustive
    return report


def max_monochromatic_rank_nodes(tree: FiniteTree, coloring, j: int) -> SearchReport:
    """Node-coloring variant: the color class itself is the best subtree,
    since dropping nodes never raises rank."""
    color = _color_fn(coloring, pairs=False)
    keep = frozenset(t for t in tree.ids if color(t) == j)
    rank = _rank_of(_heights(tree, keep))
    return SearchReport(colors={j: ColorBest(rank, tuple(sorted(keep)))},
                        explored=len(tree.ids))


def _color_fn(coloring, pairs: bool):
    """A callable coloring as it is; a Coloring or a bare table by lookup."""
    if callable(coloring):
        return coloring
    table = getattr(coloring, "table", coloring)
    return (lambda s, t: table[(s, t)]) if pairs else (lambda t: table[t])


# -- obstruction colorings ----------------------------------------------------


def multiplicative_obstruction(tree: FiniteTree, alpha: int):
    """Two-coloring of ordered pairs: 0 inside one alpha-block of
    derivatives, 1 across blocks."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    taus = _climb(tree)[1]

    def color(s: int, t: int) -> int:
        return 0 if taus[s] // alpha == taus[t] // alpha else 1

    return color


def additive_obstruction(tree: FiniteTree):
    """Node coloring by tau class (level index)."""
    taus = _climb(tree)[1]
    return lambda t: taus[t]


# -- cross validation ----------------------------------------------------------


def cross_validate(result) -> Report:
    """Re-derive every claim of a stabilization result with fresh scans.

    The first mismatch raises VerificationError naming the violated claim,
    and no later check runs.  ``result`` is a stabilize.StabilizationResult;
    only its data fields are touched here.
    """
    report = Report()

    def record(name: str, passed: bool, detail: str) -> None:
        report.add(name, passed, "" if passed else detail)
        if not passed:
            raise VerificationError(f"{name}: {detail}")

    ambient: FiniteTree = result.ambient
    sub: FiniteTree = result.subtree
    q_ids = frozenset(sub.ids)
    p_ids = frozenset(ambient.ids)
    record("subtree-nonempty", bool(q_ids) or not p_ids,
           "empty output from a non-empty input")
    record("subtree-containment", q_ids <= p_ids,
           f"{sorted(q_ids - p_ids)} outside the ambient tree")

    # one walk: near climbs inside Q, and both height maps settle along order
    near, order = _walk(ambient, q_ids)
    tau_p = _settle(order, dict(zip(ambient.ids, ambient.parents)), p_ids)
    tau_q = _settle(order, near, q_ids)
    rank_q = _rank_of(tau_q)
    record("rank-preserved", rank_q == result.expected_rank,
           f"rank {rank_q} != required {result.expected_rank}")

    if result.mode in ("levels", "pairs", "leaf-chains"):
        mismatch = [t for t in q_ids if tau_q[t] != tau_p[t]]
        record("tau-compatible", not mismatch,
               f"tau changes on nodes {sorted(mismatch)[:5]}")

    color = result.coloring
    if result.mode == "levels":
        # here and below, a missing table entry counts as a disagreement
        table = dict(enumerate(result.reduced))
        bad = [t for t in q_ids if color.value(t) != table.get(tau_q[t])]
        record("level-colors-constant", not bad,
               f"nodes {sorted(bad)[:5]} disagree with the level table")
        # monochromatic extraction can never beat the exhaustive optimum
        if len(p_ids) <= 18:
            for j in sorted(set(table.values())):
                picked = frozenset(t for t in q_ids if table[tau_q[t]] == j)
                opt = max_monochromatic_rank_nodes(ambient, color, j)
                record(
                    f"extraction-within-optimum[{j}]",
                    _rank_of(_heights(ambient, picked)) <= opt.colors[j].rank,
                    "extracted class outranks the exhaustive search")
    elif result.mode == "pairs":
        table = result.reduced
        bad = []
        for t in q_ids:
            s = near[t]
            while s is not None:
                i, jj = tau_q[t], tau_q[s]
                if i < jj and color.value((s, t)) != table.get((i, jj)):
                    bad.append((s, t))
                s = near[s]
        record("pair-colors-by-level", not bad,
               f"pairs {bad[:5]} disagree with the level-pair table")
    elif result.mode == "leaf-chains":
        table = result.reduced
        bad = [chain for chain in _leaf_chains(sub, color.n)
               if table.get(chain[:-1]) != color.value(chain)]
        record("chain-colors-agree", not bad,
               f"chains {bad[:3]} disagree with the reduced function")
    elif result.mode == "ramsey-reduce":
        j = result.reduced["color"]
        bad = []
        for t in q_ids:
            s = near[t]
            while s is not None:
                if tau_q[s] > tau_q[t] and color.value((s, t)) != j:
                    bad.append((s, t))
                s = near[s]
        record("cross-level-monochromatic", not bad,
               f"pairs {bad[:5]} are not color {j}")
    return report
