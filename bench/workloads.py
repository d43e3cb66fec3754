"""Seeded inputs, jobs and verdict checks for the four benchmark workloads.

A workload builds one *pass*: a list of jobs made from the seed and the
pass index.  Each job is a ``run`` callable that calls the program's
public API and returns what it produced, and a ``check`` callable that
judges that output against facts the benchmark computed itself from the
inputs it generated (parent maps, heights, known optima).  A check raises
``WrongVerdict``; it never trusts the program's own certificates alone, so
a fast wrong answer counts as a failure instead of posting a time.

Sizes follow a fixed schedule per workload and the seed only picks tree
shapes, node ids and colors, so one seed costs about as much as another.
This module imports nothing from the program: ``build`` receives the
imported ``treeramsey`` package and reaches every function through it at
call time, which lets the tracer wrap them after set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("transfinite", "finite", "oracle", "demo")


class WrongVerdict(AssertionError):
    """The program's output disagrees with the benchmark's expectation."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # check(output) raises WrongVerdict, else returns extra fields for the record
    check: Callable[[object], dict]


def build(tr, workload: str, seed: int, pass_index: int, smoke: bool = False,
          wrong: bool = False) -> list[Job]:
    """The jobs of one pass.  ``wrong`` corrupts every expected verdict, so
    that a correct program fails every check (used to test the checks)."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "demo":
        return _demo(tr, rng, seed, pass_index, smoke, wrong)
    return _WORKLOAD_JOBS[workload](tr, rng, smoke, wrong)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongVerdict(message)


# -- the benchmark's own tree generator and structure helpers ---------------------


@dataclass
class Shape:
    """A generated forest: parent map plus facts derived without the program."""

    parent: dict[int, int | None]
    anc: dict[int, frozenset[int]]   # strict ancestors
    height: dict[int, int]           # 0 at a leaf, else 1 + max over children

    @property
    def rank(self) -> int:
        return 1 + max(self.height.values())

    def chain_rank(self, ids) -> int:
        """Longest chain inside an id subset under the induced order.
        Ancestor sets are chains, so it is 1 + the most ancestors kept."""
        keep = frozenset(ids)
        return max((len(self.anc[t] & keep) + 1 for t in keep), default=0)

    def tree_doc(self) -> dict:
        return {"schema_version": 1,
                "nodes": [{"id": t, "parent": p} for t, p in sorted(self.parent.items())]}


def _shape(order: list[int], parent_of: dict[int, int | None]) -> Shape:
    """``order`` lists every node after its parent."""
    anc: dict[int, frozenset[int]] = {}
    for t in order:
        p = parent_of[t]
        anc[t] = frozenset() if p is None else anc[p] | {p}
    height = dict.fromkeys(order, 0)
    for t in reversed(order):
        p = parent_of[t]
        if p is not None:
            height[p] = max(height[p], height[t] + 1)
    return Shape(dict(parent_of), anc, height)


def grow(rng: random.Random, rank: int, n: int) -> Shape:
    """A forest of exactly ``rank`` levels on ``n`` nodes: a spine of
    ``rank`` nodes, then each further node hung below a uniformly chosen
    node that still has room under the depth cap (or, with the weight of one
    node, as a new root).  Ids are a random permutation of 0..n-1."""
    if not 1 <= rank <= n:
        raise ValueError("need 1 <= rank <= n")
    parent: list[int | None] = [None]
    depth = [0]
    for i in range(1, rank):
        parent.append(i - 1)
        depth.append(i)
    room = [i for i in range(rank) if depth[i] + 1 < rank]
    for i in range(rank, n):
        k = rng.randrange(len(room) + 1)
        p = None if k == len(room) else room[k]
        parent.append(p)
        depth.append(0 if p is None else depth[p] + 1)
        if depth[i] + 1 < rank:
            room.append(i)
    label = rng.sample(range(n), n)
    return _shape([label[i] for i in range(n)],
                  {label[i]: (None if p is None else label[p]) for i, p in enumerate(parent)})


def full(n: int, rng: random.Random | None = None) -> Shape:
    """The tree of non-empty decreasing sequences over {0..n-1}: 2^n - 1
    nodes, rank n.  Without ``rng`` the ids are those of
    ``canonical.instantiate(n)`` (preorder, larger entries first); with it
    they are a random permutation."""
    seqs: list[tuple[int, ...]] = []
    stack = [(x,) for x in range(n)]
    while stack:
        s = stack.pop()
        seqs.append(s)
        stack.extend(s + (x,) for x in range(s[-1]))
    ids = rng.sample(range(len(seqs)), len(seqs)) if rng else range(len(seqs))
    label = dict(zip(seqs, ids))
    return _shape([label[s] for s in seqs],
                  {label[s]: (label[s[:-1]] if len(s) > 1 else None) for s in seqs})


# -- transfinite ------------------------------------------------------------------

# (beta, separation table F, budget depth/width/cap).  Together they take
# every construction path: finite top layer, limit, successor through a
# filtered piece, and a two-layer finite tree.
TRANSFINITE_CASES = (
    ("w^3", (2, 0, 1), (4, 3, 6)),
    ("w^w", (1,), (4, 3, 6)),
    ("w^(w+1)", (1, 0), (5, 2, 6)),
    ("w^2", (1, 0), (5, 4, 6)),
)
TRANSFINITE_SMOKE = (
    ("w^3", (2, 0, 1), (2, 2, 6)),
    ("w^w", (1,), (2, 2, 6)),
    ("w^(w+1)", (1, 0), (2, 2, 6)),
    ("w^2", (1, 0), (3, 2, 6)),
)


def _transfinite(tr, rng, smoke, wrong):
    cases = list(TRANSFINITE_SMOKE if smoke else TRANSFINITE_CASES)
    rng.shuffle(cases)
    jobs = []
    for text, table, budget in cases:
        beta = tr.parse_ordinal(text)
        expected = (table[0] + 1,) + table[1:] if wrong else table

        def run(beta=beta, table=table, budget=budget):
            return tr.stabilize_transfinite(tr.CanonicalTree.of(0, beta),
                                            tr.RuleColoring.sep_table(table),
                                            tr.Budget(*budget))

        def check(res, beta=beta, expected=expected):
            _expect(tuple(res.table) == expected, f"table {res.table} != {expected}")
            _expect(res.report.ok, "audit report has a failed check")
            _expect(res.subtree.declared_rank == beta,
                    f"declared rank {res.subtree.declared_rank} != tree rank {beta}")
            return {}

        jobs.append(Job(f"I(0,{text}) F={table} budget={budget}", run, check))
    return jobs


# -- finite -------------------------------------------------------------------------

# (shape, size, job).  deep: a spine of rank `size` padded to 3x its length,
# which stresses the repeated derivative/rank path; bushy: `size` nodes of
# rank 12, which stresses pair enumeration; full: the decreasing-sequence
# tree over {0..size-1}.
# Several jobs cost about the same as the median job, so that job_p50_s
# sits inside a cluster instead of in a gap between two job sizes.
FINITE_SCHEDULE = (
    ("deep", 26, "pairs"), ("deep", 30, "pairs"), ("deep", 32, "levels"),
    ("deep", 36, "ramsey"), ("deep", 44, "pairs"), ("deep", 50, "calculus"),
    ("bushy", 600, "pairs"), ("bushy", 900, "levels"), ("bushy", 1200, "ramsey"),
    ("bushy", 1600, "pairs"), ("bushy", 2000, "pairs"), ("bushy", 1500, "calculus"),
    ("full", 9, "calculus"), ("full", 10, "calculus"),
)
FINITE_SMOKE = (
    ("deep", 6, "pairs"), ("deep", 7, "levels"), ("deep", 6, "ramsey"),
    ("bushy", 40, "calculus"), ("full", 4, "calculus"),
)
BUSHY_RANK = 12


def _finite(tr, rng, smoke, wrong):
    jobs = []
    for kind, size, mode in (FINITE_SMOKE if smoke else FINITE_SCHEDULE):
        if kind == "deep":
            shape = grow(rng, size, 3 * size)
        elif kind == "bushy":
            shape = grow(rng, min(BUSHY_RANK, size), size)
        else:
            shape = full(size, rng)
        jobs.append(_finite_job(tr, rng, f"{kind}-{size} {mode}", shape, mode, wrong))
    return jobs


def _finite_job(tr, rng, name, shape: Shape, mode, wrong) -> Job:
    tree_doc = shape.tree_doc()
    bump = 1 if wrong else 0
    if mode == "calculus":
        def run():
            tree = tr.FiniteTree.from_json(tree_doc)
            decomposition = tr.levels(tree)
            return (tree.rank(), dict(tree.tau_map), decomposition,
                    sum(1 for _ in tree.ordered_pairs()))

        def check(out):
            rank, taus, decomposition, pairs = out
            _expect(rank == shape.rank + bump, f"rank {rank} != {shape.rank + bump}")
            _expect(taus == shape.height, "tau map differs from the node heights")
            by_level = [frozenset(t for t, h in shape.height.items() if h == i)
                        for i in range(shape.rank)]
            _expect(list(decomposition.blocks) == by_level, "levels are not the height classes")
            expected = sum(len(a) for a in shape.anc.values())
            _expect(pairs == expected, f"{pairs} ordered pairs != {expected}")
            return {}

        return Job(name, run, check)

    if mode == "levels":
        color_doc = {"schema_version": 1, "k": 1, "arity": 1,
                     "nodes": [[t, rng.randrange(2)] for t in sorted(shape.parent)]}
    else:
        color_doc = {"schema_version": 1, "k": 1, "arity": 2,
                     "pairs": [[s, t, rng.randrange(2)]
                               for t in sorted(shape.parent) for s in sorted(shape.anc[t])]}
    target = 3 if mode == "ramsey" else shape.rank

    def run():
        tree = tr.FiniteTree.from_json(tree_doc)
        coloring = tr.Coloring.from_json(color_doc)
        if mode == "levels":
            result = tr.stabilize_levels(tree, coloring)
        elif mode == "pairs":
            result = tr.stabilize_pairs_by_level(tree, coloring)
        else:
            result = tr.ramsey_reduce_levels(tree, 2, coloring)
        return result, tr.cross_validate(result)

    def check(out):
        result, cross = out
        ids = frozenset(result.subtree.ids)
        _expect(ids <= frozenset(shape.parent), "output ids escape the input tree")
        got = shape.chain_rank(ids)
        _expect(got == target + bump, f"output rank {got} != {target + bump}")
        _expect(result.certificate.ok, "certificate has a failed check")
        _expect(cross.ok, "cross-validation failed")
        return {}

    return Job(name, run, check)


# -- oracle ---------------------------------------------------------------------------

ORACLE_NODE_BUDGET = 100_000
ORACLE_ALPHA = 2
# Search time grows steeply with the node count, so many small seeded trees
# (exact rank 4..7 on 8..12 nodes) give a job_p50_s that holds still from
# seed to seed; then come the full trees over
# {0..3} and {0..4} with the ids of canonical.instantiate, the same in every
# pass: color 0 of the latter is the search that does not finish
ORACLE_TREES = tuple((rank, n) for _ in range(6) for rank in (4, 5, 6, 7)
                     for n in (8, 10, 12))
ORACLE_FULL = (4, 5)
ORACLE_SMOKE_TREES = ((3, 6), (4, 8))
ORACLE_SMOKE_FULL = (3,)


def _oracle(tr, rng, smoke, wrong):
    shapes = [(f"rank-{rank} n={n}", grow(rng, rank, n))
              for rank, n in (ORACLE_SMOKE_TREES if smoke else ORACLE_TREES)]
    shapes += [(f"full-{n}", full(n)) for n in (ORACLE_SMOKE_FULL if smoke else ORACLE_FULL)]
    return [_oracle_job(tr, name, shape, wrong) for name, shape in shapes]


def _oracle_job(tr, name, shape: Shape, wrong) -> Job:
    rank = shape.rank
    # a pair inside one alpha-block of heights takes color 0: a best color-0
    # subtree is a chain inside one block, a best color-1 subtree takes one
    # node per block
    optimum = {0: min(ORACLE_ALPHA, rank), 1: -(-rank // ORACLE_ALPHA)}
    bump = 1 if wrong else 0

    def color(s, t):
        return 0 if shape.height[s] // ORACLE_ALPHA == shape.height[t] // ORACLE_ALPHA else 1

    def run():
        tree = tr.FiniteTree.from_parents(shape.parent)
        coloring = tr.multiplicative_obstruction(tree, ORACLE_ALPHA)
        return [tr.max_monochromatic_rank(tree, coloring, j, node_budget=ORACLE_NODE_BUDGET)
                for j in (0, 1)]

    def check(reports):
        decided = 0
        for j, report in enumerate(reports):
            best = report.colors[j]
            opt = optimum[j] + bump
            if report.exhaustive:
                decided += 1
                _expect(best.rank == opt, f"color {j}: exhaustive rank {best.rank} != {opt}")
            else:
                _expect(best.rank <= opt, f"color {j}: rank {best.rank} beats optimum {opt}")
            witness = frozenset(best.witness)
            _expect(witness <= frozenset(shape.parent), f"color {j}: witness escapes the tree")
            _expect(shape.chain_rank(witness) == best.rank,
                    f"color {j}: witness rank != reported {best.rank}")
            off = [(s, t) for t in witness for s in shape.anc[t] & witness if color(s, t) != j]
            _expect(not off, f"color {j}: witness pairs {off[:3]} are not color {j}")
        return {"searches": len(reports), "decided": decided}

    return Job(name, run, check)


# -- demo -------------------------------------------------------------------------------

DEMO_CHECKS = (
    "ordinal-laws", "derivative-calculus", "canonical-consistency",
    "block-local-separation", "stabilization-certificates", "ramsey-constant",
    "multiplicative-exclusion", "level-sharpness", "contraction-audits",
    "budgeted-stabilizer",
)
DEMO_SMOKE = ("canonical-consistency", "ramsey-constant", "contraction-audits")
# The cost of the matrix varies by about a tenth from one demo seed to the
# next, so the passes of a run cycle through several demo seeds derived
# from the benchmark seed; each one recurs, for the determinism check.
DEMO_SEEDS_PER_RUN = 4


def _demo(tr, rng, seed, pass_index, smoke, wrong):
    import treeramsey.demo  # noqa: F401  (binds tr.demo; part of set-up)

    demo_seed = DEMO_SEEDS_PER_RUN * seed + pass_index % DEMO_SEEDS_PER_RUN
    return [_demo_job(tr, demo_seed, name, smoke, wrong)
            for name in (DEMO_SMOKE if smoke else DEMO_CHECKS)]


def _demo_job(tr, seed, name, smoke, wrong) -> Job:
    def run():
        return tr.demo.run_all(seed, quick=smoke, names=[name])

    def check(outcomes):
        _expect(len(outcomes) == 1 and outcomes[0].name == name,
                f"expected exactly the outcome of {name}")
        o = outcomes[0]
        _expect(o.passed != wrong, f"{name}: passed={o.passed}: {o.detail}")
        # compared across passes: the same seed must give the same list
        return {"verdict": [o.name, o.passed, o.detail]}

    return Job(f"seed {seed} {name}", run, check)


_WORKLOAD_JOBS = {"transfinite": _transfinite, "finite": _finite, "oracle": _oracle}
