import json
import random
import re
from itertools import combinations

import pytest

from treeramsey.canonical import instantiate
from treeramsey.generate import random_tree
from treeramsey.stabilize import (
    Coloring,
    RamseyBudgetError,
    StabilizationResult,
    StabilizeError,
    _finish,
    extract_monochromatic,
    find_clique_free_coloring,
    finite_ramsey,
    has_monochromatic_subset,
    ramsey_reduce_levels,
    select_leafset,
    select_levels,
    stabilize_leaf_chains,
    stabilize_levels,
    stabilize_pairs_by_level,
)
from treeramsey.tree_core import FiniteTree


@pytest.fixture
def forked():
    # root 0 with leaves 1 and 2
    return FiniteTree.from_parents({0: None, 1: 0, 2: 0})


@pytest.fixture
def i03():
    return instantiate(3).tree


class TestColoring:
    def test_palette_inference(self, forked):
        col = Coloring.of_nodes(forked, lambda t: t % 2)
        assert col.k == 1

    def test_palette_violation(self, forked):
        with pytest.raises(StabilizeError):
            Coloring.of_nodes(forked, lambda t: t, k=1)

    def test_json_palette_enforced(self):
        with pytest.raises(StabilizeError, match="outside palette"):
            Coloring.from_json({"arity": 1, "k": 1, "nodes": [[0, 5], [1, 7]]})
        with pytest.raises(StabilizeError, match="negative"):
            Coloring.from_json({"arity": 1, "k": 1, "nodes": [[0, -1]]})

    def test_json_palette_inferred(self):
        assert Coloring.from_json({"arity": 2, "pairs": [[0, 1, 3], [0, 2, 1]]}).k == 3

    def test_json_round_trip_pairs(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: (s + t) % 3, k=2)
        back = Coloring.from_json(col.to_json())
        assert back.arity == "pairs" and back.table == col.table and back.k == 2

    def test_json_round_trip_nodes(self, forked):
        col = Coloring.of_nodes(forked, lambda t: t % 2)
        back = Coloring.from_json(col.to_json())
        assert back.table == col.table

    def test_json_round_trip_chains(self, i03):
        col = Coloring.of_leaf_chains(i03, 1, lambda s, t: (s * t) % 2, k=1)
        back = Coloring.from_json(col.to_json())
        assert back.n == 1 and back.table == col.table


class TestColoringLoader:
    """Each table is read in one pass, key before value and row by row, so
    the first bad value or short row is the one named."""

    @staticmethod
    def _rows(table, bad, row, column):
        if table == "nodes":
            rows = [[t, t % 2] for t in range(5)]
        else:
            rows = [[s, t, (s + t) % 2] for t in range(4) for s in range(t)]
        rows[{"first": 0, "middle": len(rows) // 2, "last": -1}[row]][column] = bad
        return {"schema_version": 1, "k": 1, "arity": 1 if table == "nodes" else 2, table: rows}

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    @pytest.mark.parametrize("table,column", [("nodes", 0), ("nodes", 1),
                                              ("pairs", 0), ("pairs", 1), ("pairs", 2)])
    def test_bad_value_is_named(self, table, column, row, bad):
        doc = self._rows(table, bad, row, column)
        message = f"malformed coloring document: {bad!r} is not an integer"
        with pytest.raises(StabilizeError, match=f"^{re.escape(message)}$"):
            Coloring.from_json(doc)

    @pytest.mark.parametrize("table", ["nodes", "pairs"])
    def test_first_bad_value_is_named_before_a_later_bad_row(self, table):
        doc = self._rows(table, "1", "first", 0)
        doc[table][-1] = doc[table][-1][:-1]  # a row that does not unpack
        with pytest.raises(StabilizeError,
                           match="^malformed coloring document: '1' is not an integer$"):
            Coloring.from_json(doc)

    def test_row_that_does_not_unpack_is_named(self):
        with pytest.raises(StabilizeError, match=r"^malformed coloring document: not enough "):
            Coloring.from_json({"arity": 2, "pairs": [[0, 1, 0], [0, 2]]})

    def test_repeated_key_keeps_the_last_row(self):
        pairs = Coloring.from_json({"arity": 2, "pairs": [[0, 1, 0], [0, 2, 1], [0, 1, 1]]})
        assert pairs.table == {(0, 1): 1, (0, 2): 1}
        nodes = Coloring.from_json({"arity": 1, "nodes": [[0, 1], [1, 0], [0, 0]]})
        assert nodes.table == {0: 0, 1: 0}


class TestLeafChains:
    def test_two_leaf_selection(self, forked):
        col = Coloring.of_leaf_chains(forked, 0, lambda leaf: 0 if leaf == 1 else 1, k=1)
        res = stabilize_leaf_chains(forked, 0, col)
        assert set(res.subtree.ids) == {0, 1}
        assert res.reduced[()] == 0
        assert res.certificate.ok

    def test_constant(self, forked):
        col = Coloring.of_leaf_chains(forked, 0, lambda leaf: 1, k=1)
        res = stabilize_leaf_chains(forked, 0, col)
        assert res.subtree.rank() == forked.rank()
        assert res.reduced[()] == 1

    def test_chain_length_one(self):
        chain = FiniteTree.chain_tree(3)
        depth = {0: 0, 1: 1, 2: 2}
        col = Coloring.of_leaf_chains(chain, 1, lambda s, t: depth[s] % 2, k=1)
        res = stabilize_leaf_chains(chain, 1, col)
        assert set(res.subtree.ids) == {0, 1, 2}
        table = res.reduced
        assert table[(0,)] == col.value((0, 2))
        assert table[(1,)] == col.value((1, 2))
        assert table[(2,)] == col.value((2, 2))

    def test_depth_tree_chains(self, i03):
        col = Coloring.of_leaf_chains(i03, 1, lambda s, t: (s + 2 * t) % 3, k=2)
        res = stabilize_leaf_chains(i03, 1, col)
        assert res.subtree.rank() == 3
        assert res.certificate.ok

    def test_rejects_empty(self):
        col = Coloring("chains", 0, {}, n=0)
        with pytest.raises(StabilizeError):
            stabilize_leaf_chains(FiniteTree.empty(), 0, col)


class TestSelectLeafset:
    def test_single_class(self, forked):
        i, sub = select_leafset(forked, [forked.leaves()])
        assert i == 0 and sub.rank() == forked.rank()

    def test_two_classes(self, forked):
        i, sub = select_leafset(forked, [{1}, {2}])
        assert i == 0 and set(sub.ids) == {0, 1}

    def test_star_minimum_index_wins(self):
        star = FiniteTree.from_parents({0: None, 1: 0, 2: 0, 3: 0})
        i, sub = select_leafset(star, [{1}, {2, 3}])
        assert i == 0 and sub.rank() == 2

    def test_rejects_uncovered(self, forked):
        with pytest.raises(StabilizeError):
            select_leafset(forked, [{1}])

    def test_class_may_hold_inner_nodes(self, forked):
        i, sub = select_leafset(forked, [set(forked.ids)])
        assert i == 0 and set(sub.ids) == {0, 1}


class TestStabilizeLevels:
    def test_antichain_single_node(self):
        anti = FiniteTree.antichain(3)
        col = Coloring.of_nodes(anti, lambda t: t % 2, k=1)
        res = stabilize_levels(anti, col)
        assert set(res.subtree.ids) == {0}
        assert res.reduced == (0,)

    def test_constant(self, i03):
        col = Coloring.of_nodes(i03, lambda t: 1, k=1)
        res = stabilize_levels(i03, col)
        assert res.subtree.rank() == 3 and res.reduced == (1, 1, 1)

    def test_level_indicator_recovered(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        res = stabilize_levels(i03, col)
        assert res.subtree.rank() == 3
        assert res.reduced == (0, 1, 0)

    def test_extraction(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        res = stabilize_levels(i03, col)
        assert extract_monochromatic(res, 0).rank() == 2
        assert extract_monochromatic(res, 1).rank() == 1
        missing = Coloring.of_nodes(i03, lambda t: 0, k=1)
        res2 = stabilize_levels(i03, missing)
        assert extract_monochromatic(res2, 1).rank() == 0


class TestStabilizePairs:
    def test_rank_one_returns_whole_tree(self):
        anti = FiniteTree.antichain(4)
        col = Coloring.of_pairs(anti, lambda s, t: 0, k=1)
        res = stabilize_pairs_by_level(anti, col)
        assert res.subtree.ids == anti.ids and res.reduced == {}

    def test_star_alternating(self):
        star = FiniteTree.from_parents({0: None, 1: 0, 2: 0, 3: 0})
        col = Coloring.of_pairs(star, lambda s, t: t % 2, k=1)
        res = stabilize_pairs_by_level(star, col)
        assert res.subtree.rank() == 2
        assert set(res.reduced) == {(0, 1)}
        assert res.certificate.ok

    def test_constant(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: 1, k=1)
        res = stabilize_pairs_by_level(i03, col)
        assert res.subtree.rank() == 3
        assert set(res.reduced.values()) == {1}

    def test_certificates_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = random_tree(rng, max_nodes=14, max_rank=4)
            k = rng.randrange(0, 3)
            col = Coloring.of_pairs(tree, lambda s, t: rng.randrange(0, k + 1), k=k)
            res = stabilize_pairs_by_level(tree, col)
            assert res.subtree.rank() == tree.rank()
            assert res.certificate.ok


class TestFiniteRamsey:
    @pytest.mark.parametrize("p,k,expected", [
        (1, 1, 1),
        (1, 0, 1),
        (2, 0, 2),
        (3, 0, 3),
        (1, 2, 1),
        (2, 1, 5),
    ])
    def test_values(self, p, k, expected):
        assert finite_ramsey(p, k) == expected

    def test_monotone_on_computed_range(self):
        grid = {(p, k): finite_ramsey(p, k)
                for p, k in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]}
        assert grid[(1, 0)] <= grid[(2, 0)] <= grid[(3, 0)]
        assert grid[(1, 0)] <= grid[(1, 1)] <= grid[(1, 2)]
        assert grid[(2, 0)] <= grid[(2, 1)]

    def test_budget_exceeded_reports_bounds(self):
        with pytest.raises(RamseyBudgetError) as err:
            finite_ramsey(3, 1)  # needs 18 points, far over the cap
        assert err.value.lower_bound >= 8

    def test_color_budget(self):
        with pytest.raises(RamseyBudgetError):
            finite_ramsey(1, 5)

    @pytest.mark.parametrize("p,k", [(3, 1), (1, 5)])
    def test_budget_error_is_raised_on_every_call(self, p, k):
        """Values are cached; errors are not, so a repeated call raises again."""
        for _ in range(3):
            with pytest.raises(RamseyBudgetError):
                finite_ramsey(p, k)

    def test_repeated_call_gives_the_same_value(self):
        assert [finite_ramsey(2, 1) for _ in range(3)] == [5, 5, 5]

    def test_witness_machinery(self):
        bad = find_clique_free_coloring(5, 3, 2)
        assert bad is not None
        assert not has_monochromatic_subset(bad, 5, 3)
        assert find_clique_free_coloring(6, 3, 2) is None


class TestRamseyReduce:
    def test_minimal_instance(self):
        two = FiniteTree.chain_tree(2)
        col = Coloring.of_pairs(two, lambda s, t: 1, k=1)
        res = ramsey_reduce_levels(two, 1, col)
        assert res.subtree.rank() == 2
        assert res.reduced["color"] == 1
        assert res.certificate.ok

    def test_constant_picks_first_subset(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: 0, k=0)
        res = ramsey_reduce_levels(i03, 2, col)
        assert res.reduced["picked"] == (0, 1, 2)
        assert res.reduced["color"] == 0

    def test_rank_six_instance(self):
        window = instantiate(6)
        tree = window.tree
        col = Coloring.of_pairs(tree, lambda s, t: (3 * s + 7 * t) % 2, k=1)
        res = ramsey_reduce_levels(tree, 2, col)
        assert res.subtree.rank() == 3
        assert res.certificate.ok
        taus = res.subtree.tau_map
        for s, t in res.subtree.ordered_pairs():
            if taus[s] > taus[t]:
                assert col.value((s, t)) == res.reduced["color"]

    def test_reports_required_rank(self):
        small = FiniteTree.chain_tree(3)
        col = Coloring.of_pairs(small, lambda s, t: (s + t) % 2, k=1)
        with pytest.raises(StabilizeError, match="rank"):
            ramsey_reduce_levels(small, 2, col)


class TestSelectLevelsConvention:
    def test_all_levels_identity(self, i03):
        assert select_levels(i03, range(3)).ids == i03.ids

    def test_out_of_range(self, i03):
        with pytest.raises(Exception):
            select_levels(i03, [7])


class TestResultDocuments:
    """``StabilizationResult.from_json`` reads back what ``to_json`` writes."""

    @pytest.mark.parametrize("mode", ["levels", "pairs", "leaf-chains", "ramsey-reduce"])
    def test_round_trip_rechecks_to_the_same_certificate(self, mode):
        tree = instantiate(6).tree
        if mode == "levels":
            res = stabilize_levels(tree, Coloring.of_nodes(tree, lambda t: t % 2, k=1))
        elif mode == "pairs":
            res = stabilize_pairs_by_level(
                tree, Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1))
        elif mode == "leaf-chains":
            res = stabilize_leaf_chains(
                tree, 1, Coloring.of_leaf_chains(tree, 1, lambda s, t: (s * t) % 2, k=1))
        else:
            res = ramsey_reduce_levels(
                tree, 1, Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1))
        back = StabilizationResult.from_json(json.loads(json.dumps(res.to_json())))
        assert back.mode == res.mode
        assert back.recheck().checks == res.certificate.checks
        assert back.recheck().ok

    @pytest.mark.parametrize("mode,check", [("levels", "level-colors-constant"),
                                            ("pairs", "pair-colors-by-level"),
                                            ("leaf-chains", "chain-colors-agree")])
    def test_missing_table_entry_fails_its_check(self, mode, check, i03):
        if mode == "levels":
            res = stabilize_levels(i03, Coloring.of_nodes(i03, lambda t: t % 2, k=1))
        elif mode == "pairs":
            res = stabilize_pairs_by_level(
                i03, Coloring.of_pairs(i03, lambda s, t: (s + t) % 2, k=1))
        else:
            res = stabilize_leaf_chains(
                i03, 1, Coloring.of_leaf_chains(i03, 1, lambda s, t: (s * t) % 2, k=1))
        doc = res.to_json()
        doc["reduced"] = doc["reduced"][1:]
        assert StabilizationResult.from_json(doc).recheck().failed.name == check

    @pytest.mark.parametrize("tamper", ["no-pair-stage-tau", "short-picked"])
    def test_ramsey_reduce_missing_entry_fails_its_check(self, tamper):
        tree = instantiate(6).tree
        res = ramsey_reduce_levels(
            tree, 1, Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1))
        doc = json.loads(json.dumps(res.to_json()))
        if tamper == "no-pair-stage-tau":
            del doc["extra"]["pair_stage_tau"]
        else:
            doc["reduced"]["picked"] = doc["reduced"]["picked"][:-1]
        report = StabilizationResult.from_json(doc).recheck()
        assert report.failed.name == "levels-relabelled-in-order"

    def test_tampered_table_is_an_internal_defect(self, i03):
        taus = i03.tau_map
        res = stabilize_levels(i03, Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1))
        res.reduced = tuple(1 - c for c in res.reduced)
        with pytest.raises(StabilizeError,
                           match="^internal stabilization defect: level-colors-constant: "):
            _finish(res)


class TestDeepChains:
    """The greedy chain is a loop, so rank is not bounded by the recursion limit."""

    def test_levels_and_leaf_chains_on_a_100000_node_descending_chain(self):
        # the root carries the largest id, so the top of the greedy chain is
        # found last, and tau(t) = t
        n = 100_000
        chain = FiniteTree.from_parents({t: t + 1 if t + 1 < n else None for t in range(n)})
        levels = stabilize_levels(chain, Coloring.of_nodes(chain, lambda t: t % 3, k=2))
        assert levels.subtree.ids == chain.ids and levels.certificate.ok
        assert levels.reduced[:4] == (0, 1, 2, 0)
        leaf = Coloring.of_leaf_chains(chain, 0, lambda t: 1, k=1)
        res = stabilize_leaf_chains(chain, 0, leaf)
        assert res.subtree.ids == chain.ids and res.reduced == {(): 1}

    def test_pairs_on_a_300_node_chain(self):
        chain = FiniteTree.chain_tree(300)
        col = Coloring.of_pairs(chain, lambda s, t: (s + t) % 2, k=1)
        res = stabilize_pairs_by_level(chain, col)
        assert res.subtree.ids == chain.ids and res.certificate.ok
        assert len(res.reduced) == 300 * 299 // 2
        assert res.reduced[(0, 299)] == col.value((0, 299))


# -- reference: the rank-deep recursions that the greedy chain replaced -------------


def _reference_levels(P, value):
    rank = P.rank()
    if rank == 1:
        t = min(P.ids)
        return P.restrict([t]), [value(t)]
    t = min(P.iterated_derivative(rank - 1).ids)
    inner, table = _reference_levels(P.subtree_at(t, strict=True), value)
    return P.restrict(set(inner.ids) | {t}), table + [value(t)]


def _reference_pairs(P, value):
    rank = P.rank()
    if rank == 1:
        return P, {}
    t = min(P.iterated_derivative(rank - 1).ids)
    inner, G = _reference_pairs(P.subtree_at(t, strict=True), value)
    stabilized, B = _reference_levels(inner, lambda u: value((t, u)))
    G = dict(G)
    for i, color in enumerate(B):
        G[(i, rank - 1)] = color
    return P.restrict(set(stabilized.ids) | {t}), G


def _reference_chains(P, n, value):
    rank = P.rank()
    if rank == 1:
        t = min(P.ids)
        Q = P.restrict([t])
        if n == 0:
            return Q, {(): value((t,))}
        if n == 1:
            return Q, {(t,): value((t, t))}
        return Q, {}
    t = min(P.iterated_derivative(rank - 1).ids)
    S, F0 = _reference_chains(P.subtree_at(t, strict=True), n, value)
    if n == 0:
        return P.restrict(set(S.ids) | {t}), F0
    T, G = _reference_chains(S, n - 1, lambda chain: value((t,) + chain))
    Q = P.restrict(set(T.ids) | {t})
    return Q, {lam: G[lam[1:]] if lam[0] == t else F0[lam] for lam in Q.chains(n)}


def _permuted_random_tree(rng):
    """A random forest of up to 30 nodes whose ids are a random sample of
    0..3n-1, so parents need not have smaller ids than their children."""
    tree = random_tree(rng, max_nodes=30, max_rank=rng.choice((1, 2, 4, None)))
    new = dict(zip(tree.ids, rng.sample(range(3 * len(tree)), len(tree))))
    return FiniteTree.from_parents(
        {new[t]: None if tree.parent(t) is None else new[tree.parent(t)] for t in tree.ids})


def test_greedy_chain_agrees_with_the_recursive_reference():
    rng = random.Random(41)
    ranks = set()
    for _ in range(300):
        tree = _permuted_random_tree(rng)
        ranks.add(tree.rank())
        nodes = Coloring.of_nodes(tree, lambda t: rng.randrange(3), k=2)
        Q, F = _reference_levels(tree, nodes.value)
        res = stabilize_levels(tree, nodes)
        assert (res.subtree.ids, res.reduced) == (Q.ids, tuple(F))

        pairs = Coloring.of_pairs(tree, lambda s, t: rng.randrange(3), k=2)
        Q, G = _reference_pairs(tree, pairs.value)
        res = stabilize_pairs_by_level(tree, pairs)
        assert (res.subtree.ids, res.reduced) == (Q.ids, G)

        for n in range(4):
            chains = Coloring.of_leaf_chains(tree, n, lambda *c: rng.randrange(3), k=2)
            Q, F = _reference_chains(tree, n, chains.value)
            res = stabilize_leaf_chains(tree, n, chains)
            assert (res.subtree.ids, res.reduced) == (Q.ids, F)

        classes = [set(), set(), set()]
        for t in tree.ids:
            for m in rng.sample(classes, rng.randint(1, 2)):
                m.add(t)
        Q, F = _reference_chains(
            tree, 0, lambda chain: min(i for i, m in enumerate(classes) if chain[0] in m))
        assert select_leafset(tree, classes) == (F[()], Q)
    assert 1 in ranks and max(ranks) >= 8


# -- reference: the clique search before bit sets, and coverage off ancestor sets ---


def _reference_clique_free_coloring(m, target, colors):
    """The search before bit sets: each candidate color scans every vertex
    for common neighbours in the assignment dict, then every group of them."""
    def edge(u, v):
        return (u, v) if u < v else (v, u)

    edges = list(combinations(range(m), 2))
    assignment = {}

    def completes_clique(e, c):
        a, b = e
        partners = [v for v in range(m) if v not in e
                    and assignment.get(edge(a, v)) == c and assignment.get(edge(b, v)) == c]
        if target == 2:
            return True
        return any(all(assignment.get(edge(u, v)) == c for u, v in combinations(group, 2))
                   for group in combinations(partners, target - 2))

    c = 0
    while len(assignment) < len(edges):
        e = edges[len(assignment)]
        allowed = min(max(assignment.values(), default=-1) + 2, colors)
        while c < allowed and completes_clique(e, c):
            c += 1
        if c < allowed:
            assignment[e], c = c, 0
        elif assignment:
            c = assignment.popitem()[1] + 1
        else:
            return None
    return dict(assignment)


def test_clique_free_coloring_matches_the_reference():
    # m = 9 with 4-cliques is the first size at which two common neighbours
    # of an edge can be joined by the other color
    cases = [(m, target, colors) for m in range(9) for target in (2, 3, 4)
             for colors in (1, 2, 3)] + [(9, 4, colors) for colors in (1, 2, 3)]
    found = 0
    for m, target, colors in cases:
        expected = _reference_clique_free_coloring(m, target, colors)
        got = find_clique_free_coloring(m, target, colors)
        assert got == expected
        if got:
            found += 1
            assert list(got) == list(expected)
            assert not has_monochromatic_subset(got, m, target)
    assert found > 20


def _pairs_result(rng):
    tree = _permuted_random_tree(rng)
    return stabilize_pairs_by_level(tree, Coloring.of_pairs(tree, lambda s, t: rng.randrange(2)))


def test_coverage_names_the_first_missing_pair_in_ancestor_order():
    rng = random.Random(25)
    missed = 0
    for _ in range(100):
        res = _pairs_result(rng)
        tree, doc = res.ambient, res.to_json()
        rows = doc["coloring"]["pairs"]
        if not rows:
            continue
        for row in rng.sample(rows, min(len(rows), rng.randint(1, 2))):
            rows.remove(row)
        gone = {(s, t) for s, t, _ in res.coloring.to_json()["pairs"]} - \
            {(s, t) for s, t, _ in rows}
        # the key order of the parent: ids, then each node's sorted ancestor set
        first = next((s, t) for t in tree.ids for s in sorted(tree.ancestors(t))
                     if (s, t) in gone)
        with pytest.raises(StabilizeError) as info:
            StabilizationResult.from_json(doc)
        assert str(info.value) == f"coloring assigns no color to {first}"
        missed += 1
    assert missed >= 50


def test_reading_a_pairs_result_builds_no_ancestor_sets():
    res = _pairs_result(random.Random(3))
    back = StabilizationResult.from_json(json.loads(json.dumps(res.to_json())))
    assert back.ambient == res.ambient and back.recheck().ok
    assert "anc" not in vars(back.ambient) and "anc" not in vars(back.subtree)
