import ast
import copy
import random
from pathlib import Path

import pytest

from treeramsey import verify
from treeramsey.canonical import instantiate
from treeramsey.generate import random_tree, random_tree_of_rank
from treeramsey.stabilize import (
    Coloring,
    ramsey_reduce_levels,
    stabilize_levels,
    stabilize_pairs_by_level,
)
from treeramsey.tree_core import FiniteTree
from treeramsey.verify import (
    VerificationError,
    _heights,
    _rank_of,
    additive_obstruction,
    cross_validate,
    max_monochromatic_rank,
    max_monochromatic_rank_nodes,
    multiplicative_obstruction,
)


@pytest.fixture
def i03():
    return instantiate(3).tree


class TestMonochromaticSearch:
    def test_constant_coloring_gives_full_rank(self, i03):
        report = max_monochromatic_rank(i03, lambda s, t: 0, 0)
        assert report.colors[0].rank == i03.rank()
        assert report.exhaustive

    def test_antichain_is_rank_one(self):
        anti = FiniteTree.antichain(4)
        report = max_monochromatic_rank(anti, lambda s, t: 0, 1)
        assert report.colors[1].rank == 1

    def test_block_coloring_on_depth3(self, i03):
        coloring = multiplicative_obstruction(i03, 2)
        for j in (0, 1):
            report = max_monochromatic_rank(i03, coloring, j)
            assert report.colors[j].rank == 2
            assert report.exhaustive

    def test_budget_flag(self, i03):
        report = max_monochromatic_rank(i03, lambda s, t: 0, 0, node_budget=3)
        assert not report.exhaustive
        # the node popped when the budget ran out is not counted
        assert report.explored == 3

    def test_witness_achieves_rank(self):
        rng = random.Random(3)
        for _ in range(20):
            tree = random_tree(rng, max_nodes=12)
            coloring = multiplicative_obstruction(tree, 2)
            report = max_monochromatic_rank(tree, coloring, 0)
            witness = tree.restrict(report.colors[0].witness)
            assert witness.rank() == report.colors[0].rank

    def test_isomorphism_invariance(self):
        rng = random.Random(17)
        tree = random_tree(rng, max_nodes=10, min_nodes=4)
        coloring = multiplicative_obstruction(tree, 2)
        base = max_monochromatic_rank(tree, coloring, 1).colors[1].rank
        # relabel ids in reverse and rerun
        order = {t: max(tree.ids) - t for t in tree.ids}
        relabeled = FiniteTree.from_parents(
            {order[t]: (None if tree.parent(t) is None else order[tree.parent(t)])
             for t in tree.ids})
        re_coloring = multiplicative_obstruction(relabeled, 2)
        assert max_monochromatic_rank(relabeled, re_coloring, 1).colors[1].rank == base


def _subset_search_rank(tree, pair_color, j):
    """Reference optimum: the branch-and-bound search over id subsets that the
    chain oracle replaced (every id subset is a subtree; prune when the rank
    of the chosen ids plus the remaining candidates cannot beat the best)."""
    anc = dict(zip(tree.ids, tree.anc))
    best = 0

    def compatible(t, chosen):
        return all(pair_color(*((s, t) if s in anc[t] else (t, s))) == j
                   for s in chosen if s in anc[t] or t in anc[s])

    def dfs(idx, chosen):
        nonlocal best
        if _rank_of(_heights(tree, frozenset(chosen) | frozenset(tree.ids[idx:]))) <= best:
            return
        if idx == len(tree.ids):
            best = _rank_of(_heights(tree, frozenset(chosen)))
            return
        t = tree.ids[idx]
        if compatible(t, chosen):
            dfs(idx + 1, chosen + [t])
        dfs(idx + 1, chosen)

    dfs(0, [])
    return max(best, 1 if tree.ids else 0)


class TestChainOracle:
    def test_agrees_with_subset_search(self):
        rng = random.Random(5)
        searches = 0
        for _ in range(300):
            tree = random_tree(rng, max_nodes=12)
            k = rng.choice((2, 3))
            table = {(s, t): rng.randrange(k) for s, t in tree.ordered_pairs()}
            color = lambda s, t: table[(s, t)]
            for j in range(k):
                report = max_monochromatic_rank(tree, color, j)
                best = report.colors[j]
                assert report.exhaustive and 0 <= report.pruned <= report.explored
                assert best.rank == _subset_search_rank(tree, color, j)
                # the witness is a chain of that length whose pairs all take color j
                assert len(best.witness) == best.rank == tree.restrict(best.witness).rank()
                assert all(table[p] == j for p in tree.restrict(best.witness).ordered_pairs())
                searches += 1
        assert searches > 600

    def test_instantiate9_is_exhaustive(self):
        tree = instantiate(9).tree
        coloring = multiplicative_obstruction(tree, 2)
        reports = {j: max_monochromatic_rank(tree, coloring, j) for j in (0, 1)}
        assert all(r.exhaustive for r in reports.values())
        assert [reports[j].colors[j].rank for j in (0, 1)] == [2, 5]

    def test_empty_and_single_node(self):
        assert max_monochromatic_rank(FiniteTree.empty(), lambda s, t: 0, 0).colors[0].rank == 0
        single = max_monochromatic_rank(FiniteTree.chain_tree(1, start=4), lambda s, t: 1, 0)
        assert (single.colors[0].rank, single.colors[0].witness) == (1, (4,))


def _reference_search(tree, pair_color, j, node_budget=verify.DEFAULT_NODE_BUDGET):
    """The chain search before candidate sets: every descendant of an
    accepted node is pushed, and each popped node is checked against the
    whole chain; returns (rank, witness, exhaustive, explored)."""
    below, height = verify._climb(tree)
    best, witness, explored, exhaustive = 0, (), 0, True
    chain = []
    stack = [(0, t) for t in reversed(tree.ids)]
    while stack:
        depth, t = stack.pop()
        del chain[depth:]
        explored += 1
        if explored > node_budget:
            exhaustive = False
            break
        if depth + 1 + height[t] <= best:
            continue
        if any(pair_color(s, t) != j for s in chain):
            continue
        chain.append(t)
        if len(chain) > best:
            best, witness = len(chain), tuple(sorted(chain))
        stack.extend((depth + 1, u) for u in reversed(below[t]))
    if best == 0 and tree.ids:
        best, witness = 1, (min(tree.ids),)
    return best, witness, exhaustive, explored


def _grown(rng, rank, n):
    """``n`` nodes in exactly ``rank`` levels: a spine of ``rank`` nodes, then
    each further node below a random node with room, or a new root; the
    ids are permuted, so the search meets the spine in no fixed order."""
    parent, depth = [], []
    for i in range(n):
        p = (i - 1 if i else None) if i < rank else rng.choice(
            [None] + [q for q in range(i) if depth[q] + 1 < rank])
        parent.append(p)
        depth.append(0 if p is None else depth[p] + 1)
    label = rng.sample(range(n), n)
    return FiniteTree.from_parents(
        {label[i]: None if p is None else label[p] for i, p in enumerate(parent)})


class TestCandidateSets:
    def test_matches_the_reference_search(self):
        rng = random.Random(24)
        trees = [_grown(rng, rng.randint(1, 8), rng.randint(8, 16)) for _ in range(600)]
        trees += [instantiate(4).tree, instantiate(5).tree]
        searches = 0
        for tree in trees:
            colorings = [(multiplicative_obstruction(tree, 2), (0, 1))]
            for k in (1, 2, 3):
                table = {(s, t): rng.randrange(k) for s, t in tree.ordered_pairs()}
                colorings.append((lambda s, t, table=table: table[(s, t)], range(k)))
            for color, js in colorings:
                for j in js:
                    rank, witness, exhaustive, explored = _reference_search(tree, color, j)
                    report = max_monochromatic_rank(tree, color, j)
                    best = report.colors[j]
                    if exhaustive:
                        assert (best.rank, best.witness, report.exhaustive) == \
                            (rank, witness, True)
                    assert report.explored <= explored
                    searches += 1
        assert searches == 8 * len(trees)

    def test_proves_the_optimum_on_a_chain(self):
        chain = FiniteTree.chain_tree(24)
        report = max_monochromatic_rank(chain, multiplicative_obstruction(chain, 2), 1,
                                        node_budget=150_000)
        assert report.exhaustive and report.colors[1].rank == 12
        # the search without candidate sets needs 181,656 nodes here
        assert _reference_search(chain, multiplicative_obstruction(chain, 2), 1,
                                 node_budget=150_000)[2] is False


class TestNodeSearch:
    def test_level_classes_are_antichains(self):
        rng = random.Random(23)
        for _ in range(15):
            tree = random_tree(rng, max_nodes=14)
            coloring = additive_obstruction(tree)
            for j in range(tree.rank()):
                report = max_monochromatic_rank_nodes(tree, coloring, j)
                assert report.colors[j].rank <= 1

    def test_constant_nodes(self, i03):
        col = Coloring.of_nodes(i03, lambda t: 0, k=0)
        assert max_monochromatic_rank_nodes(i03, col, 0).colors[0].rank == 3

    def test_empty_class(self, i03):
        col = Coloring.of_nodes(i03, lambda t: 0, k=1)
        assert max_monochromatic_rank_nodes(i03, col, 1).colors[1].rank == 0


class TestObstructions:
    def test_multiplicative_blocks(self):
        chain = FiniteTree.chain_tree(4)
        coloring = multiplicative_obstruction(chain, 2)
        taus = chain.tau_map
        for s, t in chain.ordered_pairs():
            same = taus[s] // 2 == taus[t] // 2
            assert coloring(s, t) == (0 if same else 1)

    def test_alpha_at_least_rank_collapses(self):
        chain = FiniteTree.chain_tree(4)
        coloring = multiplicative_obstruction(chain, 9)
        assert all(coloring(s, t) == 0 for s, t in chain.ordered_pairs())

    def test_additive_is_tau(self):
        chain = FiniteTree.chain_tree(3)
        coloring = additive_obstruction(chain)
        assert [coloring(t) for t in chain.ids] == [2, 1, 0]

    def test_interleaved_trees(self):
        # only the last tree's climb is remembered: switching trees re-climbs
        chain, flat = FiniteTree.chain_tree(4), FiniteTree.antichain(4)
        on_chain = multiplicative_obstruction(chain, 2)
        on_flat = multiplicative_obstruction(flat, 2)
        assert max_monochromatic_rank(chain, on_chain, 0).colors[0].rank == 2
        assert max_monochromatic_rank(flat, on_flat, 0).colors[0].rank == 1
        assert max_monochromatic_rank(chain, on_chain, 1).colors[1].rank == 2
        assert [additive_obstruction(chain)(t) for t in chain.ids] == [3, 2, 1, 0]
        assert max_monochromatic_rank_nodes(flat, additive_obstruction(flat), 0) \
            .colors[0].rank == 1

    def test_rank_exclusion_at_small_ranks(self):
        rng = random.Random(41)
        for n in (3, 4, 5):
            alpha = 2
            beta = next(b for b in range(2, n) if alpha * b >= n)
            tree = random_tree_of_rank(rng, n, max_nodes=14)
            coloring = multiplicative_obstruction(tree, alpha)
            for j in (0, 1):
                best = max_monochromatic_rank(tree, coloring, j).colors[j].rank
                assert best <= max(alpha, beta) < n


class TestCrossValidation:
    def test_levels_pass(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        res = stabilize_levels(i03, col)
        assert cross_validate(res).ok

    def test_pairs_pass(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: (s + t) % 2, k=1)
        res = stabilize_pairs_by_level(i03, col)
        assert cross_validate(res).ok

    def test_corrupted_subtree_is_named(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        res = stabilize_levels(i03, col)
        broken = copy.deepcopy(res)
        broken.subtree = broken.subtree.restrict(list(broken.subtree.ids)[1:])
        with pytest.raises(VerificationError, match="rank-preserved"):
            cross_validate(broken)

    def test_corrupted_table_is_named(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        res = stabilize_levels(i03, col)
        broken = copy.deepcopy(res)
        broken.reduced = tuple(1 - c for c in broken.reduced)
        with pytest.raises(VerificationError, match="level-colors-constant"):
            cross_validate(broken)

    def test_subtree_outside_ambient_is_named(self, i03):
        taus = i03.tau_map
        col = Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)
        broken = copy.deepcopy(stabilize_levels(i03, col))
        broken.subtree = FiniteTree.chain_tree(3, start=100)
        with pytest.raises(VerificationError, match="^subtree-containment: "):
            cross_validate(broken)

    @staticmethod
    def _flip_distant_pair(result):
        """A copy of ``result`` whose coloring flips one kept pair (s, t) with
        s the parent of t neither in the ambient tree nor in the kept subtree,
        so only a climb of more than one step through the nearest kept
        ancestors reaches it; returns the copy and the pair."""
        sub, ambient = result.subtree, result.ambient
        s, t = next((s, t) for s, t in sub.ordered_pairs()
                    if s not in (ambient.parent(t), sub.parent(t)))
        table = dict(result.coloring.table)
        table[(s, t)] = 1 - table[(s, t)]
        broken = copy.deepcopy(result)
        broken.coloring = Coloring("pairs", 1, table)
        return broken, (s, t)

    def test_tampered_distant_pair_is_named_in_pairs_mode(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: (s + t) % 2, k=1)
        broken, pair = self._flip_distant_pair(stabilize_pairs_by_level(i03, col))
        with pytest.raises(VerificationError,
                           match=rf"^pair-colors-by-level: pairs \[\({pair[0]}, {pair[1]}\)\] "):
            cross_validate(broken)

    def test_tampered_distant_pair_is_named_in_ramsey_reduce_mode(self):
        tree = instantiate(6).tree
        col = Coloring.of_pairs(tree, lambda s, t: (3 * s + 7 * t) % 2, k=1)
        result = ramsey_reduce_levels(tree, 2, col)
        assert cross_validate(result).ok
        broken, pair = self._flip_distant_pair(result)
        with pytest.raises(VerificationError,
                           match=rf"^cross-level-monochromatic: pairs \[\({pair[0]}, {pair[1]}\)\] "):
            cross_validate(broken)

    def test_reads_no_ancestor_sets_of_tree_core(self, i03, monkeypatch):
        """verify climbs the raw parents itself: with ``FiniteTree.anc``
        broken, its checks still run and pass."""
        taus = i03.tau_map
        results = [
            stabilize_levels(i03, Coloring.of_nodes(i03, lambda t: taus[t] % 2, k=1)),
            stabilize_pairs_by_level(i03, Coloring.of_pairs(i03, lambda s, t: (s + t) % 2, k=1)),
            ramsey_reduce_levels(i03, 1, Coloring.of_pairs(i03, lambda s, t: (s + t) % 2, k=1)),
        ]

        def broken(tree):
            raise AssertionError("FiniteTree.anc was read")

        monkeypatch.setattr(FiniteTree, "anc", property(broken))
        assert [cross_validate(result).ok for result in results] == [True, True, True]
        report = max_monochromatic_rank(i03, multiplicative_obstruction(i03, 2), 0)
        assert report.exhaustive and report.colors[0].rank == 2

    def test_empty_result_passes_vacuously(self):
        from treeramsey.stabilize import StabilizationResult
        empty = FiniteTree.empty()
        col = Coloring("nodes", 0, {})
        result = StabilizationResult(empty, empty, "levels", (), col, expected_rank=0)
        assert cross_validate(result).ok

    def test_determinism(self, i03):
        col = Coloring.of_pairs(i03, lambda s, t: (3 * s + t) % 2, k=1)
        first = stabilize_pairs_by_level(i03, col)
        second = stabilize_pairs_by_level(i03, col)
        assert first.subtree.ids == second.subtree.ids
        assert first.reduced == second.reduced
        assert first.to_json() == second.to_json()


def test_package_imports_are_the_tree_and_the_report_only():
    # the oracles share no code with the constructive modules: from the
    # package they take the tree's raw data and the report list, nothing else
    source = ast.parse(Path(verify.__file__).read_text())
    imported = set()
    for node in ast.walk(source):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "treeramsey"):
            imported |= {(node.level, node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "treeramsey" for alias in node.names)
    assert imported == {(1, "tree_core", "FiniteTree"), (1, "report", "Report")}


def test_reads_only_the_raw_tree_data():
    # of a FiniteTree, verify reads its ids and parents and nothing else: a
    # name annotated FiniteTree, the tree attributes of a result, and the
    # class itself are the tree expressions
    source = ast.parse(Path(verify.__file__).read_text())
    trees = {"FiniteTree"}
    for node in ast.walk(source):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and \
                ast.unparse(node.annotation or ast.Constant(None)) == "FiniteTree":
            trees.add(node.arg if isinstance(node, ast.arg) else node.target.id)
    read = {node.attr for node in ast.walk(source) if isinstance(node, ast.Attribute)
            and (isinstance(node.value, ast.Name) and node.value.id in trees
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr in ("ambient", "subtree"))}
    assert trees >= {"FiniteTree", "tree", "ambient", "sub"}
    assert read == {"ids", "parents"}


def test_own_leaf_chains_match_the_tree_methods():
    rng = random.Random(50)
    for _ in range(60):
        tree = random_tree(rng, max_nodes=10, min_nodes=0)
        for n in range(4):
            assert list(verify._leaf_chains(tree, n)) == list(tree.leaf_chains(n))
