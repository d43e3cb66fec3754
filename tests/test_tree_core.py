import random

import pytest

from treeramsey.canonical import instantiate
from treeramsey.generate import random_tree
from treeramsey.tree_core import (
    FiniteTree,
    TreeError,
    exact_int,
    graft,
    incomparable_union,
    levels,
    select_levels,
)
from treeramsey.stabilize import _greedy_chain
from treeramsey.verify import _heights, _rank_of


def _maximal(ids, anc):
    covered = set()
    for t in ids:
        covered.update(anc[t] & ids)
    return frozenset(ids - covered)


def _peeled_rank(ids, anc):
    """Reference rank: the number of rounds that peel every node off."""
    cur, n = frozenset(ids), 0
    while cur:
        cur = cur - _maximal(cur, anc)
        n += 1
    return n


def _peeled_taus(ids, anc):
    """Reference tau: the round in which a node is peeled off as maximal;
    with ``_peeled_rank``, the leaf-peeling pair that verify's height pass
    replaced."""
    out = {}
    cur, z = frozenset(ids), 0
    while cur:
        for t in _maximal(cur, anc):
            out[t] = z
        cur = cur - _maximal(cur, anc)
        z += 1
    return out


def descending_chain_doc(n):
    """A chain whose ids descend from the root n-1 to the leaf 0."""
    return {"schema_version": 1,
            "nodes": [{"id": i, "parent": i + 1 if i + 1 < n else None} for i in range(n)]}


@pytest.fixture
def chain3():
    return FiniteTree.chain_tree(3)


@pytest.fixture
def i03():
    return instantiate(3).tree


class TestConstruction:
    def test_equality_and_hash_read_the_parent_map_only(self):
        a, b = FiniteTree.chain_tree(4), FiniteTree.chain_tree(4)
        assert a.tau_map and "tau_map" in vars(a) and "tau_map" not in vars(b)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != FiniteTree.chain_tree(4, start=1)
        assert a != FiniteTree.antichain(4)
        assert a != (a.ids, a.parents)

    def test_every_construction_calls_post_init(self, monkeypatch):
        built = []
        monkeypatch.setattr(FiniteTree, "__post_init__", lambda tree: built.append(len(tree)))
        FiniteTree((0, 1), (None, 0))
        FiniteTree.chain_tree(3).restrict([0, 2])
        assert built == [2, 3, 2]

    def test_from_parents_rejects_cycles(self):
        with pytest.raises(TreeError):
            FiniteTree.from_parents({0: 1, 1: 0})

    def test_from_parents_rejects_unknown_parent(self):
        with pytest.raises(TreeError):
            FiniteTree.from_parents({0: 7})

    def test_restrict_keeps_induced_order(self, chain3):
        sub = chain3.restrict([0, 2])
        assert 0 in sub.ancestors(2)
        assert sub.parent(2) == 0

    def test_json_round_trip(self, chain3):
        sub = chain3.restrict([0, 2])
        back = FiniteTree.from_json(sub.to_json())
        assert back.ids == sub.ids
        assert 0 in back.ancestors(2)

    def test_from_json_rejects_duplicate_ids(self):
        doc = {"nodes": [{"id": 0, "parent": None}, {"id": 0, "parent": None},
                         {"id": 1, "parent": 0}]}
        with pytest.raises(TreeError, match="duplicate"):
            FiniteTree.from_json(doc)

    def test_from_json_rejects_non_integer_ids(self):
        with pytest.raises(TreeError, match="malformed"):
            FiniteTree.from_json({"nodes": [{"id": "x", "parent": None}]})

    @pytest.mark.parametrize("doc", [{"schema_version": 9, "nodes": []}, [], "tree"])
    def test_from_json_rejects_foreign_documents(self, doc):
        with pytest.raises(TreeError, match="malformed tree document"):
            FiniteTree.from_json(doc)

    @pytest.mark.parametrize("nodes", [
        [{"id": 0, "parent": None}, {"id": 1, "parent": 0}, {"id": True, "parent": 0}],
        [{"id": 0, "parent": None}, {"id": 1, "parent": 0.0}],
        [{"id": 0, "parent": None}, {"id": "1", "parent": 0}, {"id": 2}],
        [{"id": 0, "parent": None}, {"parent": 0}, {"id": 2.5, "parent": 0}],
        [{"id": 0, "parent": None}, {"id": 0, "parent": None}],
        [{"id": 0, "parent": None}, [1, 0]],
        [{"id": 0, "parent": None}, None],
        {"id": 0, "parent": None},
        "nodes",
        7,
        [],
    ])
    def test_loader_errors_name_the_first_bad_value(self, nodes):
        # every value read through exact_int, as the loader reads a document it rejects
        def exact(rows):
            return {exact_int(n["id"]): (None if n["parent"] is None else exact_int(n["parent"]))
                    for n in rows}

        try:
            ref = exact(nodes)
            expected = None if len(ref) == len(nodes) else "duplicate node ids"
        except (KeyError, TypeError, ValueError) as exc:
            expected = f"malformed tree document: {exc}"
        if expected is None:
            assert FiniteTree.from_json({"nodes": nodes}) == FiniteTree.from_parents(ref)
            return
        with pytest.raises(TreeError) as info:
            FiniteTree.from_json({"nodes": nodes})
        assert str(info.value).startswith(expected)

    def test_deep_descending_chain(self):
        n = 100_000
        tree = FiniteTree.from_json(descending_chain_doc(n))
        assert tree.rank() == n
        assert tree.tau(n - 1) == n - 1 and tree.parent(0) == 1 and tree.children(1) == (0,)
        assert tree.leaves() == (0,) and tree.roots() == (n - 1,)
        assert levels(tree).blocks[:3] == (frozenset({0}), frozenset({1}), frozenset({2}))
        top = tree.iterated_derivative(50_000)
        assert top.ids == tuple(range(50_000, n)) and top.roots() == (n - 1,)
        odd = tree.restrict(range(1, n, 2))
        assert odd.rank() == n // 2 and odd.parent(1) == 3 and odd.parent(n - 1) is None

    def test_from_parents_names_the_cycle_node(self):
        with pytest.raises(TreeError, match="parent cycle through node 1"):
            FiniteTree.from_parents({0: 1, 1: 2, 2: 1})


class TestDerivative:
    def test_single_node(self):
        assert FiniteTree.from_parents({0: None}).derivative().ids == ()

    def test_chain(self, chain3):
        assert chain3.derivative().ids == (0, 1)

    def test_two_leaves_removed_together(self):
        star = FiniteTree.from_parents({0: None, 1: 0, 2: 0})
        assert star.derivative().ids == (0,)

    def test_rank_examples(self, chain3, i03):
        assert FiniteTree.empty().rank() == 0
        assert chain3.rank() == 3
        assert i03.rank() == 3

    def test_union_rank_is_max(self):
        u = incomparable_union(
            [FiniteTree.chain_tree(2), FiniteTree.chain_tree(5, start=10)])
        assert u.rank() == 5


class TestTau:
    def test_leaf_is_zero(self, chain3):
        assert chain3.tau(2) == 0

    def test_chain_root(self, chain3):
        assert chain3.tau(0) == 2

    def test_unknown_node(self, chain3):
        with pytest.raises(TreeError):
            chain3.tau(9)


class TestUnionAndGraft:
    def test_empty_union(self):
        assert incomparable_union([]).rank() == 0

    def test_single_part_is_identity(self, chain3):
        assert incomparable_union([chain3]).ids == chain3.ids

    def test_clashing_ids_are_relabelled(self):
        u = incomparable_union([FiniteTree.chain_tree(2), FiniteTree.chain_tree(3)])
        assert len(u) == 5 and u.rank() == 3

    def test_graft_chain(self):
        g = graft(FiniteTree.from_parents({0: None}),
                  {0: FiniteTree.chain_tree(2, start=1)})
        assert g.rank() == 3

    def test_graft_peels_back(self):
        base = FiniteTree.chain_tree(2)
        g = graft(base, {1: FiniteTree.chain_tree(3, start=5)})
        assert g.rank() == 5
        assert g.iterated_derivative(3).ids == base.ids

    def test_graft_empty_attachments(self):
        base = FiniteTree.chain_tree(2)
        assert graft(base, {1: FiniteTree.empty()}).ids == base.ids

    def test_graft_rejects_uneven_ranks(self):
        star = FiniteTree.from_parents({0: None, 1: 0, 2: 0})
        with pytest.raises(TreeError):
            graft(star, {1: FiniteTree.chain_tree(1, start=5),
                         2: FiniteTree.chain_tree(2, start=8)})

    def test_graft_rejects_missing_attachment(self):
        star = FiniteTree.from_parents({0: None, 1: 0, 2: 0})
        with pytest.raises(TreeError):
            graft(star, {1: FiniteTree.chain_tree(1, start=5)})

    def test_graft_relabels_partial_id_collisions(self):
        # attachment shares id 0 with the base but brings fresh ids 1, 2:
        # the whole part must move so no id is ever duplicated
        base = FiniteTree.from_parents({0: None})
        g = graft(base, {0: FiniteTree.chain_tree(3)})
        assert len(set(g.ids)) == len(g.ids) == 4
        assert g.rank() == 4
        assert g.iterated_derivative(3).ids == base.ids

    def test_graft_collision_fuzz(self):
        rng = random.Random(31337)
        for _ in range(40):
            base = random_tree(rng, max_nodes=8)
            z = rng.randrange(1, 4)
            attach = {leaf: FiniteTree.chain_tree(z) for leaf in base.leaves()}
            g = graft(base, attach)
            assert len(set(g.ids)) == len(g.ids)
            assert g.rank() == z + base.rank()
            assert frozenset(g.iterated_derivative(z).ids) == frozenset(base.ids)


class TestClosures:
    def test_downward_closure_of_leaf(self, chain3):
        assert chain3.downward_closure([2]) == frozenset({0, 1, 2})

    def test_empty_closure(self, chain3):
        assert chain3.downward_closure([]) == frozenset()

    def test_subtree_at_root(self, chain3):
        assert chain3.subtree_at(0).ids == (0, 1, 2)
        assert chain3.subtree_at(0, strict=True).ids == (1, 2)

    def test_closure_of_leaves_recovers_tree(self):
        rng = random.Random(5)
        for _ in range(25):
            tree = random_tree(rng, max_nodes=25)
            assert tree.downward_closure(tree.leaves()) == frozenset(tree.ids)
            for t in tree.ids:
                above = tree.subtree_at(t)
                assert any(t == leaf or t in tree.ancestors(leaf) for leaf in tree.leaves())
                assert set(above.leaves()) <= set(tree.leaves())


class TestFamilies:
    def test_lambda2_of_antichain_empty(self):
        assert list(FiniteTree.antichain(3).chains(2)) == []

    def test_lambda2_of_chain(self, chain3):
        assert list(chain3.chains(2)) == [(0, 1), (0, 2), (1, 2)]

    def test_lambda0(self, chain3):
        assert list(chain3.chains(0)) == [()]

    def test_e0_is_leaves(self, i03):
        assert [c[0] for c in i03.leaf_chains(0)] == sorted(i03.leaves())

    def test_e1_count_on_depth3_tree(self, i03):
        # one ancestor-or-self pair per (node, leaf above it)
        pairs = list(i03.leaf_chains(1))
        expected = sum(len(i03.ancestors(leaf)) + 1 for leaf in i03.leaves())
        assert len(pairs) == expected == 8
        assert pairs == sorted(pairs)


class TestLevels:
    def test_blocks_are_tau_classes(self, i03):
        decomposition = levels(i03)
        taus = i03.tau_map
        for i, block in enumerate(decomposition.blocks):
            assert block == frozenset(t for t in i03.ids if taus[t] == i)

    def test_single_node(self):
        assert len(levels(FiniteTree.from_parents({0: None})).blocks) == 1

    def test_chain_two(self):
        two = FiniteTree.chain_tree(2)
        decomposition = levels(two)
        assert decomposition.blocks == (frozenset({1}), frozenset({0}))

    def test_select_levels(self, i03):
        sel = select_levels(i03, [0, 2])
        assert sel.rank() == 2
        taus = i03.tau_map
        assert set(sel.ids) == {t for t in i03.ids if taus[t] in (0, 2)}

    def test_select_middle_level_is_antichain(self, i03):
        sel = select_levels(i03, [1])
        assert sel.rank() == 1
        taus = i03.tau_map
        assert set(sel.ids) == {t for t in i03.ids if taus[t] == 1}

    def test_select_empty_warns(self, chain3):
        with pytest.warns(UserWarning):
            assert select_levels(chain3, []).rank() == 0


class TestCalculusProperties:
    """Sampled identities; the acceptance suite runs the full volume."""

    def setup_method(self):
        self.rng = random.Random(99)

    def _trees(self, n=40):
        for _ in range(n):
            yield random_tree(self.rng, max_nodes=25)

    def test_derivatives_downward_closed(self):
        for tree in self._trees():
            cur = tree
            while cur.ids:
                cur = cur.derivative()
                assert tree.is_downward_closed(cur.ids)

    def test_iterated_derivative_composes(self):
        for tree in self._trees(20):
            r = tree.rank()
            for b in range(r + 1):
                for c in range(r + 1 - b):
                    lhs = tree.iterated_derivative(b).iterated_derivative(c)
                    assert lhs.ids == tree.iterated_derivative(b + c).ids

    def test_tau_strictly_decreasing(self):
        for tree in self._trees():
            taus = tree.tau_map
            for t in tree.ids:
                for s in tree.ancestors(t):
                    assert taus[s] > taus[t]

    def test_initial_part_rank(self):
        for tree in self._trees(20):
            r = tree.rank()
            for b in range(1, r + 1):
                high = set(tree.iterated_derivative(b).ids)
                assert tree.restrict(set(tree.ids) - high).rank() == b

    def test_leaf_characterization(self):
        for tree in self._trees(20):
            taus = tree.tau_map
            r = tree.rank()
            for z in range(r):
                level_leaves = set(tree.iterated_derivative(z).leaves())
                by_tau = {t for t in tree.ids if taus[t] == z}
                by_rank = {t for t in tree.ids
                           if tree.subtree_at(t, strict=True).rank() == z and taus[t] >= z}
                assert level_leaves == by_tau == by_rank


def _relabelled(rng, tree):
    """The same shape under a random id permutation, so descendants may carry
    smaller ids than their ancestors."""
    perm = dict(zip(tree.ids, rng.sample(range(3 * len(tree)), len(tree))))
    return FiniteTree.from_parents(
        {perm[t]: None if tree.parent(t) is None else perm[tree.parent(t)] for t in tree.ids})


def _climbed(tree):
    """Strict ancestor sets of every node, by climbing ``parent`` step by step."""
    out = {}
    for t in tree.ids:
        above, s = set(), tree.parent(t)
        while s is not None:
            above.add(s)
            s = tree.parent(s)
        out[t] = frozenset(above)
    return out


def _assert_order(tree, anc):
    """``tree`` has exactly the ancestor sets ``anc``, derived and climbed,
    and each node's parent is its deepest ancestor."""
    assert tree.ids == tuple(sorted(anc))
    assert dict(zip(tree.ids, tree.anc)) == anc == _climbed(tree)
    assert all(tree.parent(t) == max(anc[t], key=lambda s: len(anc[s]), default=None)
               for t in tree.ids)


class TestCalculusAgainstOracle:
    """The one-pass calculus and verify's height pass against the
    leaf-peeling definitions, on every node and on random id subsets, and
    brute-force, id-lexicographic enumerations built from ancestor sets
    climbed off the parents; the parent-map edits (restrict, union, graft)
    against ancestor sets computed by hand."""

    def test_random_trees(self):
        rng = random.Random(7)
        pick = random.Random(11)  # subsets and attachments, so rng draws only the trees
        for _ in range(300):
            tree = _relabelled(rng, random_tree(rng, max_nodes=40))
            anc = _climbed(tree)
            _assert_order(tree, anc)
            ids = frozenset(tree.ids)
            taus = _peeled_taus(ids, anc)
            assert tree.tau_map == taus == _heights(tree, ids)
            assert tree.rank() == _peeled_rank(ids, anc) == _rank_of(taus)
            for z in range(tree.rank() + 2):
                derived = tree.iterated_derivative(z)
                assert derived.ids == tuple(t for t in tree.ids if taus[t] >= z)
                assert derived.anc == tuple(anc[t] & frozenset(derived.ids) for t in derived.ids)
            pairs = [(s, t) for s in tree.ids for t in tree.ids if s in anc[t]]
            assert list(tree.ordered_pairs()) == pairs
            assert list(tree.chains(3)) == [(a, b, c) for a, b in pairs
                                            for c in tree.ids if b in anc[c]]
            leaves = [t for t in tree.ids if not any(t in anc[u] for u in tree.ids)]
            assert list(tree.leaf_chains(1)) == [(s, t) for s in tree.ids for t in leaves
                                                 if s == t or s in anc[t]]

            # restrict: the induced order on a random id subset
            keep = frozenset(t for t in tree.ids if pick.random() < 0.5)
            kept_taus = _heights(tree, keep)
            assert kept_taus == _peeled_taus(keep, anc)
            assert _rank_of(kept_taus) == _peeled_rank(keep, anc)
            kept = tree.restrict(keep)
            _assert_order(kept, {t: anc[t] & keep for t in keep})
            # built unchecked, and the checked constructor agrees
            assert kept == FiniteTree.from_parents(dict(zip(kept.ids, kept.parents)))

            # union of colliding parts: each part shifted to the next fresh range
            parts = [tree, _relabelled(pick, tree), tree]
            expected, offset = {}, 0
            for part in parts:
                shift = offset - min(part.ids)
                expected.update({t + shift: frozenset(s + shift for s in above)
                                 for t, above in _climbed(part).items()})
                offset = max(part.ids) + shift + 1
            _assert_order(incomparable_union(parts), expected)

            # graft: base ids stay put; above each leaf, an order-preserving
            # relabelling of its attachment
            tops = [random_tree(pick, max_nodes=6) for _ in leaves]
            z = min(top.rank() for top in tops)
            attach = {leaf: _relabelled(pick, top.iterated_derivative(top.rank() - z))
                      for leaf, top in zip(leaves, tops)}
            grafted = graft(tree, attach)
            new_anc = _climbed(grafted)
            expected = dict(anc)
            for leaf in leaves:
                part = attach[leaf]
                mine = sorted(t for t in grafted.ids if t not in ids and leaf in new_anc[t])
                assert len(mine) == len(part)
                m = dict(zip(part.ids, mine))
                expected.update({m[t]: frozenset(m[s] for s in above) | anc[leaf] | {leaf}
                                 for t, above in _climbed(part).items()})
            _assert_order(grafted, expected)

    def test_calculus_reads_no_ancestor_sets(self, monkeypatch):
        """tau, rank, descendants and the pair and chain enumerations climb
        the parents: with ``FiniteTree.anc`` broken they still agree with the
        oracle."""
        rng = random.Random(13)
        trees = [_relabelled(rng, random_tree(rng, max_nodes=40)) for _ in range(100)]
        climbed = [_climbed(tree) for tree in trees]

        def broken(tree):
            raise AssertionError("FiniteTree.anc was read")

        monkeypatch.setattr(FiniteTree, "anc", property(broken))
        for tree, anc in zip(trees, climbed):
            ids = frozenset(tree.ids)
            assert tree.tau_map == _peeled_taus(ids, anc)
            assert tree.rank() == _peeled_rank(ids, anc)
            assert all(tree.descendants(s) == {t for t in tree.ids if s in anc[t]}
                       for s in tree.ids)
            pairs = [(s, t) for s in tree.ids for t in tree.ids if s in anc[t]]
            assert list(tree.ordered_pairs()) == pairs
            assert list(tree.chains(3)) == [(a, b, c) for a, b in pairs
                                            for c in tree.ids if b in anc[c]]


def _reference_from_parents(parent):
    """The constructor before the one-pass build: each node, in id order,
    climbs with a fresh path set to a checked node or a root.  Returns the
    error text, or the ids and parents with the children lists, top-down
    order and tau that the lazy properties then built from them."""
    ids = tuple(sorted(parent))
    checked = set()
    for s in ids:
        path = set()
        while s is not None and s not in checked:
            if s in path:
                return f"parent cycle through node {s}"
            path.add(s)
            p = parent[s]
            if p is not None and p not in parent:
                return f"parent {p} of node {s} is not a node"
            s = p
        checked |= path
    parents = tuple(parent[t] for t in ids)
    kids = {t: [] for t in ids}
    for t, p in zip(ids, parents):
        if p is not None:
            kids[p].append(t)
    order = [t for t, p in zip(ids, parents) if p is None]
    for t in order:
        order.extend(kids[t])
    taus = dict.fromkeys(ids, 0)
    for t in reversed(order):
        p = parent[t]
        if p is not None and taus[p] <= taus[t]:
            taus[p] = taus[t] + 1
    return ids, parents, kids, order, taus


def _reference_restrict(tree, keep):
    """Restriction before the climb from the kept nodes: a walk down the
    whole tree hands each node the nearest kept node above it.  Returns the
    error text, or the ids and parents of the subtree."""
    keep = frozenset(keep)
    extra = keep - set(tree.ids)
    if extra:
        return f"unknown node ids {sorted(extra)}"
    kids = {t: [] for t in tree.ids}
    for t, p in zip(tree.ids, tree.parents):
        if p is not None:
            kids[p].append(t)
    order = [t for t, p in zip(tree.ids, tree.parents) if p is None]
    kept_above = dict.fromkeys(order)
    for t in order:
        order.extend(kids[t])
        nearest = t if t in keep else kept_above[t]
        kept_above.update(dict.fromkeys(kids[t], nearest))
    ids = tuple(t for t in tree.ids if t in keep)
    return ids, tuple(kept_above[t] for t in ids)


def _malformed(rng, parent):
    """A valid parent map with a self-parent, a cycle of 2-4 nodes, an
    unknown parent, or a cycle and an unknown parent, inserted in a random
    order."""
    bad, ids = dict(parent), list(parent)
    fault = rng.choice(["self", "cycle", "unknown", "both"])
    if fault == "self":
        t = rng.choice(ids)
        bad[t] = t
    if fault in ("cycle", "both") and len(ids) >= 2:
        ring = rng.sample(ids, rng.randint(2, min(4, len(ids))))
        for a, b in zip(ring, ring[1:] + ring[:1]):
            bad[a] = b
    if fault in ("unknown", "both"):
        bad[rng.choice(ids)] = max(ids) + rng.randint(1, 5)
    items = list(bad.items())
    rng.shuffle(items)
    return dict(items)


class TestAgainstTheClimbingBuild:
    """The one-pass ``from_parents`` and the climbing ``restrict`` against
    the constructions they replaced, kept here as references."""

    def test_from_parents_matches_the_reference(self):
        rng = random.Random(25)
        malformed = 0
        for _ in range(400):
            tree = _relabelled(rng, random_tree(rng, max_nodes=30))
            parent = dict(zip(tree.ids, tree.parents))
            for candidate in (parent, _malformed(rng, parent)):
                expected = _reference_from_parents(candidate)
                if isinstance(expected, str):
                    malformed += 1
                    with pytest.raises(TreeError) as info:
                        FiniteTree.from_parents(candidate)
                    assert str(info.value) == expected
                    continue
                ids, parents, kids, order, taus = expected
                built = FiniteTree.from_parents(candidate)
                assert (built.ids, built.parents) == (ids, parents)
                assert built._kids == kids and built._topdown == order
                assert built.tau_map == taus
                assert built == FiniteTree(ids, parents)
        assert malformed >= 300

    def test_restrict_matches_the_reference(self):
        rng = random.Random(26)
        for _ in range(300):
            tree = _relabelled(rng, random_tree(rng, max_nodes=40))
            ids = list(tree.ids)
            chain = _greedy_chain(tree) if ids else []
            fresh = [max(ids, default=0) + 1, -7]
            keeps = [[], ids, chain, rng.sample(ids, len(ids) // 2),
                     rng.sample(ids, (len(ids) + 1) // 2), list(tree.leaves()),
                     rng.sample(ids, min(1, len(ids))), ids[:3] + fresh, fresh[:1]]
            for keep in keeps:
                expected = _reference_restrict(tree, keep)
                if isinstance(expected, str):
                    with pytest.raises(TreeError) as info:
                        tree.restrict(keep)
                    assert str(info.value) == expected
                    continue
                sub = tree.restrict(iter(keep))
                assert (sub.ids, sub.parents) == expected
                # a restriction of a restriction climbs the unchecked tree's parents
                again = rng.sample(sub.ids, len(sub) // 2)
                twice = sub.restrict(again)
                assert (twice.ids, twice.parents) == _reference_restrict(sub, again)
