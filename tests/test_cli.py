import copy
import json
import random

import pytest

from treeramsey.canonical import instantiate
from treeramsey.cli import main
from treeramsey.stabilize import Coloring
from treeramsey.transfinite import Budget
from treeramsey.tree_core import FiniteTree


@pytest.fixture
def i03_file(tmp_path):
    tree = instantiate(3).tree
    path = tmp_path / "i03.json"
    path.write_text(json.dumps(tree.to_json()))
    return tree, path


@pytest.fixture
def node_coloring_file(tmp_path, i03_file):
    tree, _ = i03_file
    taus = tree.tau_map
    col = Coloring.of_nodes(tree, lambda t: taus[t] % 2, k=1)
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(col.to_json()))
    return path


class TestOrd:
    def test_mul(self, capsys):
        assert main(["ord", "--mul", "w+1", "w"]) == 0
        assert capsys.readouterr().out.strip() == "w^2"

    def test_normalize(self, capsys):
        assert main(["ord", "1 + w"]) == 0
        assert capsys.readouterr().out.strip() == "w"

    def test_add(self, capsys):
        assert main(["ord", "--add", "w^2 + w", "w^2"]) == 0
        assert capsys.readouterr().out.strip() == "w^2*2"

    def test_divide(self, capsys):
        assert main(["ord", "--divide", "w", "w*2+3"]) == 0
        out = capsys.readouterr().out
        assert "quotient: 2" in out and "remainder: 3" in out

    def test_factorize(self, capsys):
        assert main(["ord", "--factorize", "w^(w+1)"]) == 0
        assert "layers: 2" in capsys.readouterr().out

    def test_indecomposable(self, capsys):
        assert main(["ord", "2", "--indecomposable=mul"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["ord", "w*2", "--indecomposable=add"]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_bad_expression_exits_1(self, capsys):
        assert main(["ord", "w^"]) == 1


class TestTree:
    def test_rank_and_levels(self, i03_file, capsys):
        _, path = i03_file
        assert main(["tree", "--tree", str(path), "--rank", "--levels"]) == 0
        out = capsys.readouterr().out
        assert "rank: 3" in out and "level 2" in out

    def test_enumerate(self, i03_file, capsys):
        _, path = i03_file
        assert main(["tree", "--tree", str(path), "--enumerate", "e1"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(rows) == 8

    def test_derive(self, i03_file, capsys):
        _, path = i03_file
        assert main(["tree", "--tree", str(path), "--derive", "2", "--rank"]) == 0
        out = capsys.readouterr().out
        assert "after 2 derivatives: 1 nodes" in out
        assert "rank: 1" in out

    def test_artifact(self, i03_file, tmp_path, capsys):
        _, path = i03_file
        out = tmp_path / "report.json"
        assert main(["tree", "--tree", str(path), "--rank", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1 and doc["rank"] == 3

    def test_missing_file_exits_1(self):
        assert main(["tree", "--tree", "/nonexistent.json", "--rank"]) == 1

    def test_duplicate_ids_exit_1(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"nodes": [
            {"id": 0, "parent": None}, {"id": 0, "parent": None}, {"id": 1, "parent": 0}]}))
        assert main(["tree", "--tree", str(path), "--rank"]) == 1
        assert capsys.readouterr().err.startswith("error: duplicate node ids")

    def test_deep_descending_chain(self, tmp_path, capsys):
        # ids descend from the root 1499 to the leaf 0
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"schema_version": 1, "nodes": [
            {"id": i, "parent": i + 1 if i < 1499 else None} for i in range(1500)]}))
        assert main(["tree", "--tree", str(path), "--rank"]) == 0
        assert capsys.readouterr().out.strip() == "rank: 1500"

    def test_foreign_schema_version_exits_1(self, i03_file, tmp_path, capsys):
        tree, _ = i03_file
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({**tree.to_json(), "schema_version": 9}))
        assert main(["tree", "--tree", str(path), "--rank"]) == 1
        assert capsys.readouterr().err.startswith("error: malformed tree document")


class TestCanon:
    def test_tau_and_sep(self, capsys):
        assert main(["canon", "--tree", "I(0, w^2)", "--tau", "w*2+3",
                     "--sep", "w*2+3", "w*2+3, 5"]) == 0
        out = capsys.readouterr().out
        assert "tau(w*2 + 3) = w*2 + 3" in out
        assert "separation = 1" in out

    def test_truncate_artifact(self, tmp_path, capsys):
        out = tmp_path / "win.json"
        assert main(["canon", "--tree", "I(0, 3)", "--truncate", "3", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 7
        assert doc["node_labels"]["0"]

    def test_bad_literal_exits_1(self):
        assert main(["canon", "--tree", "J(0,3)"]) == 1


class TestStab:
    def test_levels_roundtrip(self, i03_file, node_coloring_file, tmp_path, capsys):
        _, tree_path = i03_file
        emit = tmp_path / "result.json"
        code = main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(node_coloring_file), "--emit", str(emit)])
        assert code == 0
        doc = json.loads(emit.read_text())
        assert doc["mode"] == "levels"
        assert doc["reduced"] == [0, 1, 0]
        assert all(c["passed"] for c in doc["certificate"])
        # and the emitted artifact cross-validates
        assert main(["verify", "--cross", str(emit)]) == 0

    def test_check_lines_carry_their_details(self, i03_file, node_coloring_file, capsys):
        _, tree_path = i03_file
        assert main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(node_coloring_file)]) == 0
        assert "  [ok] rank-preserved rank(Q)=3 required=3\n" in capsys.readouterr().out

    def test_pairs(self, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        taus = tree.tau_map
        col = Coloring.of_pairs(tree, lambda s, t: 1 if taus[s] // 2 == taus[t] // 2 else 0, k=1)
        col_path = tmp_path / "pairs.json"
        col_path.write_text(json.dumps(col.to_json()))
        assert main(["stab", "--mode", "pairs", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 0

    def test_ramsey_reduce_emit_cross_validates(self, tmp_path, capsys):
        tree = instantiate(6).tree
        tree_path, col_path = tmp_path / "i6.json", tmp_path / "pairs.json"
        tree_path.write_text(json.dumps(tree.to_json()))
        col = Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1)
        col_path.write_text(json.dumps(col.to_json()))
        emit = tmp_path / "result.json"
        assert main(["stab", "--mode", "ramsey-reduce", "-p", "1", "--tree", str(tree_path),
                     "--coloring", str(col_path), "--emit", str(emit)]) == 0
        doc = json.loads(emit.read_text())
        assert doc["mode"] == "ramsey-reduce"
        assert all(len(row) == 3 for row in doc["extra"]["pair_table"])
        assert all(len(row) == 2 for row in doc["extra"]["pair_stage_tau"])
        assert main(["verify", "--cross", str(emit)]) == 0

    def test_ramsey_reduce_too_small_exits_1(self, i03_file, tmp_path):
        tree, tree_path = i03_file
        col = Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1)
        col_path = tmp_path / "pairs.json"
        col_path.write_text(json.dumps(col.to_json()))
        assert main(["stab", "--mode", "ramsey-reduce", "-p", "2",
                     "--tree", str(tree_path), "--coloring", str(col_path)]) == 1


    def test_color_outside_palette_exits_1(self, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        col_path = tmp_path / "nodes.json"
        col_path.write_text(json.dumps({"arity": 1, "k": 1, "nodes": [
            [t, 5 if t == tree.ids[0] else 7 if t == tree.ids[1] else 0] for t in tree.ids]}))
        assert main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 1
        assert capsys.readouterr().err.startswith("error: color 7 outside palette 0..1")

    def test_missing_pair_exits_1(self, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        doc = Coloring.of_pairs(tree, lambda s, t: 0, k=1).to_json()
        s, t, _ = doc["pairs"].pop(0)
        col_path = tmp_path / "pairs.json"
        col_path.write_text(json.dumps(doc))
        assert main(["stab", "--mode", "pairs", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: coloring assigns no color to ({s}, {t})")

    def test_deep_descending_chain_levels(self, tmp_path, capsys):
        # ids descend from the root 1499 to the leaf 0
        tree_path, col_path = tmp_path / "deep.json", tmp_path / "nodes.json"
        tree_path.write_text(json.dumps({"schema_version": 1, "nodes": [
            {"id": i, "parent": i + 1 if i < 1499 else None} for i in range(1500)]}))
        col_path.write_text(json.dumps({"arity": 1, "nodes": [[i, i % 2] for i in range(1500)]}))
        assert main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 0
        assert "(rank 1500)" in capsys.readouterr().out

    def test_missing_node_exits_1(self, i03_file, node_coloring_file, tmp_path, capsys):
        _, tree_path = i03_file
        doc = json.loads(node_coloring_file.read_text())
        doc["nodes"] = doc["nodes"][:-1]
        col_path = tmp_path / "nodes.json"
        col_path.write_text(json.dumps(doc))
        assert main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 1
        assert "error: coloring assigns no color to" in capsys.readouterr().err


class TestLoaderBoundary:
    """Each malformed coloring or result document ends in a named error."""

    def _stab_pairs(self, i03_file, tmp_path, doc):
        _, tree_path = i03_file
        col_path = tmp_path / "col.json"
        col_path.write_text(json.dumps(doc))
        return main(["stab", "--mode", "pairs", "--tree", str(tree_path),
                     "--coloring", str(col_path)])

    @pytest.mark.parametrize("fault", ["non-integer", "short-row", "no-table", "not-object",
                                       "schema-version"])
    def test_malformed_coloring_exits_1(self, fault, i03_file, tmp_path, capsys):
        tree, _ = i03_file
        doc = Coloring.of_pairs(tree, lambda s, t: 0, k=1).to_json()
        if fault == "non-integer":
            doc["pairs"][0][2] = "red"
        elif fault == "short-row":
            doc["pairs"][0] = doc["pairs"][0][:2]
        elif fault == "no-table":
            del doc["pairs"]
        elif fault == "not-object":
            doc = doc["pairs"]
        else:
            doc["schema_version"] = 9
        assert self._stab_pairs(i03_file, tmp_path, doc) == 1
        assert capsys.readouterr().err.startswith("error: malformed coloring document")

    @pytest.mark.parametrize("command", ["stab", "verify"])
    def test_coloring_of_the_wrong_arity_exits_1(self, command, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        col_path = tmp_path / "chains.json"
        col = Coloring.of_leaf_chains(tree, 1, lambda s, t: 0, k=1)
        col_path.write_text(json.dumps(col.to_json()))
        files = ["--tree", str(tree_path), "--coloring", str(col_path)]
        argv = ["stab", "--mode", "levels", *files] if command == "stab" \
            else ["verify", "--oracle", "mono-rank", *files]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: expected a nodes")

    @pytest.mark.parametrize("mode,check", [("levels", "level-colors-constant"),
                                            ("pairs", "pair-colors-by-level"),
                                            ("leafchains", "chain-colors-agree")])
    def test_result_missing_a_table_entry_exits_2(self, mode, check, i03_file,
                                                  tmp_path, capsys):
        tree, tree_path = i03_file
        if mode == "levels":
            col = Coloring.of_nodes(tree, lambda t: t % 2, k=1)
        elif mode == "pairs":
            col = Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1)
        else:
            col = Coloring.of_leaf_chains(tree, 1, lambda s, t: (s * t) % 2, k=1)
        col_path, emit = tmp_path / "col.json", tmp_path / "result.json"
        col_path.write_text(json.dumps(col.to_json()))
        assert main(["stab", "--mode", mode, "--tree", str(tree_path),
                     "--coloring", str(col_path), "--emit", str(emit)]) == 0
        doc = json.loads(emit.read_text())
        doc["reduced"] = doc["reduced"][:2] if mode == "levels" else doc["reduced"][1:]
        emit.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--cross", str(emit)]) == 2
        assert capsys.readouterr().err.startswith(f"audit failure: {check}: ")

    @pytest.mark.parametrize("doc", [{"schema_version": 1}, {"schema_version": 9}, [1]])
    def test_malformed_result_exits_1(self, doc, tmp_path, capsys):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--cross", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed result document")

    @pytest.mark.parametrize("fault", ["row-removed", "pairs-in-levels", "nodes-in-leaf-chains"])
    def test_result_with_an_incomplete_coloring_exits_1(self, fault, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        rng = random.Random(fault)
        mode = "leafchains" if fault == "nodes-in-leaf-chains" else "levels"
        col = Coloring.of_leaf_chains(tree, 1, lambda s, t: rng.randrange(2), k=1) \
            if mode == "leafchains" else Coloring.of_nodes(tree, lambda t: rng.randrange(2), k=1)
        col_path, emit = tmp_path / "col.json", tmp_path / "result.json"
        col_path.write_text(json.dumps(col.to_json()))
        assert main(["stab", "--mode", mode, "--tree", str(tree_path),
                     "--coloring", str(col_path), "--emit", str(emit)]) == 0
        doc = json.loads(emit.read_text())
        if fault == "row-removed":
            kept = rng.choice(doc["subtree_ids"])
            doc["coloring"]["nodes"] = [row for row in doc["coloring"]["nodes"] if row[0] != kept]
            error = f"coloring assigns no color to {kept}"
        elif fault == "pairs-in-levels":
            doc["coloring"] = Coloring.of_pairs(tree, lambda s, t: rng.randrange(2), k=1).to_json()
            error = "expected a nodes coloring, got pairs"
        else:
            doc["coloring"] = Coloring.of_nodes(tree, lambda t: rng.randrange(2), k=1).to_json()
            error = "expected a chains coloring, got nodes"
        emit.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--cross", str(emit)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


_JUNK = [None, "x", -1, 0, 1, 2, 7, 1.5, True, [], {}, [0, 1], {"id": 0}]


def _mutate(rng, doc):
    """Delete, replace or duplicate one to three random entries of a JSON value."""
    holder = [copy.deepcopy(doc)]
    for _ in range(rng.randint(1, 3)):
        slots = [(holder, 0)]
        for container, key in slots:
            value = container[key]
            if isinstance(value, dict):
                slots.extend((value, k) for k in value)
            elif isinstance(value, list):
                slots.extend((value, i) for i in range(len(value)))
        container, key = rng.choice(slots)
        op = rng.randrange(3)
        if op == 0 and container is not holder:
            del container[key]
        elif op == 1:
            container[key] = copy.deepcopy(rng.choice(_JUNK))
        else:
            other, other_key = rng.choice(slots)
            container[key] = copy.deepcopy(other[other_key])
    return holder[0]


def test_loader_fuzz(tmp_path, capsys):
    """Mutated tree and coloring documents end in exit 0, 1 or 2, never an
    exception escaping ``main``."""
    rng = random.Random(11)
    tree = FiniteTree.from_json(instantiate(3).tree.to_json())
    taus = tree.tau_map
    colorings = {
        "levels": Coloring.of_nodes(tree, lambda t: taus[t] % 2, k=1),
        "pairs": Coloring.of_pairs(tree, lambda s, t: (s + t) % 2, k=1),
        "leafchains": Coloring.of_leaf_chains(tree, 1, lambda s, t: s % 2, k=1),
    }
    tree_path, col_path = tmp_path / "tree.json", tmp_path / "col.json"
    for _ in range(150):
        mode = rng.choice(sorted(colorings))
        tree_doc, col_doc = tree.to_json(), colorings[mode].to_json()
        if rng.random() < 0.5:
            tree_doc = _mutate(rng, tree_doc)
        else:
            col_doc = _mutate(rng, col_doc)
        tree_path.write_text(json.dumps(tree_doc))
        col_path.write_text(json.dumps(col_doc))
        files = ["--tree", str(tree_path)]
        for argv in (["tree", *files, "--rank", "--tau", "--levels", "--enumerate", "e1"],
                     ["stab", "--mode", mode, *files, "--coloring", str(col_path)],
                     ["verify", "--oracle", "mono-rank", *files, "--coloring", str(col_path)],
                     ["verify", "--obstruction", "mult", *files]):
            assert main(argv) in (0, 1, 2), argv
    capsys.readouterr()


class TestTransfinite:
    def test_contract(self, capsys, tmp_path):
        out = tmp_path / "audit.json"
        code = main(["transfinite", "--tree", "I(0, w^2)", "--contract", "A=0",
                     "--budget", "3,4,4", "--audit-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True

    def test_stabilize(self, capsys, tmp_path):
        out = tmp_path / "audit.json"
        code = main(["transfinite", "--tree", "I(0, w^2)", "--stabilize",
                     "--rule", "F[sep] with F=(1,0)", "--budget", "3,3,4",
                     "--audit-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["table"] == [1, 0]

    def test_default_budget_is_budgets_default(self, capsys, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["transfinite", "--tree", "I(0, w^2)", "--contract", "A=0",
                     "--audit-out", str(out)]) == 0
        default = Budget()
        assert json.loads(out.read_text())["budget"] == [default.depth, default.width, default.cap]

    def test_uncertifiable_rule_exits_2(self):
        code = main(["transfinite", "--tree", "I(0, w)", "--stabilize",
                     "--rule", "depth(t) mod 2", "--budget", "3,3,4"])
        assert code == 2

    def test_bad_budget_exits_1(self):
        assert main(["transfinite", "--tree", "I(0, w)", "--stabilize",
                     "--budget", "3,3"]) == 1

    def test_non_integer_budget_exits_1(self, capsys):
        assert main(["transfinite", "--tree", "I(0, w)", "--stabilize",
                     "--budget", "3,x,4"]) == 1
        assert capsys.readouterr().err.startswith("error: budget must be")

    def test_non_integer_layer_exits_1(self, capsys):
        assert main(["transfinite", "--tree", "I(0, w^2)", "--contract", "A=z"]) == 1
        assert capsys.readouterr().err.startswith("error: layers must be integers")


class TestVerify:
    def test_obstruction(self, i03_file, tmp_path, capsys):
        _, tree_path = i03_file
        out = tmp_path / "mono.json"
        assert main(["verify", "--tree", str(tree_path), "--obstruction", "mult",
                     "--alpha", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["per_color"]["0"]["best_rank"] == 2
        assert doc["per_color"]["1"]["best_rank"] == 2

    def test_oracle_nodes(self, i03_file, node_coloring_file, capsys):
        _, tree_path = i03_file
        assert main(["verify", "--tree", str(tree_path), "--oracle", "mono-rank",
                     "--coloring", str(node_coloring_file), "--color", "0"]) == 0
        assert "best rank 2" in capsys.readouterr().out


class TestBadInput:
    """Bad command-line input ends with a named error and exit 1."""

    def _fails(self, argv, capsys, error="error: "):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(error)

    def test_non_positive_alpha(self, i03_file, capsys):
        self._fails(["verify", "--tree", str(i03_file[1]), "--obstruction", "mult",
                     "--alpha", "0"], capsys, "error: --alpha must be at least 1, got 0")

    def test_directory_as_tree(self, tmp_path, capsys):
        self._fails(["tree", "--tree", str(tmp_path), "--rank"], capsys,
                    "error: [Errno 21] Is a directory")

    def test_directory_as_audit_out(self, tmp_path, capsys):
        self._fails(["transfinite", "--tree", "I(0, w^2)", "--stabilize", "--rule",
                     "F[sep] with F=(1,0)", "--audit-out", str(tmp_path)], capsys,
                    "error: [Errno 21] Is a directory")
        assert not list(tmp_path.iterdir())

    def test_directory_as_emit(self, i03_file, node_coloring_file, tmp_path, capsys):
        target = tmp_path / "out"
        target.mkdir()
        self._fails(["stab", "--mode", "levels", "--tree", str(i03_file[1]),
                     "--coloring", str(node_coloring_file), "--emit", str(target)], capsys,
                    "error: [Errno 21] Is a directory")
        assert not list(target.iterdir())

    def test_json_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"nodes": [], "note": "\u00e9"}'.encode("latin-1"))
        self._fails(["tree", "--tree", str(path), "--rank"], capsys)

    def test_negative_palette_bound(self, capsys):
        self._fails(["transfinite", "--tree", "I(0, w^2)", "--stabilize", "-k", "-1"], capsys,
                    "error: palette bound k must be at least 0, got -1")


class TestDemo:
    def test_quick_subset(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        code = main(["demo", "--quick", "--seed", "3",
                     "--only", "ramsey-constant,canonical-consistency",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 3
        assert {o["name"] for o in doc["outcomes"]} == \
            {"ramsey-constant", "canonical-consistency"}
        assert all(o["passed"] for o in doc["outcomes"])

    def test_artifacts_are_reproducible(self, tmp_path, capsys):
        args = ["demo", "--quick", "--seed", "5",
                "--only", "level-sharpness,stabilization-certificates"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_is_an_option_of_demo_only(self, tmp_path, capsys):
        # a top-level --seed would be read by no command
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "5", "demo", "--quick", "--only", "ramsey-constant",
                  "--out", str(tmp_path / "demo.json")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "demo.json").exists()


class TestExactIntegers:
    """Ids, parents, colors, k, n and the entries of reduced tables are JSON
    integers; a float, string or boolean that int() would coerce ends in a
    named error and exit 1."""

    def _tree(self, i03_file, tmp_path, field):
        tree, _ = i03_file
        doc = tree.to_json()
        node = next(n for n in doc["nodes"] if n["parent"] is not None)
        if field == "id":
            node["id"] = str(node["id"])
        else:
            node["parent"] = float(node["parent"])
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        return ["tree", "--tree", str(path), "--rank"], "error: malformed tree document"

    def _coloring(self, i03_file, tmp_path, field):
        tree, tree_path = i03_file
        if field == "n":
            doc = Coloring.of_leaf_chains(tree, 1, lambda s, t: 0, k=1).to_json()
            doc["n"], mode = 1.0, "leafchains"
        else:
            doc = Coloring.of_nodes(tree, lambda t: 1, k=1).to_json()
            mode = "levels"
            if field == "color":
                doc["nodes"][0][1] = True
            else:
                doc["k"] = 1.0
        path = tmp_path / "col.json"
        path.write_text(json.dumps(doc))
        return (["stab", "--mode", mode, "--tree", str(tree_path), "--coloring", str(path)],
                "error: malformed coloring document")

    def _result(self, i03_file, tmp_path):
        tree, tree_path = i03_file
        col_path, emit = tmp_path / "pairs.json", tmp_path / "result.json"
        col_path.write_text(json.dumps(Coloring.of_pairs(tree, lambda s, t: 1, k=1).to_json()))
        assert main(["stab", "--mode", "pairs", "--tree", str(tree_path),
                     "--coloring", str(col_path), "--emit", str(emit)]) == 0
        doc = json.loads(emit.read_text())
        doc["reduced"][0][2] = 1.0
        emit.write_text(json.dumps(doc))
        return ["verify", "--cross", str(emit)], "error: malformed result document"

    @pytest.mark.parametrize("field", ["id", "parent", "color", "k", "n", "reduced"])
    def test_non_integer_exits_1(self, field, i03_file, tmp_path, capsys):
        if field in ("id", "parent"):
            argv, error = self._tree(i03_file, tmp_path, field)
        elif field == "reduced":
            argv, error = self._result(i03_file, tmp_path)
        else:
            argv, error = self._coloring(i03_file, tmp_path, field)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(error)


_ORDINALS = ["0", "7", "w", "w + 1", "w^2*3 + w + 4", "w^w", "w^(w + 1)", "w^(w^(w + 2))*2"]
_RULES = ["F[sep] with F=(1,0)", "F[sep] with F=(1)", "tau(w, s) mod 2", "depth(t) mod 2",
          "if depth(t) > 1 then 1 else 0", "if tau(w, s) == tau(w, t) then 0 else 1",
          "if sep == 0 then 0 else if depth(t) > 5 then 1 else 0"]
_PIECES = ["(", ")", "[", "]", "^", "*", "+", ",", "=", "<", " ", "w", "0", "1", "9", "x",
           "if", "then", "else", "mod", "sep", "tau", "depth", "F", "s", "t", "with", "-"]


def _mutate_text(rng, text):
    """Delete, insert or duplicate one to three spans of a string."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            del chars[i:i + rng.randint(1, 3)]
        elif op == 1:
            chars[i:i] = rng.choice(_PIECES)
        else:
            chars[i:i] = chars[i:i + rng.randint(1, 4)]
    return "".join(chars)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


def test_parser_fuzz(capsys):
    """Mutated ordinal expressions and rules end in exit 0, 1 or 2, never an
    exception escaping ``main``; 3000 nested parentheses included."""
    rng = random.Random(17)
    tower = "w^(" * 3000 + "1" + ")" * 3000
    exprs = ["(" * 3000 + "w" + ")" * 3000, tower] + \
        [_mutate_text(rng, rng.choice(_ORDINALS)) for _ in range(150)]
    rules = [f"tau({tower}, s) mod 2", "F[" * 3000 + "sep" + "] with F=(0,1)" * 3000,
             "if sep == 0 then " * 3000 + "0" + " else 1" * 3000] + \
        [_mutate_text(rng, rng.choice(_RULES)) for _ in range(150)]
    for expr in exprs:
        for argv in (["ord", expr], ["ord", "--factorize", expr],
                     ["canon", "--tree", f"I(0,{expr})", "--tau", "0"]):
            assert _exit_code(argv) in (0, 1, 2), argv
    for rule in rules:
        argv = ["transfinite", "--tree", "I(0,w)", "--stabilize", "--rule", rule,
                "-k", "1", "--budget", "2,2,2"]
        assert _exit_code(argv) in (0, 1, 2), argv
    capsys.readouterr()


# tau(b, .) is an ordinal quotient: finite values are colors, infinite ones an
# error; the w-block index reaches 2 at the third block the stabilizer visits
ORDINAL_RULE_ERRORS = {
    "tau(w, s)": "rule produced color 2 outside palette 0..1",
    "F[tau(w, t)] with F=(0,1)": "table index 2 outside 0..1",
    "tau(1, s)": "w + 1 is infinite",
}


@pytest.mark.parametrize("rule,code", [(rule, 1) for rule in ORDINAL_RULE_ERRORS])
def test_ordinal_valued_rule(rule, code, capsys):
    assert main(["transfinite", "--tree", "I(0,w^2)", "--stabilize", "--rule", rule,
                 "-k", "1", "--budget", "2,2,2"]) == code
    assert capsys.readouterr().err == f"error: {ORDINAL_RULE_ERRORS[rule]}\n"
