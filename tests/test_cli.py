import json

import pytest

from treeramsey.canonical import instantiate
from treeramsey.cli import main
from treeramsey.stabilize import Coloring


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

    def test_pairs(self, i03_file, tmp_path, capsys):
        tree, tree_path = i03_file
        taus = tree.tau_map
        col = Coloring.of_pairs(tree, lambda s, t: 1 if taus[s] // 2 == taus[t] // 2 else 0, k=1)
        col_path = tmp_path / "pairs.json"
        col_path.write_text(json.dumps(col.to_json()))
        assert main(["stab", "--mode", "pairs", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 0

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

    def test_missing_node_exits_1(self, i03_file, node_coloring_file, tmp_path, capsys):
        _, tree_path = i03_file
        doc = json.loads(node_coloring_file.read_text())
        doc["nodes"] = doc["nodes"][:-1]
        col_path = tmp_path / "nodes.json"
        col_path.write_text(json.dumps(doc))
        assert main(["stab", "--mode", "levels", "--tree", str(tree_path),
                     "--coloring", str(col_path)]) == 1
        assert "error: coloring assigns no color to" in capsys.readouterr().err


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
