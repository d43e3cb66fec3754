"""Golden outputs of the transfinite constructions.

Each case records the audit window of a construction (nodes in id order,
as text), the declared position the walk carried to every window node,
the table where there is one, and the audit report.  The recorded file
pins these outputs so that a restructuring of ``transfinite`` cannot
change them unnoticed.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py

``data/sweep_verdicts.jsonl`` records the output of
``tools/sweep_transfinite.py`` (verdict, table and audit pair count of 90
stabilizer cases); regenerate it the same way with:

    python3 tools/sweep_transfinite.py > tests/data/sweep_verdicts.jsonl
"""

import json
import subprocess
import sys
from pathlib import Path

from treeramsey.canonical import CanonicalTree, node_to_text
from treeramsey.ordinal import omega_pow, parse_ordinal
from treeramsey.rules import RuleColoring, parse_rule
from treeramsey.transfinite import (
    Budget,
    ContractionSpec,
    audit_contraction,
    contract,
    piece_window,
    stabilize_transfinite,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "transfinite_golden.json"
SWEEP = Path(__file__).resolve().parent / "data" / "sweep_verdicts.jsonl"
SWEEP_TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_transfinite.py"
WIDE = Budget(3, 4, 4)
# the four benchmark trees at their smoke budgets
STABILIZER_CASES = (
    ("w^3", (2, 0, 1), (2, 2, 6)),
    ("w^w", (1,), (2, 2, 6)),
    ("w^(w+1)", (1, 0), (2, 2, 6)),
    ("w^2", (1, 0), (3, 2, 6)),
)
# (beta, rule, k, budget): a successor layer that filters its grades, filtered
# blocks below a finite top, a limit layer, and the pigeonhole over block
# tables (kept blocks 0, 2, 4; with three colors 0, 3, 6)
RULE_CASES = (
    ("w^w", "if tau(w, s) > tau(w, t) then 1 else 0", 1, (3, 3, 6)),
    ("w^(w+1)", "tau(1, s) mod 2", 1, (2, 2, 6)),
    ("w^(w^w)", "F[sep] with F=(1)", 1, (2, 2, 16)),
    ("w^2", "if tau(w, s) == tau(w, t) then tau(w, s) mod 2 else 0", 1, (3, 3, 6)),
    ("w^2", "if tau(w, s) == tau(w, t) then tau(w, s) mod 3 else 0", 2, (3, 3, 6)),
)


def _record(sub, budget, report, table=None) -> dict:
    window, mapping = piece_window(sub, budget.depth, budget.width)
    return {
        "declared_rank": str(sub.declared_rank),
        "nodes": [node_to_text(mapping[i][0]) for i in window.ids],
        "positions": [str(mapping[i][1]) for i in window.ids],
        "table": None if table is None else list(table),
        "report": report.to_json(),
    }


def _cases():
    """(name, piece, budget, report, table) for every golden case."""
    square = CanonicalTree.of(0, omega_pow(2))
    for layers in ((), (0,), (1,), (0, 1)):
        spec = ContractionSpec.of(omega_pow(2), layers)
        sub = contract(square, spec)
        yield f"contract {layers}", sub, WIDE, audit_contraction(square, spec, sub, WIDE), None
    for text, table, dims in STABILIZER_CASES:
        budget = Budget(*dims)
        res = stabilize_transfinite(CanonicalTree.of(0, parse_ordinal(text)),
                                    RuleColoring.sep_table(table), budget)
        yield f"stabilize I(0,{text}) F={table}", res.subtree, budget, res.report, res.table
    for text, rule, k, dims in RULE_CASES:
        budget = Budget(*dims)
        res = stabilize_transfinite(CanonicalTree.of(0, parse_ordinal(text)),
                                    parse_rule(rule, k=k), budget)
        yield f"stabilize I(0,{text}) {rule} k={k}", res.subtree, budget, res.report, res.table


def snapshot() -> dict:
    return {name: _record(sub, budget, report, table)
            for name, sub, budget, report, table in _cases()}


def test_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert list(got) == list(expected)
    for name in expected:
        assert got[name] == expected[name], name


def test_verdict_sweep_matches_record():
    run = subprocess.run([sys.executable, str(SWEEP_TOOL)], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    got, expected = run.stdout.splitlines(), SWEEP.read_text().splitlines()
    for number, (line, want) in enumerate(zip(got, expected), 1):
        assert line == want, f"line {number}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
