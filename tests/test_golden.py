"""Golden outputs of the transfinite constructions.

Each case records the audit window of a construction (nodes in id order,
as text), the declared position of every window node, the table where
there is one, and the audit report.  The recorded file pins these outputs
so that a restructuring of ``transfinite`` cannot change them unnoticed.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from treeramsey.canonical import CanonicalTree, node_tau, node_to_text
from treeramsey.ordinal import OMEGA, ONE, left_divide, mul, omega_pow, parse_ordinal
from treeramsey.rules import RuleColoring
from treeramsey.transfinite import (
    Budget,
    ContractionSpec,
    audit_alignment,
    audit_contraction,
    block_reduce,
    contract,
    proto_align,
    stabilize_transfinite,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "transfinite_golden.json"
WIDE = Budget(3, 4, 4)
# the four benchmark trees at their smoke budgets
STABILIZER_CASES = (
    ("w^3", (2, 0, 1), (2, 2, 6)),
    ("w^w", (1,), (2, 2, 6)),
    ("w^(w+1)", (1, 0), (2, 2, 6)),
    ("w^2", (1, 0), (3, 2, 6)),
)


def _record(sub, budget, report, table=None) -> dict:
    window, mapping = sub.window(budget.depth, budget.width)
    nodes = [mapping[i][0] for i in window.ids]
    return {
        "declared_rank": str(sub.declared_rank),
        "nodes": [node_to_text(n) for n in nodes],
        "positions": [str(sub.tau_declared(n)) for n in nodes],
        "table": None if table is None else list(table),
        "report": report.to_json(),
    }


def _same_block(tree, s, t):
    return 1 if left_divide(OMEGA, node_tau(tree, s))[0] == \
        left_divide(OMEGA, node_tau(tree, t))[0] else 0


def _cases():
    """(name, piece, budget, report, table) for every golden case."""
    square = CanonicalTree.of(0, omega_pow(2))
    for layers in ((), (0,), (1,), (0, 1)):
        spec = ContractionSpec.of(omega_pow(2), layers)
        sub = contract(square, spec)
        yield f"contract {layers}", sub, WIDE, audit_contraction(square, spec, sub, WIDE), None
    for name, tree, gamma, layers, zeta in (
        ("single-block", square, omega_pow(2), {0, 1}, ONE),
        ("blockwise-low", CanonicalTree.of(0, omega_pow(3)), omega_pow(2), {0}, OMEGA),
        ("empty-layers", square, OMEGA, set(), OMEGA),
    ):
        sub = proto_align(tree, gamma, layers, zeta)
        yield (f"proto_align {name}", sub, WIDE,
               audit_alignment(tree, gamma, layers, zeta, sub, WIDE), None)
    budget = Budget(3, 3, 4)
    sub, table, report = block_reduce(
        CanonicalTree.of(0, mul(OMEGA, 4)), 1,
        RuleColoring(1, _same_block, "same-block"), budget)
    yield "block_reduce same-block", sub, budget, report, table
    for text, table, dims in STABILIZER_CASES:
        budget = Budget(*dims)
        res = stabilize_transfinite(CanonicalTree.of(0, parse_ordinal(text)),
                                    RuleColoring.sep_table(table), budget)
        yield f"stabilize I(0,{text}) F={table}", res.subtree, budget, res.report, res.table


def snapshot() -> dict:
    return {name: _record(sub, budget, report, table)
            for name, sub, budget, report, table in _cases()}


def test_carried_positions_are_the_declared_ones():
    # the window walk carries each node's position down from its parent;
    # tau_declared recomputes it from the node alone
    for name, sub, budget, _, _ in _cases():
        window, mapping = sub.window(budget.depth, budget.width)
        assert mapping, name
        for node, pos in mapping.values():
            assert pos is sub.tau_declared(node), (name, node_to_text(node))


def test_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert list(got) == list(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
