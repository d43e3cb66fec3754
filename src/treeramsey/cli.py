"""Command-line interface.

Subcommands: ord, tree, canon, stab, transfinite, verify, demo.  Results
print as plain text tables; ``--out``/``--emit`` additionally write JSON
artifacts (always carrying a schema_version).  Exit status: 0 on success,
1 on bad input or violated preconditions, 2 when an audit or certificate
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from . import stabilize, transfinite, verify
from .canonical import (
    CanonicalError,
    CanonicalTree,
    node_from_text,
    node_tau,
    node_to_text,
    rank_symbolic,
    separation,
    truncate,
)
from .ordinal import (
    OrdinalError,
    factorize,
    is_additively_indecomposable,
    is_multiplicatively_indecomposable,
    left_divide,
    mul,
    add,
    parse_ordinal,
)
from .report import Report
from .rules import RuleError, parse_rule
from .stabilize import Coloring, RamseyBudgetError, StabilizeError, check_coverage
from .transfinite import AuditFailure, Budget, BudgetExhausted, ContractionSpec, TransfiniteError
from .tree_core import FiniteTree, TreeError, levels
from .verify import VerificationError


class UsageError(ValueError):
    """A command-line value outside its range."""


def write_artifact(path: str, payload: dict) -> None:
    """Atomic JSON write."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # one write of the whole text: json.dump would write each token
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_canonical(text: str) -> CanonicalTree:
    m = re.fullmatch(r"\s*I\(\s*([^,]+)\s*,\s*(.+?)\s*\)\s*", text)
    if not m:
        raise CanonicalError(f"expected a tree literal I(a, b), got {text!r}")
    return CanonicalTree(parse_ordinal(m.group(1)), parse_ordinal(m.group(2)))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_ord(args) -> int:
    if args.add:
        print(add(parse_ordinal(args.add[0]), parse_ordinal(args.add[1])))
    elif args.mul:
        print(mul(parse_ordinal(args.mul[0]), parse_ordinal(args.mul[1])))
    elif args.divide:
        delta, rem = left_divide(parse_ordinal(args.divide[0]), parse_ordinal(args.divide[1]))
        print(f"quotient: {delta}")
        print(f"remainder: {rem}")
    elif args.factorize:
        fact = factorize(parse_ordinal(args.factorize))
        print(f"layers: {fact.lam}")
        for i, (e, a, r) in enumerate(zip(fact.epsilons, fact.factors, fact.cofactors)):
            print(f"  layer {i}: exponent {e}  prefix {a}  cofactor {r}")
    elif args.indecomposable:
        if not args.expr:
            raise OrdinalError("--indecomposable needs an ordinal expression")
        value = parse_ordinal(args.expr)
        if args.indecomposable == "add":
            print("yes" if is_additively_indecomposable(value) else "no")
        else:
            print("yes" if is_multiplicatively_indecomposable(value) else "no")
    elif args.expr:
        print(parse_ordinal(args.expr))
    else:
        raise OrdinalError("nothing to do: pass an expression or an operation flag")
    return 0


def _cmd_tree(args) -> int:
    tree = FiniteTree.load(args.tree)
    artifact: dict = {"schema_version": 1, "nodes": len(tree)}
    if args.derive is not None:
        tree = tree.iterated_derivative(args.derive)
        print(f"after {args.derive} derivatives: {len(tree)} nodes")
        artifact["derived_ids"] = list(tree.ids)
    if args.rank:
        print(f"rank: {tree.rank()}")
        artifact["rank"] = tree.rank()
    if args.tau:
        taus = tree.tau_map
        for t in tree.ids:
            print(f"tau({t}) = {taus[t]}")
        artifact["tau"] = {str(t): taus[t] for t in tree.ids}
    if args.levels:
        decomposition = levels(tree)
        for i, block in enumerate(decomposition.blocks):
            print(f"level {i}: {sorted(block)}")
        artifact["levels"] = [sorted(b) for b in decomposition.blocks]
    if args.enumerate:
        fam = args.enumerate
        # "pi" (pairs s <= t with t a leaf) and "e1" are the same family
        rows = list(tree.ordered_pairs() if fam == "lambda2" else tree.leaf_chains(1))
        for row in rows:
            print(" ".join(str(x) for x in row))
        artifact["family"] = {"name": fam, "tuples": [list(r) for r in rows]}
    if args.out:
        write_artifact(args.out, artifact)
    return 0


def _cmd_canon(args) -> int:
    tree = _parse_canonical(args.tree)
    print(f"tree: {tree}  rank: {rank_symbolic(tree)}")
    if args.tau:
        node = node_from_text(args.tau)
        print(f"tau({node_to_text(node)}) = {node_tau(tree, node)}")
    if args.sep:
        s = node_from_text(args.sep[0])
        t = node_from_text(args.sep[1])
        print(f"separation = {separation(tree, s, t)}")
    if args.truncate:
        depth, width = args.truncate
        window = truncate(tree, depth, width)
        print(f"window: {len(window.tree)} nodes, rank {window.tree.rank()}")
        if args.out:
            payload = window.tree.to_json()
            payload["node_labels"] = {
                str(i): node_to_text(window.node_of(i)) for i in window.tree.ids}
            payload["complete"] = {str(i): window.complete[i] for i in window.tree.ids}
            write_artifact(args.out, payload)
    return 0


def _cmd_stab(args) -> int:
    tree = FiniteTree.load(args.tree)
    coloring = Coloring.load(args.coloring)
    wanted = {"levels": "nodes", "leafchains": "chains"}.get(args.mode, "pairs")
    check_coverage(tree, coloring, wanted)
    if args.mode == "levels":
        result = stabilize.stabilize_levels(tree, coloring)
    elif args.mode == "pairs":
        result = stabilize.stabilize_pairs_by_level(tree, coloring)
    elif args.mode == "leafchains":
        result = stabilize.stabilize_leaf_chains(tree, coloring.n or 0, coloring)
    else:
        result = stabilize.ramsey_reduce_levels(tree, args.p, coloring)
    print(f"mode: {result.mode}")
    print(f"subtree: {sorted(result.subtree.ids)} (rank {result.subtree.rank()})")
    print(f"reduced: {result.reduced}")
    _print_checks(result.certificate)
    if args.emit:
        write_artifact(args.emit, result.to_json())
    return 0 if result.certificate.ok else 2


def _print_checks(report: Report) -> None:
    for check in report.checks:
        print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name} {check.detail}")


def _cmd_transfinite(args) -> int:
    tree = _parse_canonical(args.tree)
    budget = Budget() if args.budget is None else Budget.parse(args.budget)
    if args.contract is not None:
        layer_text = args.contract.removeprefix("A=")
        try:
            layer_set = {int(x) for x in layer_text.split(",") if x != ""}
        except ValueError:
            raise TransfiniteError(f"layers must be integers like A=0,1: {args.contract!r}")
        spec = ContractionSpec.of(rank_symbolic(tree), layer_set)
        sub = transfinite.contract(tree, spec)
        report = artifact = transfinite.audit_contraction(tree, spec, sub, budget)
        print(f"contraction to layers {sorted(layer_set)}: declared rank {sub.declared_rank}")
    elif args.stabilize:
        artifact = transfinite.stabilize_transfinite(tree, parse_rule(args.rule, k=args.k), budget)
        report = artifact.report
        print(f"declared rank: {artifact.subtree.declared_rank}")
        print(f"table: {list(artifact.table)}")
    else:
        raise TransfiniteError("pass --contract or --stabilize")
    _print_checks(report)
    if args.audit_out:
        write_artifact(args.audit_out, artifact.to_json())
    return 0 if report.ok else 2


def _cmd_verify(args) -> int:
    if args.cross:
        with open(args.cross) as fh:
            doc = json.load(fh)
        report = verify.cross_validate(stabilize.StabilizationResult.from_json(doc))
        _print_checks(report)
        if args.out:
            write_artifact(args.out, report.to_json())
        return 0
    tree = FiniteTree.load(args.tree)
    if args.obstruction:
        if args.obstruction == "mult":
            if args.alpha < 1:
                raise UsageError(f"--alpha must be at least 1, got {args.alpha}")
            coloring = verify.multiplicative_obstruction(tree, args.alpha)
            reports = {j: verify.max_monochromatic_rank(tree, coloring, j) for j in (0, 1)}
        else:
            coloring = verify.additive_obstruction(tree)
            reports = {j: verify.max_monochromatic_rank_nodes(tree, coloring, j)
                       for j in sorted({coloring(t) for t in tree.ids})}
        payload = {"schema_version": 1, "per_color": {}}
        for j, report in sorted(reports.items()):
            best = report.colors[j]
            print(f"color {j}: best rank {best.rank} witness {list(best.witness)} "
                  f"(exhaustive: {report.exhaustive})")
            payload["per_color"][str(j)] = report.to_json()
        if args.out:
            write_artifact(args.out, payload)
        return 0
    if args.oracle == "mono-rank":
        coloring = Coloring.load(args.coloring)
        check_coverage(tree, coloring, "nodes", "pairs")
        search = verify.max_monochromatic_rank if coloring.arity == "pairs" \
            else verify.max_monochromatic_rank_nodes
        report = search(tree, coloring, args.color)
        best = report.colors[args.color]
        print(f"color {args.color}: best rank {best.rank} witness {list(best.witness)} "
              f"(exhaustive: {report.exhaustive})")
        if args.out:
            write_artifact(args.out, report.to_json())
        return 0
    raise VerificationError("pass --oracle mono-rank, --obstruction, or --cross")


def _cmd_demo(args) -> int:
    from . import demo  # only this command compiles the acceptance matrix

    names = args.only.split(",") if args.only else None
    valid = [name for name, _ in demo.CHECKS]
    unknown = [name for name in names or () if name not in valid]
    if unknown:
        raise UsageError(f"unknown demo checks {', '.join(unknown)}; valid: {', '.join(valid)}")
    outcomes = demo.run_all(seed=args.seed, quick=args.quick, names=names)
    print(demo.scoreboard(outcomes))
    if args.out:
        # timings stay on the console so artifacts are byte-identical per seed
        write_artifact(args.out, {
            "schema_version": 1,
            "seed": args.seed,
            "quick": args.quick,
            "outcomes": [o.to_json() for o in outcomes],
        })
    return 0 if all(o.passed for o in outcomes) else 2


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeramsey",
        description="Ordinal arithmetic, tree derivatives, coloring stabilization, "
                    "and brute-force verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ord = sub.add_parser("ord", help="ordinal arithmetic")
    p_ord.add_argument("expr", nargs="?", help="expression to normalize")
    p_ord.add_argument("--add", nargs=2, metavar=("A", "B"))
    p_ord.add_argument("--mul", nargs=2, metavar=("A", "B"))
    p_ord.add_argument("--divide", nargs=2, metavar=("A", "XI"))
    p_ord.add_argument("--factorize", metavar="G")
    p_ord.add_argument("--indecomposable", choices=["add", "mul"],
                       help="test the positional expression")
    p_ord.set_defaults(fn=_cmd_ord)

    p_tree = sub.add_parser("tree", help="finite tree calculus")
    p_tree.add_argument("--tree", required=True, help="tree JSON file")
    p_tree.add_argument("--rank", action="store_true")
    p_tree.add_argument("--derive", type=int, metavar="N")
    p_tree.add_argument("--tau", action="store_true")
    p_tree.add_argument("--levels", action="store_true")
    p_tree.add_argument("--enumerate", choices=["lambda2", "e1", "pi"])
    p_tree.add_argument("--out")
    p_tree.set_defaults(fn=_cmd_tree)

    p_canon = sub.add_parser("canon", help="canonical symbolic trees")
    p_canon.add_argument("--tree", required=True, help="tree literal like 'I(0, w^2)'")
    p_canon.add_argument("--tau", metavar="NODE")
    p_canon.add_argument("--sep", nargs=2, metavar=("S", "T"))
    p_canon.add_argument("--truncate", nargs=2, type=int, metavar=("DEPTH", "WIDTH"))
    p_canon.add_argument("--out")
    p_canon.set_defaults(fn=_cmd_canon)

    p_stab = sub.add_parser("stab", help="stabilize a coloring on a finite tree")
    p_stab.add_argument("--mode", required=True,
                        choices=["levels", "pairs", "leafchains", "ramsey-reduce"])
    p_stab.add_argument("--tree", required=True)
    p_stab.add_argument("--coloring", required=True)
    p_stab.add_argument("-p", type=int, default=1, help="levels to keep minus one")
    p_stab.add_argument("--emit")
    p_stab.set_defaults(fn=_cmd_stab)

    p_trans = sub.add_parser("transfinite", help="contractions and the budgeted stabilizer")
    p_trans.add_argument("--tree", required=True, help="tree literal like 'I(0, w^2)'")
    p_trans.add_argument("--contract", metavar="A=0,1")
    p_trans.add_argument("--stabilize", action="store_true")
    p_trans.add_argument("--rule", default="F[sep] with F=(0)")
    p_trans.add_argument("-k", type=int, default=None, help="palette bound for the rule")
    p_trans.add_argument("--budget", metavar="D,W,C")
    p_trans.add_argument("--audit-out")
    p_trans.set_defaults(fn=_cmd_transfinite)

    p_verify = sub.add_parser("verify", help="independent brute-force oracles")
    p_verify.add_argument("--tree")
    p_verify.add_argument("--oracle", choices=["mono-rank"])
    p_verify.add_argument("--coloring")
    p_verify.add_argument("--color", type=int, default=0)
    p_verify.add_argument("--obstruction", choices=["mult", "add"])
    p_verify.add_argument("--alpha", type=int, default=2)
    p_verify.add_argument("--cross", metavar="RESULT.json")
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_verify)

    p_demo = sub.add_parser("demo", help="run the acceptance matrix")
    p_demo.add_argument("--quick", action="store_true")
    p_demo.add_argument("--only", help="comma-separated check names")
    p_demo.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    p_demo.add_argument("--out")
    p_demo.set_defaults(fn=_cmd_demo)
    return parser


USER_ERRORS = (OrdinalError, TreeError, CanonicalError, StabilizeError,
               TransfiniteError, RuleError, RamseyBudgetError, UsageError,
               OSError, UnicodeDecodeError, json.JSONDecodeError)
AUDIT_ERRORS = (AuditFailure, BudgetExhausted, VerificationError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AUDIT_ERRORS as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
