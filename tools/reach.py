"""Functions of ``src/treeramsey`` that no command, demo, benchmark
workload or sweep case calls.

Under ``sys.setprofile`` it runs:

* every CLI subcommand and mode on a seeded tree, in a temporary directory
  (the input documents are built before profiling starts);
* ``treeramsey demo --quick``;
* one smoke pass of each workload of ``bench/workloads.py``;
* every case of ``tools/sweep_transfinite.py``.

It then prints, sorted, every function, method and nested function
defined in ``src/treeramsey`` whose code none of them entered, one
``module.qualname`` per line:

    python3 tools/reach.py

Stdlib only; it imports the package from the ``src`` directory next to
this file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import signal
import sys
import tempfile
from inspect import CO_OPTIMIZED  # set on functions, not on module and class bodies
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treeramsey"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

def defined_functions() -> dict[tuple[str, int, str], str]:
    """Every function code object of the package's modules but lambdas and
    comprehensions, keyed by file, first line and name as a running
    frame's code is, with its ``module.qualname``.  The qualname is built
    from the nesting (``co_qualname`` is newer than Python 3.10): a
    function's own definitions sit under ``<locals>``, a class body's
    under the class."""
    out: dict[tuple[str, int, str], str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, CodeType):
                    qualname = prefix + const.co_name
                    inner = qualname + (".<locals>." if const.co_flags & CO_OPTIMIZED else ".")
                    stack.append((const, inner))
                    if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                        out[str(path), const.co_firstlineno, const.co_name] = \
                            f"{path.stem}.{qualname}"
    return out


def _inputs(tmp: Path) -> dict[str, Path]:
    """A seeded 16-node tree of rank 9 and a node, a pair and a leaf-chain
    coloring of it, written as documents."""
    from treeramsey.stabilize import Coloring
    from treeramsey.tree_core import FiniteTree

    rng = random.Random(7)
    parents: dict[int, int | None] = {0: None}
    for i in range(1, 16):
        parents[i] = i - 1 if i < 7 else rng.randrange(i)
    tree = FiniteTree.from_parents(parents)
    docs = {
        "tree": tree.to_json(),
        "nodes": Coloring.of_nodes(tree, lambda t: rng.randrange(2), k=1).to_json(),
        "pairs": Coloring.of_pairs(tree, lambda s, t: rng.randrange(2), k=1).to_json(),
        "chains": Coloring.of_leaf_chains(tree, 1, lambda *c: rng.randrange(2), k=1).to_json(),
    }
    paths = {name: tmp / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    return paths


def _cli(tmp: Path, paths: dict[str, Path]) -> None:
    from treeramsey.cli import main as cli

    out = str(tmp / "out.json")
    tree = ["--tree", str(paths["tree"])]
    runs = [
        ["ord", "w^2 + w*3"], ["ord", "--add", "w", "3"], ["ord", "--mul", "w+1", "w"],
        ["ord", "--divide", "w", "w^2+5"], ["ord", "--factorize", "w^(w+1)"],
        ["ord", "--indecomposable", "add", "w^w"], ["ord", "--indecomposable", "mul", "w^w"],
        ["tree", *tree, "--rank", "--tau", "--levels", "--derive", "1", "--out", out],
        *(["tree", *tree, "--enumerate", fam] for fam in ("lambda2", "e1", "pi")),
        ["canon", "--tree", "I(0, w^2)", "--tau", "w+1, 3", "--sep", "w+1", "w+1, 3"],
        ["canon", "--tree", "I(0, w^2)", "--truncate", "3", "3", "--out", out],
        ["transfinite", "--tree", "I(0, w^2)", "--contract", "A=0,1", "--audit-out", out],
        ["transfinite", "--tree", "I(0, w^w)", "--stabilize", "--rule", "F[sep] with F=(1)",
         "--budget", "4,3,6", "--audit-out", out],
        ["verify", *tree, "--oracle", "mono-rank", "--coloring", str(paths["nodes"])],
        ["verify", *tree, "--oracle", "mono-rank", "--coloring", str(paths["pairs"]),
         "--color", "1", "--out", out],
        ["verify", *tree, "--obstruction", "mult", "--out", out],
        ["verify", *tree, "--obstruction", "add"],
    ]
    for mode, coloring in (("levels", "nodes"), ("pairs", "pairs"), ("leafchains", "chains"),
                           ("ramsey-reduce", "pairs")):
        emit = str(tmp / f"{mode}-result.json")
        runs.append(["stab", "--mode", mode, *tree, "--coloring", str(paths[coloring]),
                     "-p", "1", "--emit", emit])
        runs.append(["verify", "--cross", emit, "--out", out])
    runs.append(["demo", "--quick", "--out", out])
    for argv in runs:
        if cli(argv) != 0:
            raise SystemExit(f"treeramsey {' '.join(argv)} did not exit 0")


def _bench() -> None:
    import treeramsey as tr
    import workloads

    for name in workloads.WORKLOADS:
        for job in workloads.build(tr, name, seed=1, pass_index=0, smoke=True):
            job.check(job.run())


def _sweep() -> None:
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep_transfinite.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    signal.signal(signal.SIGALRM, sweep._alarm)
    for tree_text in sweep.TREES:
        for rule_text, k in sweep.RULES:
            for budget in sweep.BUDGETS:
                sweep.run_case(tree_text, rule_text, k, budget)


@contextlib.contextmanager
def _profiled(entered: set[CodeType]):
    """Add the code of every Python call made inside to ``entered``."""
    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)


def main() -> int:
    defined = defined_functions()
    entered: set[CodeType] = set()
    with _profiled(entered):  # what runs at import counts as reached
        importlib.import_module("treeramsey.cli")
        importlib.import_module("treeramsey.demo")
    with tempfile.TemporaryDirectory() as tmp:
        paths = _inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with _profiled(entered), contextlib.redirect_stdout(io.StringIO()):
                _cli(Path(tmp), paths)
                _bench()
                _sweep()
        finally:
            os.chdir(cwd)
    for code in entered:
        defined.pop((code.co_filename, code.co_firstlineno, code.co_name), None)
    for name in sorted(defined.values()):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
