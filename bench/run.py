"""Benchmark of the treeramsey engine.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload transfinite --seed 1 --seconds 45 --trace 0

Workloads (closed loop, one job at a time, see ``workloads.py``):

* ``transfinite``: the budgeted stabilizer on four canonical trees that
  take every construction path (ordinal, canonical, rules, transfinite);
* ``finite``: JSON documents through the finite stabilizers, cross
  validation and the tree calculus, on deep and on bushy trees
  (tree_core, stabilize);
* ``oracle``: the exhaustive monochromatic-rank search under the
  multiplicative obstruction, with a node budget (verify);
* ``demo``: the ten-check acceptance matrix, one check per job.

A run repeats *passes* until ``--seconds`` is used up (at least three
untraced passes).  Each pass is a fresh process that imports the package,
generates its inputs from the seed and the pass index, then runs every job
and checks every verdict with the benchmark's own code.  The figures are
medians over passes, so a cache filled inside the program pays its fill
cost in every pass, as a command-line user pays it on every invocation.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and it holds the
per-layer figures from ``tracer.py`` plus the tracing overhead (traced
minus untraced pass wall time).  Lines before it give the same figures
for reading, the run metadata, the job tail and the failure share.

Other modes:

    python3 bench/run.py ... --out runs.jsonl      # also append a record
    python3 bench/run.py --compare A.jsonl B.jsonl  # two sets of records
    python3 bench/run.py ... --smoke               # tiny sizes, one pass
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_PASSES = 3
# a run must end within 180 s; stop starting passes that would end later
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class RunError(RuntimeError):
    pass


# -- one run ------------------------------------------------------------------------


def _pass(args, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(index), "--trace", "1" if traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"pass {index} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"pass {index} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(lines[-1])
    data["traced"] = traced
    return data


def run_passes(args) -> list[dict]:
    """Untraced passes (alternating with traced ones under --trace 1) until
    the next pass of the due kind would overrun --seconds."""
    start = perf_counter()
    longest = {False: 0.0, True: 0.0}
    passes: list[dict] = []
    minimum = 1 if args.smoke else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = perf_counter() - start
        t0 = perf_counter()
        passes.append(_pass(args, len(passes), traced, RUN_LIMIT_S - elapsed))
        longest[traced] = max(longest[traced], perf_counter() - t0)
        elapsed = perf_counter() - start
        untraced = sum(not p["traced"] for p in passes)
        if args.trace:
            needed = untraced < 1 or untraced == len(passes)
        else:
            needed = untraced < minimum
        upcoming = bool(args.trace) and len(passes) % 2 == 1
        if elapsed + longest[upcoming] > RUN_LIMIT_S:
            break
        if not needed and elapsed + longest[upcoming] > args.seconds:
            break
    return passes


def _verdicts(passes: list[dict]) -> None:
    """The demo promise: the same seed gives the same (name, passed, detail)
    list in every pass.  A job whose verdict differs from the first pass
    that ran the same job fails."""
    first: dict[str, list] = {}
    for p in passes:
        for job in p["jobs"]:
            if not job["ok"]:
                continue
            ref = first.setdefault(job["job"], job["verdict"])
            if job["verdict"] != ref:
                job["ok"] = False
                job["why"] = f"verdict {job['verdict']} differs from an earlier pass: {ref}"


def tail(times: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, as
    (seconds, percentile); None below 2 * TAIL_BEYOND jobs."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def summarize(args, passes: list[dict]) -> tuple[dict, dict]:
    """The contract's result object and the extra figures for the report."""
    if args.workload == "demo":
        _verdicts(passes)
    jobs = [job for p in passes for job in p["jobs"]]
    failed = [job for job in jobs if not job["ok"]]
    plain = [p for p in passes if not p["traced"]]
    times = [job["s"] for p in plain for job in p["jobs"]]
    searches = sum(job.get("searches", 0) for p in plain for job in p["jobs"])
    decided = sum(job.get("decided", 0) for p in plain for job in p["jobs"])
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = traced[0]["layers"].keys()
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "wall_s": wall,
            "job_p50_s": statistics.median(times),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "decided_frac": decided / searches if searches else 1.0,
        }
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    result = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
              "metrics": metrics}
    extra = {
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "traced_passes": len(passes) - len(plain),
        "jobs_timed": len(times),
        "job_tail_s": tail(times),
        "failed_frac": len(failed) / len(jobs),
        "searches": searches,
        "failures": [f"{job['job']}: {job['why']}" for job in failed[:5]],
    }
    return result, extra


def metadata(seed: int) -> dict:
    """Recorded next to the numbers; nothing gates on it."""
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = ROOT / "src" / "treeramsey"
    lines = sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py")))
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "src_lines": lines}


def report(args, meta: dict, result: dict, extra: dict) -> None:
    print(f"# treeramsey benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# passes: {extra['passes']} untraced, {extra['traced_passes']} traced; "
          f"{result['attempted']} jobs attempted")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        t = extra["job_tail_s"]
        if t is None:
            print(f"{'job_tail_s':28s} omitted: {extra['jobs_timed']} jobs, fewer than "
                  f"{2 * TAIL_BEYOND}")
        else:
            print(f"{'job_tail_s':28s} {t[0]:.6g} s (p{t[1]}, n={extra['jobs_timed']})")
    print(f"{'failed_frac':28s} {extra['failed_frac']:.6g} share "
          f"({result['failed']}/{result['attempted']})")
    for line in extra["failures"]:
        print(f"# failed: {line}")


# -- compare mode ---------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _share(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def compare(path_a: str, path_b: str) -> int:
    """For each workload and end-to-end metric: each side's median and
    quartiles, B's pair wins over A (pairs share a seed), the change, and
    whether it goes beyond the metric's bound.  A spread wider than the
    bound is unresolved unless every B run beats every A run."""
    sides = [_records(path_a), _records(path_b)]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':12s} {'metric':13s} {'A q1/med/q3':>28s} {'B q1/med/q3':>28s} "
          f"{'IQR A':>7s} {'IQR B':>7s} {'B wins':>7s} {'change':>8s} verdict")
    for workload in WORKLOADS:
        runs = [[r for r in side if r["workload"] == workload] for side in sides]
        if not all(runs):
            continue
        for m in SPEC["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            vals = [[r["result"]["metrics"][name]["value"] for r in side] for side in runs]
            qa, qb = _quartiles(vals[0]), _quartiles(vals[1])
            spread = [_share(q[2] - q[0], q[1]) for q in (qa, qb)]
            by_seed = [{r["seed"]: r["result"]["metrics"][name]["value"] for r in side}
                       for side in runs]
            common = sorted(by_seed[0].keys() & by_seed[1].keys())
            wins = sum((b < a) if lower else (b > a)
                       for a, b in ((by_seed[0][s], by_seed[1][s]) for s in common))
            change = _share(qb[1] - qa[1], qa[1])
            worse = change if lower else -change
            b_all_better = (max(vals[1]) < min(vals[0])) if lower else (min(vals[1]) > max(vals[0]))
            if max(spread) > bound and not b_all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"WORSE beyond bound {bound:g}"
            elif -worse > bound:
                verdict = f"better beyond bound {bound:g}"
            else:
                verdict = f"within bound {bound:g}"
            print(f"{workload:12s} {name:13s} {_fmt(qa):>28s} {_fmt(qb):>28s} "
                  f"{spread[0]:7.2%} {spread[1]:7.2%} {wins:>3d}/{len(common):<3d} "
                  f"{change:+8.2%} {verdict}")
    return 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def _records(path: str) -> list[dict]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [r for r in rows if not r["trace"] and not r["smoke"]]


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="corrupt every expected verdict (tests the checks)")
    ap.add_argument("--out", help="append the run's record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two JSONL files of records")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "treeramsey" / "__init__.py").is_file():
        print(f"error: no treeramsey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = metadata(args.seed)
    result, extra = summarize(args, passes)
    report(args, meta, result, extra)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "meta": meta,
                  "result": result, "extra": extra}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
