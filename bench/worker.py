"""One pass of one workload, in a fresh process.

Run by ``run.py``; prints a single JSON line with the set-up time, the
pass wall time, one record per job and, when traced, the per-layer
figures.  Set-up is the import of ``treeramsey`` plus input generation,
so every pass pays for imports and cold caches as a command-line user
would.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import treeramsey as tr

    jobs = workloads.build(tr, args.workload, args.seed, args.pass_index,
                           smoke=args.smoke, wrong=args.wrong_expected)
    setup_s = perf_counter() - t0
    tracer = Tracer().install(tr) if args.trace else None

    records = []
    w0 = perf_counter()
    for job in jobs:
        record = {"job": job.name, "ok": False, "why": ""}
        j0 = perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a raise is a wrong verdict, not a crash of the pass
            record["s"] = perf_counter() - j0
            record["why"] = f"raised {type(exc).__name__}: {exc}"
        else:
            record["s"] = perf_counter() - j0
            try:
                record.update(job.check(out))
                record["ok"] = True
            except Exception as exc:  # WrongVerdict, or output too malformed to judge
                record["why"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    wall_s = perf_counter() - w0

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "layers": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
