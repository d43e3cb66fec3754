"""Verdict sweep of the transfinite stabilizer.

Runs ``stabilize_transfinite`` on 5 trees I(0, x) x 9 rules x 2 budgets,
each case under a 20 s alarm, and prints one JSON line per case: the
verdict ("ok", the failing step, "AuditFailure" or "timeout"), the table
and the audit pair count of a success, the message of a failure.  The
output holds no timings, so two checkouts can be compared with ``diff``:

    python3 tools/sweep_transfinite.py > sweep.jsonl

A summary of the verdicts goes to stderr.  Stdlib only; it imports the
package from the ``src`` directory next to this file.
"""

from __future__ import annotations

import json
import signal
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treeramsey.canonical import CanonicalTree  # noqa: E402
from treeramsey.ordinal import parse_ordinal  # noqa: E402
from treeramsey.rules import parse_rule  # noqa: E402
from treeramsey.transfinite import (  # noqa: E402
    AuditFailure,
    Budget,
    BudgetExhausted,
    piece_window,
    stabilize_transfinite,
)

TREES = ("w^w", "w^(w+1)", "w^(w*2)", "w^(w^w)", "w^(w^2)")
# (rule text, palette bound k)
RULES = (
    ("F[sep] with F=(1,0)", 1),
    ("tau(w, s) mod 2", 1),
    ("tau(w^2, t) mod 2", 1),
    ("depth(t) mod 2", 1),
    ("if depth(s) > 1 then 1 else 0", 1),
    ("tau(w, t) mod 3", 2),
    ("if tau(w^w, t) == tau(w^w, s) then 0 else 1", 1),
    ("tau(w^w, t) mod 2", 1),
    ("if tau(w, s) > tau(w, t) then 1 else 0", 1),
)
BUDGETS = ((2, 2, 6), (3, 3, 6))
ALARM_S = 20


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_case(tree_text: str, rule_text: str, k: int, budget: tuple[int, int, int]) -> dict:
    out = {"tree": tree_text, "rule": rule_text, "k": k, "budget": list(budget)}
    tree = CanonicalTree.of(0, parse_ordinal(tree_text))
    signal.alarm(ALARM_S)
    try:
        res = stabilize_transfinite(tree, parse_rule(rule_text, k=k), Budget(*budget))
        window, _ = piece_window(res.subtree, budget[0], budget[1])
        out.update(verdict="ok", table=list(res.table),
                   pairs=sum(1 for _ in window.ordered_pairs()))
    except _Timeout:
        out.update(verdict="timeout")
    except BudgetExhausted as e:
        out.update(verdict=e.step, message=str(e))
    except AuditFailure as e:
        out.update(verdict="AuditFailure", step=e.step, message=str(e))
    finally:
        signal.alarm(0)
    return out


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    verdicts: Counter = Counter()
    for tree_text in TREES:
        for rule_text, k in RULES:
            for budget in BUDGETS:
                case = run_case(tree_text, rule_text, k, budget)
                verdicts[case["verdict"]] += 1
                print(json.dumps(case), flush=True)
    print(json.dumps(dict(sorted(verdicts.items()))), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
