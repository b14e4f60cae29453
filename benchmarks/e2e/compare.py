"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric with both values, the ratio
B/A *and its base*, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         B is no worse than A by more than the bound;
* ``worse``      B is worse than A by more than the bound;
* ``unresolved`` the pair cannot be judged: a value is missing, or one
  of the runs was incorrect or flagged invalid (its generator ran late).

Exits non-zero when any row is ``worse``.  This is the tool for the
run-to-run agreement criterion (same commit twice) and for later A/B
claims (parent vs change); a single pair of runs can show a regression
beyond the bound, never a gain - see the README for the ten-pair rule.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

CONTRACT = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def verdict(a: Optional[float], b: Optional[float], better: str, bound: float,
            judgeable: bool = True) -> str:
    if a is None or b is None or not a or not judgeable:
        return "unresolved"
    change = (b - a) / abs(a)
    worsening = change if better == "lower" else -change
    return "worse" if worsening > bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        run_a = a["workloads"].get(workload)
        run_b = b["workloads"].get(workload)
        judgeable = all(
            run is not None and run["correct"] and not run["invalid"] for run in (run_a, run_b)
        )
        for entry in spec["end_to_end"]:
            name = entry["name"]
            value_a = run_a["end_to_end"].get(name, {}).get("value") if run_a else None
            value_b = run_b["end_to_end"].get(name, {}).get("value") if run_b else None
            rows.append({
                "workload": workload, "metric": name, "unit": entry["unit"],
                "a": value_a, "b": value_b,
                "ratio": value_b / value_a if value_a and value_b is not None else None,
                "better": entry["better"], "bound": entry["bound"],
                "verdict": verdict(value_a, value_b, entry["better"], entry["bound"], judgeable),
            })
    return rows


def render(rows: Sequence[Dict[str, Any]], name_a: str, name_b: str) -> str:
    def number(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.5g}"

    lines = [f"A = {name_a}\nB = {name_b}",
             f"{'workload':15s} {'metric':22s} {'A':>11s} {'B':>11s} {'B/A':>8s}  "
             f"{'base (A)':>14s} {'bound':>12s}  verdict"]
    for row in rows:
        sign = "+" if row["better"] == "lower" else "-"
        lines.append(
            f"{row['workload']:15s} {row['metric']:22s} {number(row['a']):>11s} "
            f"{number(row['b']):>11s} {number(row['ratio']):>8s}  "
            f"{number(row['a']) + ' ' + row['unit']:>14s} "
            f"{sign + format(row['bound'] * 100, 'g') + '% ' + row['better']:>12s}  {row['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("ok", "worse", "unresolved")}
    lines.append(", ".join(f"{n} {v}" for v, n in counts.items()))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    rows = compare(a, b, json.loads(CONTRACT.read_text()))
    print(render(rows, *args))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
