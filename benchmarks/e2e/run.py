"""One repeatable end-to-end + per-layer benchmark for the split-serving stack.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--smoke] [--out FILE]

Without ``--workload`` every workload runs in its own fresh child
process (untraced; with ``--trace`` a second, traced child follows), all
metrics are printed by name with their unit and the merged result is
written as JSON.  With ``--workload`` this process runs that one
workload and prints, as its last line, the result object the benchmark
contract in ``BENCHMARK.json`` describes.  See ``README.md`` beside this
file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
#: The program is measured from its source tree, as shipped.
sys.path.insert(0, str(ROOT / "src"))

#: A child that has not finished by then is killed: a hang is a failure.
CHILD_TIMEOUT_S = 170


def contract() -> Dict[str, Any]:
    return json.loads(CONTRACT.read_text())


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    from e2e_runner import WorkloadRun

    layer_units = {entry["name"]: entry["unit"] for entry in contract()["per_layer"]}
    spans_dir = Path(args.out).resolve().parent if args.out else OUT_DIR
    return WorkloadRun(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                       layer_units, spans_dir, ROOT).run()


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def show(result: Dict[str, Any]) -> None:
    name = result["workload"]
    flags = "" if result["correct"] else "  INCORRECT"
    flags += "  invalid (generator ran late)" if result["invalid"] else ""
    print(f"== {name}  seed={result['seed']} window={result['seconds']:g}s "
          f"trace={int(result['trace'])}  attempted={result['attempted']} "
          f"failed={result['failed']}{flags}")
    for section in ("end_to_end", "per_layer"):
        for metric_name, entry in result[section].items():
            value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
            count = f"  n={entry['n']}" if "n" in entry else ""
            print(f"{name:15s} {metric_name:34s} {value:>14s} {entry['unit']}{count}")
    for note in result["notes"]:
        print(f"{name:15s} # {note}")


def contract_line(result: Dict[str, Any]) -> str:
    """The one-line result object of the benchmark contract: end-to-end
    metrics untraced, per-layer metrics traced (0 where not applicable)."""
    section = result["per_layer"] if result["trace"] else result["end_to_end"]
    wanted = contract()["per_layer" if result["trace"] else "end_to_end"]
    metrics = {
        e["name"]: {"value": section[e["name"]]["value"] or 0.0, "unit": e["unit"]}
        for e in wanted
    }
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_child(name: str, args: argparse.Namespace, trace: bool) -> Dict[str, Any]:
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{name}-seed{args.seed}-trace{int(trace)}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(trace)), "--out", str(detail)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(detail.read_text())
    # The benchmark contract reads the child's last line: keep it honest.
    result["printed_last"] = json.loads(done.stdout.strip().splitlines()[-1])
    return result


def run_all(args: argparse.Namespace) -> int:
    spec = contract()
    merged: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                              "smoke": args.smoke, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        result = run_child(name, args, trace=False)
        if args.trace:
            traced = run_child(name, args, trace=True)
            result["per_layer"] = traced["per_layer"]
            result["notes"] += [f"traced: {note}" for note in traced["notes"]]
            result["correct"] = result["correct"] and traced["correct"]
            result["trace"] = True
        merged["host"] = result.pop("host")
        merged["workloads"][name] = result
        show(result)
    runs = merged["workloads"]
    if "cluster_pair" in runs and "serve_steady" in runs:
        pair = runs["cluster_pair"]["end_to_end"]["p50_ms"]["value"]
        single = runs["serve_steady"]["end_to_end"]["p50_ms"]["value"]
        print(f"cluster layer end-to-end cost: cluster_pair.p50_ms - serve_steady.p50_ms "
              f"= {pair:.4g} - {single:.4g} = {pair - single:.4g} ms")
    out = Path(args.out) if args.out else OUT_DIR / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(merged, indent=1))
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs.values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window (default {spec['run_seconds']}; 1 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="~1 s windows and one set-up: checks the plumbing, not the numbers")
    parser.add_argument("--out", help="write the full result (with sample counts and notes) here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args)
    faulthandler.dump_traceback_later(CHILD_TIMEOUT_S, exit=True)
    result = run_workload(args)
    faulthandler.cancel_dump_traceback_later()
    show(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
