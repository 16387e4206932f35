#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one table.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--write]

Each run is a separate ``run.py`` process, started exactly as on the
command line.  The table lists the end-to-end metrics, then the per-layer
metrics, with units, one column per workload.  ``--write`` records the
numbers in ``perfbench/baseline.json``.  The exit status is 1 if any run
reports a failed trial or fails its 4 sigma check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} printed no result (exit {proc.returncode})")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"report": report, "result": result}


def table(runs: dict, trace: int) -> list[str]:
    names = list(runs)
    first = runs[names[0]][trace]["result"]["metrics"]
    rows = [f"{'metric':48} {'unit':7}" + "".join(f"{n:>14}" for n in names)]
    for metric, spec in first.items():
        cells = "".join(f"{runs[n][trace]['result']['metrics'][metric]['value']:14.4f}" for n in names)
        rows.append(f"{metric:48} {spec['unit']:7}{cells}")
    for key in ("trials", "trials_failed"):
        rows.append(f"{key:48} {'count':7}" + "".join(
            f"{runs[n][trace]['report'][key]:14d}" for n in names))
    return rows


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--write", action="store_true", help="record perfbench/baseline.json")
    args = p.parse_args()

    runs = {w: {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)} for w in WORKLOADS}
    print("\n".join(table(runs, 0)))
    print()
    print("\n".join(table(runs, 1)))
    ok = all(r["result"]["correct"] for w in runs.values() for r in w.values())
    if args.write:
        doc = {
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": runs[next(iter(runs))][0]["report"]["machine"],
            "workloads": {
                w: {
                    "end_to_end": {m: v["value"] for m, v in r[0]["result"]["metrics"].items()},
                    "end_to_end_unscaled": r[0]["report"]["raw"],
                    "per_layer": {m: v["value"] for m, v in r[1]["result"]["metrics"].items()},
                    "trials": r[0]["report"]["trials"],
                    "trials_failed": r[0]["report"]["trials_failed"] + r[1]["report"]["trials_failed"],
                    "traced_fingerprints_match": r[1]["report"]["fingerprints_match"],
                }
                for w, r in runs.items()
            },
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
