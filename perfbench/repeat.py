#!/usr/bin/env python3
"""Repeat one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload spinor_tables --runs 10
    python3 perfbench/repeat.py --workload spinor_tables --runs 10 --save first.json
    python3 perfbench/repeat.py --workload spinor_tables --runs 10 --against first.json

Runs ``run.py`` once per seed (``--seed-base``, ``--seed-base + 1``, ...),
one run at a time, and prints for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  For an end-to-end metric it also
shows the bound from BENCHMARK.json and whether the spread stays below a
third of it.  With ``--against`` it checks that no median got worse than
the saved one by more than the bound, and that the share of failed
operations did not change.  The exit code is 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("inf"),
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the runs and their summary to this file")
    parser.add_argument("--against", help="compare medians with a file written by --save")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    results = []
    for k in range(args.runs):
        res = run_once(args.workload, args.seed_base + k, bench["run_seconds"], args.trace)
        results.append(res)
        print(f"seed {args.seed_base + k}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    summary = summarize(results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    ok = all(r["correct"] for r in results) and len(shares) == 1

    previous = json.loads(Path(args.against).read_text()) if args.against else None
    print(f"\n{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, s in summary.items():
        bound = spec.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            if name == "setup_s":
                verdict = "spread not gated"
            elif s["spread"] < bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            if previous is not None:
                before = previous["summary"][name]["median"]
                worse = (s["median"] - before) / before
                if spec[name]["better"] == "higher":
                    worse = -worse
                verdict += f"; {100 * worse:+.2f}% vs saved"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
        print(f"{name:<34} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{100 * s['spread']:>7.2f}% {'' if bound is None else bound:>6}  {verdict}")
    print(f"failed share per run: {shares}")
    if previous is not None and previous["failed_shares"] != shares:
        print(f"failed share changed from {previous['failed_shares']}")
        ok = False
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "runs": results, "summary": summary,
             "failed_shares": shares}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
