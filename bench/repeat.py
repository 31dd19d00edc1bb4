"""Repeat check: two interleaved sets of runs of one workload on the same code.

    python3 bench/repeat.py --workload dutch-books --runs 5

Runs ``bench/run.py`` 2 x ``--runs`` times, alternating set A and set B, each
run with its own seed (A gets first-seed, first-seed + 2, ...; B the odd
offsets).  For every end-to-end metric it prints each set's median and
quartiles, the spread of all runs (interquartile range over median), and
whether the two sets agree: each set's spread within the metric's bound in
``BENCHMARK.json``, set B's median within that bound of set A's, every run
correct, and the same share of failed operations in both sets.  The report
also goes to ``bench/out/repeat-<workload>.json``.  Exits 0 when the sets
agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for offset, name in enumerate("AB"):
            seed = args.first_seed + 2 * i + offset
            result = _run(args.workload, seed, args.seconds)
            sets[name].append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"set {name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    report = {"workload": args.workload, "runs_per_set": args.runs,
              "seconds": args.seconds, "metrics": {}}
    agree = all(r["correct"] for runs in sets.values() for r in runs)
    shares = {name: {r["failed"] / r["attempted"] for r in runs} for name, runs in sets.items()}
    same_share = len(shares["A"] | shares["B"]) == 1
    agree &= same_share
    print(f"\nfailed share: A {sorted(shares['A'])} B {sorted(shares['B'])} "
          f"({'same' if same_share else 'DIFFERENT'})")
    print(f"{'metric':<12} {'bound':>6} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'all-run spread':>15} {'B vs A':>8}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = _stats([r["metrics"][name]["value"] for r in sets["A"]])
        b = _stats([r["metrics"][name]["value"] for r in sets["B"]])
        pooled = _stats([r["metrics"][name]["value"] for runs in sets.values() for r in runs])
        shift = (b["median"] - a["median"]) / a["median"]
        ok = abs(shift) <= bound and max(a["spread"], b["spread"]) <= bound
        agree &= ok
        report["metrics"][name] = {"bound": bound, "A": a, "B": b, "all_runs": pooled,
                                   "shift": shift, "agree": ok}
        print(f"{name:<12} {bound:>6.2f} "
              f"{a['median']:>10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
              f"{b['median']:>10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
              f"{pooled['spread']:>15.4f} {shift:>+8.4f}{'' if ok else '  OUTSIDE BOUND'}")
    report["agree"] = agree
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"repeat-{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nsets {'agree' if agree else 'DO NOT agree'} within the bounds of BENCHMARK.json")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
