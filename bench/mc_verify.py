"""Workload ``mc-verify``: the Monte Carlo cross-check of question (iii).

One round runs ``definetti-verify --nmax 8 --samples 100000`` once per
measure (pure, flat, Bures): 45 comparisons each, 135 in all, one operation
each.  The seed is the sampler's seed.
"""

from __future__ import annotations

import json

from common import call_cli, parse_fraction, pure_run_probability, quadrature_run_probability, rel_close

MEASURES = ("pure", "flat", "bures")
N_MAX = 8
SAMPLES = 100_000
Z_THRESHOLD = 4.0


def make_inputs(seed: int, workdir, *, n_max=N_MAX, samples=SAMPLES) -> dict:
    return {"seed": seed, "n_max": n_max, "samples": samples}


def run_round(inputs: dict):
    outputs = {
        measure: call_cli([
            "definetti-verify", "--measure", measure, "--nmax", str(inputs["n_max"]),
            "--samples", str(inputs["samples"]), "--seed", str(inputs["seed"]),
        ])
        for measure in MEASURES
    }
    n = inputs["n_max"] + 1
    return outputs, len(MEASURES) * n * (n + 1) // 2, 0


def same_outputs(a, b) -> bool:
    return all((a[m].code, a[m].stdout) == (b[m].code, b[m].stdout) for m in MEASURES)


def check(inputs: dict, outputs) -> list[str]:
    problems: list[str] = []
    cells = [(n, k) for n in range(inputs["n_max"] + 1) for k in range(n + 1)]
    for measure, result in outputs.items():
        where = f"definetti-verify {measure}"
        lines = result.stdout.splitlines()
        if result.code != 0 or len(lines) != len(cells) + 1:
            problems.append(f"{where}: exit {result.code} {result.raised or result.stderr.strip()}")
            continue
        if lines[-1] != f"# {len(cells)}/{len(cells)} comparisons passed at 4 sigma":
            problems.append(f"{where}: summary {lines[-1]!r}")
        for (n, k), line in zip(cells, lines):
            row = json.loads(line)
            cell = f"{where} ({n},{k})"
            if (row["measure"], row["n"], row["k"]) != (measure, n, k):
                problems.append(f"{cell}: row is for {row['measure']} ({row['n']},{row['k']})")
                continue
            exact = parse_fraction(row["exact"])
            if measure == "pure":
                if exact != pure_run_probability(n, k):
                    problems.append(f"{cell}: exact {row['exact']} != 1/((n+1) C(n,k))")
            else:
                quad = quadrature_run_probability(measure, n, k)
                if not rel_close(float(exact), quad, 1e-12):
                    problems.append(f"{cell}: exact {float(exact)!r}, quadrature {quad!r}")
            diff = abs(float(exact) - row["estimate"])
            z = diff / row["stderr"] if row["stderr"] > 0 else (0.0 if diff == 0 else float("inf"))
            if not (z <= Z_THRESHOLD and row["pass"]):
                problems.append(f"{cell}: estimate {row['estimate']!r} is {z:.2f} sigma from exact")
    return problems
