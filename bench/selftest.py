"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one small round of each workload, confirms that its check accepts the
program's real outputs, then plants wrong outputs and confirms that the
check rejects each of them:

* a correction ratio off by 1/10^30 (in a k/n = 1/2 table and in the
  distribution triangle);
* a stake vector whose payoff is above -1 on one atom;
* a quantum average off by 1e-6 of the total stake (state-derived and given
  quotients);
* a Monte Carlo estimate 5 sigma away from the exact value;
* a malformed-input control that is not handled (only the known faults may
  fail).

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import dutch_books
import mc_verify
import succession_table
from common import parse_fraction, reset_caches, write_input_files
from qdutch.exchangeable import Measure

SEED = 20260810
SMALL = {
    succession_table: {"n_max": 60, "grid_points": 6, "n_triangle": 12},
    dutch_books: {"n_coherent": 10, "n_violating": 10, "n_quantum": 20, "n_luders": 10,
                  "n_luders_cli": 3, "n_aggregate_cli": 3},
    mc_verify: {"n_max": 4, "samples": 20_000},
}


def _replace_stdout(result, stdout):
    planted = copy.copy(result)
    planted.stdout = stdout
    return planted


def plant_ratio_in_table(inputs, outputs):
    key = ("flat", "1/2")
    lines = outputs["tables"][key].stdout.splitlines(keepends=True)
    fields = lines[1].split(",")
    off = 1 + Fraction(1, 10**30)
    fields[3] = f"{off.numerator}/{off.denominator}"
    lines[1] = ",".join(fields)
    outputs["tables"][key] = _replace_stdout(outputs["tables"][key], "".join(lines))


def plant_ratio_in_triangle(inputs, outputs):
    row = outputs["triangles"][Measure.BURES][5]
    row[2] += Fraction(1, 10**30)


def plant_stakes_above_minus_one(inputs, outputs):
    index = next(i for i, b in enumerate(inputs["classical"]) if b["kind"] == "violating")
    book, result = inputs["classical"][index], outputs["classical"][index]
    head = result.stdout.splitlines()[0]
    stakes = [parse_fraction(s) / 1000 for s in head[len("DUTCH BOOK: stakes "):].split()]
    payoffs = [dutch_books.harness_payoff(book["bets"], a, stakes) for a in range(book["n_atoms"])]
    assert any(p > -1 for p in payoffs), "the plant must pay more than -1 somewhere"
    lines = ["DUTCH BOOK: stakes " + " ".join(f"{s.numerator}/{s.denominator}" for s in stakes)]
    lines += [f"  payoff[w{a}] = {p.numerator}/{p.denominator}" for a, p in enumerate(payoffs)]
    outputs["classical"][index] = _replace_stdout(result, "\n".join(lines) + "\n")


def _plant_quantum_average(inputs, outputs, derived):
    index = next(i for i, b in enumerate(inputs["quantum"]) if b["derived"] is derived)
    result = outputs["quantum"][index]
    average_line, total_line = result.stdout.splitlines()
    total = float(total_line.removeprefix("total |stake| = "))
    average = float(average_line.removeprefix("average payoff = ")) + 1e-6 * total
    outputs["quantum"][index] = _replace_stdout(
        result, f"average payoff = {average:.12g}\n{total_line}\n"
    )


def plant_quantum_derived(inputs, outputs):
    _plant_quantum_average(inputs, outputs, derived=True)


def plant_quantum_given(inputs, outputs):
    _plant_quantum_average(inputs, outputs, derived=False)


def plant_mc_five_sigma(inputs, outputs):
    result = outputs["flat"]
    lines = result.stdout.splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    index = next(i for i, r in enumerate(rows) if r["stderr"] > 0)
    rows[index]["estimate"] = float(parse_fraction(rows[index]["exact"])) + 5 * rows[index]["stderr"]
    lines[index] = json.dumps(rows[index])
    outputs["flat"] = _replace_stdout(result, "\n".join(lines) + "\n")


def plant_failing_control(inputs, outputs):
    index = next(i for i, (name, _) in enumerate(dutch_books.MALFORMED)
                 if name not in dutch_books.KNOWN_FAULTS)
    outputs["malformed"][index] = False


PLANTS = (
    (succession_table, plant_ratio_in_table, "not exactly 1"),
    (succession_table, plant_ratio_in_triangle, "P(5,"),
    (dutch_books, plant_stakes_above_minus_one, "> -1"),
    (dutch_books, plant_quantum_derived, "state-derived average"),
    (dutch_books, plant_quantum_given, "per-bet sum"),
    (dutch_books, plant_failing_control, "malformed input decimal-quotient"),
    (mc_verify, plant_mc_five_sigma, "sigma from exact"),
)


def main() -> int:
    workdir = Path(__file__).resolve().parent / "work" / f"selftest-{os.getpid()}"
    ok = True
    try:
        real = {}
        for module, size in SMALL.items():
            sub = workdir / module.__name__
            sub.mkdir(parents=True)
            inputs = module.make_inputs(SEED, sub, **size)
            write_input_files(inputs)
            reset_caches()
            outputs, _, _ = module.run_round(inputs)
            problems = module.check(inputs, outputs)
            print(f"{'PASS' if not problems else 'FAIL'} {module.__name__}: real outputs accepted")
            for problem in problems:
                print(f"    {problem}")
            ok &= not problems
            real[module] = (inputs, outputs)
        for module, plant, expected in PLANTS:
            inputs, outputs = real[module]
            planted = copy.deepcopy(outputs)
            plant(inputs, planted)
            problems = module.check(inputs, planted)
            caught = any(expected in p for p in problems)
            print(f"{'PASS' if caught else 'FAIL'} {plant.__name__}: "
                  + (problems[0] if caught else "not rejected"))
            ok &= caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
