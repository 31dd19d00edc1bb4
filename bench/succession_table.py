"""Workload ``succession-table``: paper question (iii) at large n, cold.

One round runs ``figure1`` for the flat and Bures measures at k/n = 1/5,
1/2 and 4/5 along one n grid ending at ``n_max``, the same three tables
for the pure measure, and ``distribution_over_k`` for flat and Bures at
every n up to ``n_triangle``.  Each round starts from the package's
import-time caches, so it pays the moment build a fresh process pays.
"""

from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction

from common import (
    call_cli,
    fmt12,
    parse_fraction,
    quadrature_run_probability,
    rel_close,
)
from qdutch import exchangeable
from qdutch.exchangeable import Measure

N_MAX = 600
GRID_POINTS = 12
N_TRIANGLE = 80
K_FRACTIONS = ("1/5", "1/2", "4/5")
TABLE_MEASURES = ("flat", "bures", "pure")
#: Leading term of the flat k/n = 1/5 deviation: |ratio - 1| ~ c/n.
FLAT_FIFTH_C = 8 / (3 * math.log(5 / 3))
QUADRATURE_N = 8
COLUMNS = [
    "measure", "n", "k", "correction_ratio_exact", "correction_ratio_decimal",
    "succession_decimal", "laplace_decimal",
]


def make_inputs(seed: int, workdir, *, n_max=N_MAX, grid_points=GRID_POINTS,
                n_triangle=N_TRIANGLE) -> dict:
    """An even n grid ending at n_max; the seed jitters the inner points.

    Every grid point is even so that k/n = 1/2 is hit exactly; the last point
    is always n_max, so every seed pays the same moment build.
    """
    rng = random.Random(seed)
    step = n_max // grid_points
    grid = []
    for i in range(1, grid_points):
        jitter = 2 * rng.randint(-(step // 8), step // 8)
        grid.append(2 * ((i * step + jitter) // 2))
    grid.append(n_max)
    return {"grid": sorted(set(grid)), "n_triangle": n_triangle}


def run_round(inputs: dict):
    grid = ",".join(str(n) for n in inputs["grid"])
    tables = {}
    for measure in TABLE_MEASURES:
        for kfrac in K_FRACTIONS:
            tables[(measure, kfrac)] = call_cli(
                ["figure1", "--measure", measure, "--n", grid, "--kfrac", kfrac]
            )
    triangles = {
        measure: [exchangeable.distribution_over_k(measure, n)
                  for n in range(inputs["n_triangle"] + 1)]
        for measure in (Measure.FLAT, Measure.BURES)
    }
    outputs = {"tables": tables, "triangles": triangles}
    return outputs, len(tables) + sum(len(t) for t in triangles.values()), 0


def same_outputs(a, b) -> bool:
    return a["triangles"] == b["triangles"] and all(
        (a["tables"][key].code, a["tables"][key].stdout) == (r.code, r.stdout)
        for key, r in b["tables"].items()
    )


def _check_table(measure, kfrac, result, grid, problems):
    where = f"figure1 {measure} k/n={kfrac}"
    if result.code != 0:
        problems.append(f"{where}: exit {result.code} {result.raised or result.stderr.strip()}")
        return
    rows = list(csv.reader(io.StringIO(result.stdout)))
    if not rows or rows[0] != COLUMNS or len(rows) != len(grid) + 1:
        problems.append(f"{where}: expected a header and {len(grid)} rows")
        return
    kf = parse_fraction(kfrac)
    for n, row in zip(grid, rows[1:]):
        k = math.floor(kf * n + Fraction(1, 2))
        if row[:3] != [measure, str(n), str(k)]:
            problems.append(f"{where}: row {row[:3]} is not ({measure}, {n}, {k})")
            continue
        ratio = parse_fraction(row[3])
        laplace = Fraction(k + 1, n + 2)
        if row[4] != fmt12(ratio) or row[5] != fmt12(ratio * laplace) or row[6] != fmt12(laplace):
            problems.append(f"{where} n={n}: decimal columns disagree with the exact ratio")
        if (measure == "pure" or kfrac == "1/2") and ratio != 1:
            problems.append(f"{where} n={n}: correction ratio {row[3]} is not exactly 1")
        if measure == "flat" and kfrac == "1/5":
            deviation = abs(float(ratio - 1))
            if not 0 < deviation < FLAT_FIFTH_C / n:
                problems.append(
                    f"{where} n={n}: |ratio-1| = {deviation:.6g} outside (0, c/n = {FLAT_FIFTH_C / n:.6g})"
                )


def check(inputs: dict, outputs) -> list[str]:
    problems: list[str] = []
    grid = inputs["grid"]
    for (measure, kfrac), result in outputs["tables"].items():
        _check_table(measure, kfrac, result, grid, problems)
    for measure, triangle in outputs["triangles"].items():
        where = f"distribution_over_k {measure.value}"
        if [len(row) for row in triangle] != [n + 1 for n in range(inputs["n_triangle"] + 1)]:
            problems.append(f"{where}: rows of the wrong length")
            continue
        runs = [[Fraction(p) / math.comb(n, k) for k, p in enumerate(row)]
                for n, row in enumerate(triangle)]
        for n, row in enumerate(triangle):
            if sum(row) != 1:
                problems.append(f"{where} n={n}: sum of C(n,k) P(n,k) is {sum(row)}, not 1")
            if n + 1 < len(runs):
                below = runs[n + 1]
                for k, p in enumerate(runs[n]):
                    if p != below[k] + below[k + 1]:
                        problems.append(f"{where}: P({n},{k}) != P({n + 1},{k}) + P({n + 1},{k + 1})")
            if n <= QUADRATURE_N:
                for k, p in enumerate(runs[n]):
                    quad = quadrature_run_probability(measure.value, n, k)
                    if not rel_close(float(p), quad, 1e-12):
                        problems.append(f"{where}: P({n},{k}) = {float(p)!r}, quadrature {quad!r}")
    return problems

