"""Exact linear feasibility for sure-loss stake searches.

Given a rational payoff matrix G (one row per outcome, one column per bet),
decide whether some stake vector S makes every outcome's payoff at most -1,
and produce such an S when it exists.  Stakes scale freely, so "<= -1
everywhere" is the normalized form of "strictly negative everywhere".

The decision is exact: a phase-1 simplex with Bland's pivoting rule, which
cannot cycle, run on Python ints.  Each bet column is scaled by the lcm of
its denominators, which keeps every reduced-cost sign and every ratio-test
order, so Bland's rule takes the pivots it would take over fractions.
Pivots are fraction-free (Bareiss, Math. Comp. 1968; Edmonds): the tableau
is the current basis determinant times the rational one, and each update
divides exactly by the previous pivot.  Problem sizes here are tiny (tens
of rows/columns), so clarity beats sparsity tricks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def stakes_forcing_sure_loss(
    rows: Sequence[Sequence[Fraction]],
) -> Optional[list[Fraction]]:
    """Return S with row . S <= -1 for every row, or None if none exists.

    `rows` must be rectangular; an empty column set (no bets) is only
    feasible if there are no rows at all.
    """
    n_rows = len(rows)
    if n_rows == 0:
        return []
    n_bets = len(rows[0])
    if any(len(r) != n_bets for r in rows):
        raise ValueError("payoff rows must have equal length")

    # Standard form: with S = u - v (u, v >= 0) and slack w >= 0,
    #   G(u - v) + w = -1  <=>  (-G)u + G v - w = 1,
    # then one artificial variable per row gives a unit starting basis.
    # Columns: u (n_bets) | v (n_bets) | w (n_rows) | artificials (n_rows).
    # Bet j's u and v columns are scaled by scale[j], so S_j is
    # scale[j] * (x_u - x_v) in the scaled variables.
    grid = [[Fraction(g) for g in row] for row in rows]
    scale = [math.lcm(*(row[j].denominator for row in grid)) for j in range(n_bets)]
    n_real = 2 * n_bets + n_rows
    n_cols = n_real + n_rows
    tableau: list[list[int]] = []
    for i, row in enumerate(grid):
        bets = [g.numerator * (k // g.denominator) for g, k in zip(row, scale)]
        line = [-b for b in bets] + bets + [0] * (2 * n_rows) + [1]
        line[2 * n_bets + i] = -1             # slack
        line[n_real + i] = 1                  # artificial; rhs is the last 1
        tableau.append(line)
    basis = [n_real + i for i in range(n_rows)]

    # Phase-1 objective: minimize the artificial sum.  With the artificial
    # basis, the reduced-cost row for real columns is the column sum.
    obj = [sum(column) for column in zip(*tableau)]
    obj[n_real:n_cols] = [0] * n_rows

    # Every row, obj included, holds det * (rational row), det = the last
    # pivot (1 for the unit start); every pivot is positive.
    det = 1
    while True:
        # Bland: the first improving column, then the least rhs/coef
        # (cross-multiplied), ties going to the lower basis index.
        pivot_col = next((j for j in range(n_cols) if obj[j] > 0), -1)
        if pivot_col < 0:
            break
        pivot_row = -1
        for i, line in enumerate(tableau):
            coef = line[pivot_col]
            if coef <= 0:
                continue
            if pivot_row >= 0:
                lhs = line[n_cols] * best[pivot_col]
                rhs = best[n_cols] * coef
                if lhs > rhs or (lhs == rhs and basis[i] > basis[pivot_row]):
                    continue
            best, pivot_row = line, i
        if pivot_row < 0:
            # Unbounded increase of a phase-1 column cannot happen with the
            # artificial sum bounded below by zero.
            raise RuntimeError("phase-1 simplex lost boundedness")
        pivot = best[pivot_col]
        for i, line in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = _eliminate(line, best, pivot, pivot_col, det)
        obj = _eliminate(obj, best, pivot, pivot_col, det)
        basis[pivot_row] = pivot_col
        det = pivot

    if obj[n_cols] != 0:
        return None                           # artificial residue: infeasible

    values = [0] * n_cols
    for i, var in enumerate(basis):
        values[var] = tableau[i][n_cols]
    return [Fraction(k * (values[j] - values[n_bets + j]), det) for j, k in enumerate(scale)]


def _eliminate(line: list[int], pivot_line: list[int], pivot: int, col: int, det: int) -> list[int]:
    """One Bareiss step: (pivot * line - line[col] * pivot_line) / det, exactly."""
    factor = line[col]
    if factor == 0:
        return line if pivot == det else [pivot * x // det for x in line]
    return [(pivot * x - factor * y) // det for x, y in zip(line, pivot_line)]
