"""Exact success-run probabilities for exchangeable qubit measurements.

A sequence of projective yes/no measurements on exchangeable qubits is
described by a mixture of product states; the mixing measure over single
qubit density operators fixes everything.  Three measures are supported:

* ``PURE_UNIFORM`` -- unitarily invariant measure on pure states;
* ``FLAT`` -- unitarily invariant rotations times a uniform eigenvalue
  distribution on the density-operator simplex;
* ``BURES`` -- rotations times the eigenvalue density ``(2/pi) *
  (2*lam - 1)**2 / sqrt(lam*(1 - lam))`` induced by the fidelity metric.

For each measure, ``run_probability(measure, RunSpec(n, k))`` is the exact
rational probability of seeing the projector true on the first k of n
measurements.  The single-trial success probability q has density Beta(1, 1)
(pure), ``-ln|1 - 2q|`` (flat) or Beta(3/2, 3/2) (Bures); one integer table of
its moments per measure serves ``run_probability`` and ``distribution_over_k``.
The predictive probability of one more success is the Laplace rule
(k+1)/(n+2) times a measure-dependent correction ratio, so Bures gives
(2k+3)/(2(n+3)) exactly.  ``correction_term`` reaches the correction term by
an independent O(n) route: under every rotation-invariant measure x = 1 - 2q
is the Bloch radius times an independent uniform on [-1, 1], so a run
probability is a Krawtchouk-weighted sum of the measure's even x-moments.

Every value is a plain Fraction; decimal rendering happens only at the
output boundary (12 significant digits).
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, TextIO, Union

from .coherence import _check_counts, laplace_succession
from .errors import CapacityError
from .rationals import format_decimal, format_rational

#: Largest trial count accepted; it bounds input and the exact engine's cost.
#: At the cap a cold `succession` takes 0.12 s (flat), 0.05 s (Bures) or 0.025 s
#: (pure), `correction_term` up to 0.03 s (Bures) and `distribution_over_k`
#: 0.4-1.0 s (2-core x86_64, Python 3.11.7).
DEFAULT_N_CAP = 2000


class Measure(Enum):
    PURE_UNIFORM = "pure"
    FLAT = "flat"
    BURES = "bures"


@dataclass(frozen=True)
class RunSpec:
    """A frequency record: k successes observed in n trials."""

    n: int
    k: int

    def __post_init__(self):
        _check_counts(self.n, self.k)


def _check_cap(n: int) -> None:
    if n > DEFAULT_N_CAP:
        raise CapacityError(f"trial count {n} exceeds the cap {DEFAULT_N_CAP}")


def _check_measure(measure) -> None:
    if not isinstance(measure, Measure):
        raise TypeError(f"measure must be a Measure member, not {measure!r}")


# --- correction term: Krawtchouk sum over even x-moments --------------------

def _x_moments(measure: Measure, count: int) -> list[Fraction]:
    """E[x**(2m)] for m < count, x = 1 - 2q: the Bloch radius g times an
    independent uniform on [-1, 1], so E[g**(2m)] / (2m + 1).  Pure g is 1,
    flat g is uniform, and Bures g follows the semicircle law, whose Catalan
    moments give E[x**(2m)] = C(2m, m) / ((m+1) 4**m), stepped by (2m-1)/(2m+2)."""
    _check_measure(measure)
    if measure is not Measure.BURES:
        power = 2 if measure is Measure.FLAT else 1
        return [Fraction(1, (2 * m + 1) ** power) for m in range(count)]
    moments = [Fraction(1)]
    for m in range(1, count):
        moments.append(moments[-1] * Fraction(2 * m - 1, 2 * m + 2))
    return moments


def correction_term(measure: Measure, spec: RunSpec) -> Fraction:
    """The factor multiplying the pure-state run probability for a measure.

    With x = 1 - 2q, ``q**k (1-q)**(n-k) = 2**-n * sum_j K_j x**j``, where the
    Krawtchouk coefficients K_j of ``(1-x)**k (1+x)**(n-k)`` follow the
    integer recurrence ``(j+1) K_{j+1} = (n-2k) K_j - (n-j+1) K_{j-1}``.  Odd
    x-moments vanish, so the run probability is ``2**-n * sum_m K_{2m}
    E[x**(2m)]``; multiplying by ``(n+1) C(n, k)``, the inverse of the pure
    run probability, gives the term in O(n) steps.  It shares nothing with
    ``run_probability``, so each checks the other.  Identically 1 for the
    pure measure, which makes the predictive formula uniform across measures.
    """
    _check_cap(spec.n)
    n, k = spec.n, spec.k
    moments = _x_moments(measure, n // 2 + 1)
    total = Fraction(0)
    prev, krawtchouk = 0, 1  # K_{j-1}, K_j
    for j in range(n + 1):
        if j % 2 == 0:
            total += krawtchouk * moments[j // 2]
        prev, krawtchouk = krawtchouk, ((n - 2 * k) * krawtchouk - (n - j + 1) * prev) // (j + 1)
    return total * Fraction((n + 1) * math.comb(n, k), 2**n)


# --- run probabilities -------------------------------------------------------
#
# P(n, k) = E[q**k (1-q)**(n-k)] = sum_s (-1)**s C(n-k, s) E[q**(k+s)], read
# from one table per measure: E[q**0..j] as integer numerators over a shared
# denominator D, grown under a lock and swapped in whole.  Pure and Bures give
# q ~ Beta(a, a), a = 1 and 3/2: E[q**j] = E[q**(j-1)] (a+j-1)/(2a+j-1).  Flat
# gives E[q**j] = sigma_j/(j+1) over the symmetrized eigenvalue moments sigma_j
# = E[sum_{a+b=j} lam1**a lam2**b] = sigma_{j-1}/2 + 1/(j+1).  Distribution rows
# fill in from P(m, m) = E[q**m] by P(m, k) = P(m-1, k) - P(m, k+1).

_Q_BETA_2A = {Measure.PURE_UNIFORM: 2, Measure.BURES: 3}  # 2a for the Beta(a, a) measures
_moment_lock = threading.Lock()
_moment_tables: dict[Measure, tuple[int, list[int]]] = {}  # measure -> (D, numerators)


def _q_moments(measure: Measure, j: int) -> tuple[int, list[int]]:
    """(D, numerators) with E[q**i] = numerators[i] / D for every i <= j."""
    _check_measure(measure)
    table = _moment_tables.get(measure, (1, [1]))
    if len(table[1]) > j:
        return table
    with _moment_lock:
        denom, numers = _moment_tables.get(measure, (1, [1]))
        a2 = _Q_BETA_2A.get(measure)
        fresh = [Fraction(numers[-1], denom)]  # steps on from the last stored moment
        for i in range(len(numers), j + 1):
            if a2:  # Beta(a, a)
                fresh.append(fresh[-1] * Fraction(a2 + 2 * i - 2, 2 * (a2 + i - 1)))
            else:  # flat, with sigma_{i-1} = i E[q**(i-1)]
                fresh.append((fresh[-1] * Fraction(i, 2) + Fraction(1, i + 1)) / (i + 1))
        grown = math.lcm(denom, *(m.denominator for m in fresh))
        _moment_tables[measure] = table = (grown, [p * (grown // denom) for p in numers[:-1]]
                                           + [m.numerator * (grown // m.denominator) for m in fresh])
    return table


def run_probability(measure: Measure, spec: RunSpec) -> Fraction:
    """Exact probability of the projector holding on the first k of n trials.

    Exchange symmetry is built in: the value depends on (n, k) only, never on
    the order of outcomes.
    """
    _check_cap(spec.n)
    n, k = spec.n, spec.k
    denom, moments = _q_moments(measure, n)
    total, binom = 0, 1  # binom = (-1)**s C(n-k, s)
    for s in range(n - k + 1):
        total += binom * moments[k + s]
        binom = -binom * (n - k - s) // (s + 1)
    return Fraction(total, denom)


def succession(measure: Measure, spec: RunSpec) -> Fraction:
    """Predictive probability of success number k+1 after k successes in n
    trials: the Laplace rule times the measure's correction ratio.
    """
    if spec.n + 1 > DEFAULT_N_CAP:
        raise CapacityError(f"succession at n={spec.n} needs trial count {spec.n + 1}, "
                            f"which exceeds the cap {DEFAULT_N_CAP}")
    denom = run_probability(measure, spec)
    numer = run_probability(measure, RunSpec(spec.n + 1, spec.k + 1))
    return numer / denom


def distribution_over_k(measure: Measure, n: int) -> list[Fraction]:
    """Exact distribution of the success count over n trials.

    Entry k multiplies the single-ordering run probability by C(n, k): by
    exchange symmetry every ordering is equally likely.  The entries sum to
    exactly 1.
    """
    _check_counts(n, 0)
    _check_cap(n)
    denom, moments = _q_moments(measure, n)
    row = []  # integer numerators over denom, overwritten row by row in place
    for diagonal in moments[: n + 1]:  # P(m, m) = E[q**m]
        row.append(diagonal)
        for k in range(len(row) - 2, -1, -1):
            row[k] -= row[k + 1]
    return [Fraction(math.comb(n, k) * p, denom) for k, p in enumerate(row)]


# --- succession tables ------------------------------------------------------

SUCCESSION_CSV_COLUMNS = (
    "measure",
    "n",
    "k",
    "correction_ratio_exact",
    "correction_ratio_decimal",
    "succession_decimal",
    "laplace_decimal",
)


@dataclass(frozen=True)
class SuccessionRow:
    measure: Measure
    n: int
    k: int
    correction_ratio: Fraction
    succession: Fraction
    laplace: Fraction

    def csv_fields(self) -> tuple[str, ...]:
        return (
            self.measure.value,
            str(self.n),
            str(self.k),
            format_rational(self.correction_ratio),
            format_decimal(self.correction_ratio),
            format_decimal(self.succession),
            format_decimal(self.laplace),
        )


def round_half_up(x: Fraction) -> int:
    """The k-grid convention: round(k_fraction * n) with ties going up."""
    return math.floor(x + Fraction(1, 2))


def succession_row(measure: Measure, spec: RunSpec) -> SuccessionRow:
    succ = succession(measure, spec)
    return SuccessionRow(
        measure=measure,
        n=spec.n,
        k=spec.k,
        correction_ratio=succ * Fraction(spec.n + 2, spec.k + 1),
        succession=succ,
        laplace=laplace_succession(spec.n, spec.k),
    )


def succession_table(
    measure: Measure,
    n_values: Iterable[int],
    k_fraction: Union[Fraction, int, str],
) -> list[SuccessionRow]:
    """Correction-ratio rows along an n grid at a fixed relative frequency.

    For each n the success count is k = round(k_fraction * n); rows carry the
    exact correction ratio together with the succession and Laplace values.
    """
    k_fraction = Fraction(k_fraction)
    rows = []
    for n in n_values:
        if n < 0:
            raise ValueError("counts must be nonnegative")
        k = round_half_up(k_fraction * n)
        if not 0 <= k <= n:
            raise ValueError(
                f"k_fraction {k_fraction} puts k={k} outside [0, {n}]"
            )
        rows.append(succession_row(measure, RunSpec(n, k)))
    return rows


def write_succession_csv(rows: Sequence[SuccessionRow], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(SUCCESSION_CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_fields())
