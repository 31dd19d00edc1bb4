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
(pure), ``-ln|1 - 2q|`` (flat) or Beta(3/2, 3/2) (Bures).  The predictive
probability of one more success is the Laplace rule (k+1)/(n+2) times a
measure-dependent correction ratio, so Bures gives (2k+3)/(2(n+3)) exactly;
the correction term itself is computed independently by ``correction_term``
as a double binomial sum over exact Beta values.  Its flat kernel is
``classical_predictive``; its Bures kernel is rational because the density's
2/pi cancels the pi of the half-integer Beta inside ``_beta_half_over_pi``.

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

from .coherence import _check_counts, classical_predictive, laplace_succession
from .errors import CapacityError
from .rationals import format_decimal, format_rational

#: Largest trial count accepted: it bounds input, and `correction_term` is O(n**2).
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


# --- correction term: literal double binomial sum -------------------------

def _half_rising(a2: int, m: int) -> int:
    """2**m times the rising factorial (a2/2)_m."""
    return math.prod(range(a2, a2 + 2 * m, 2))


def _beta_half_over_pi(a2: int, b2: int) -> Fraction:
    """B(a2/2, b2/2) / pi for odd a2, b2: with Gamma(m + 1/2) = sqrt(pi)
    (1/2)_m the pi of the two Gammas comes out whole, leaving a rational."""
    m, n = (a2 - 1) // 2, (b2 - 1) // 2
    return Fraction(_half_rising(1, m) * _half_rising(1, n), 2 ** (m + n) * math.factorial(m + n))


def correction_term(measure: Measure, spec: RunSpec) -> Fraction:
    """The factor multiplying the pure-state run probability for a measure.

    Computed as the double sum over j in [0, k], l in [0, n-k] of
    ``C(j+l, j) * C(n-j-l, k-j) * kernel(r)`` with r = k - j + l, where the
    kernel is the measure's eigenvalue moment.  For the flat measure it is
    B(n-r+1, r+1), read from Pascal's rows as ``classical_predictive(n, r)``;
    for the Bures measure it is ``(2/pi) * ((n-2r)**2 + n + 1) /
    ((r+1/2)(n-r+1/2)) * B(n-r+3/2, r+3/2)``, where the pi of the Beta value
    cancels the density's 1/pi inside ``_beta_half_over_pi``.  Every term is a
    plain Fraction.  Identically 1 for the pure measure, which makes the
    predictive formula uniform across measures.
    """
    _check_cap(spec.n)
    n, k = spec.n, spec.k
    if measure is Measure.PURE_UNIFORM:
        return Fraction(1)

    # Group the (j, l) terms by r: the kernel depends on r alone, so the
    # expensive Beta values are computed once per r instead of once per term.
    weights = [0] * (n + 1)
    for j in range(k + 1):
        for l in range(n - k + 1):
            weights[k - j + l] += math.comb(j + l, j) * math.comb(n - j - l, k - j)

    total = Fraction(0)
    for r, w in enumerate(weights):
        if not w:
            continue
        if measure is Measure.FLAT:
            total += w * classical_predictive(n, r)
        else:
            # (2/pi) * quad / ((r+1/2)(n-r+1/2)) = 8 * quad / ((2r+1)(2n-2r+1)) / pi
            quad = (n - 2 * r) ** 2 + n + 1
            scale = Fraction(8 * quad * w, (2 * r + 1) * (2 * (n - r) + 1))
            total += scale * _beta_half_over_pi(2 * (n - r) + 3, 2 * r + 3)
    return total


# --- run probabilities -------------------------------------------------------
#
# Under every supported measure the single-trial success probability is
# q = lam1*t + lam2*(1-t) with t uniform on [0, 1], i.e. q is uniform on
# [lam2, lam1].  Pure and Bures give q ~ Beta(a, a), a = 1 and 3/2, so a run
# probability is the closed form (a)_k (a)_{n-k} / (2a)_n in rising
# factorials.  For the flat measure, averaging t exactly gives a short
# alternating sum over the symmetrized eigenvalue moments
#   sigma_j = E[ sum_{a+b=j} lam1**a lam2**b ] = sigma_{j-1}/2 + 1/(j+1),
# cached from sigma_0 = 1.  Rows of the success-count distribution start from
# P(m, m) and fill in by P(m, k) = P(m-1, k) - P(m, k+1): trial m succeeds or
# fails.  Both routes exactly regroup the double sum in `correction_term`;
# tests pin the two.

#: 2a for the measures whose q-density is Beta(a, a).
_Q_BETA_2A = {Measure.PURE_UNIFORM: 2, Measure.BURES: 3}

_sigma_lock = threading.Lock()
_sigma_cache: list[Fraction] = [Fraction(1)]  # flat-measure sigma_0, sigma_1, ...


def _sigma_upto(j_max: int) -> list[Fraction]:
    if len(_sigma_cache) > j_max:
        return _sigma_cache
    with _sigma_lock:
        while len(_sigma_cache) <= j_max:
            j = len(_sigma_cache)
            _sigma_cache.append(_sigma_cache[-1] / 2 + Fraction(1, j + 1))
    return _sigma_cache


def run_probability(measure: Measure, spec: RunSpec) -> Fraction:
    """Exact probability of the projector holding on the first k of n trials.

    Exchange symmetry is built in: the value depends on (n, k) only, never on
    the order of outcomes.
    """
    _check_cap(spec.n)
    n, k = spec.n, spec.k
    a2 = _Q_BETA_2A.get(measure)
    if a2 is not None:
        numer = _half_rising(a2, k) * _half_rising(a2, n - k)
        return Fraction(numer, 2**n * math.perm(a2 + n - 1, n))  # (2a)_n = perm(2a+n-1, n)
    sigmas = _sigma_upto(n)
    total = Fraction(0)
    binom = 1
    for s in range(n - k + 1):
        coeff = Fraction(binom if s % 2 == 0 else -binom, k + s + 1)
        total += sigmas[k + s] * coeff
        binom = binom * (n - k - s) // (s + 1)
    return total


def succession(measure: Measure, spec: RunSpec) -> Fraction:
    """Predictive probability of success number k+1 after k successes in n
    trials: the Laplace rule times the measure's correction ratio.
    """
    if spec.n + 1 > DEFAULT_N_CAP:
        raise CapacityError(
            f"succession at n={spec.n} needs trial count {spec.n + 1}, "
            f"which exceeds the cap {DEFAULT_N_CAP}"
        )
    denom = run_probability(measure, spec)
    numer = run_probability(measure, RunSpec(spec.n + 1, spec.k + 1))
    return numer / denom


def correction_ratio(measure: Measure, spec: RunSpec) -> Fraction:
    """Deviation factor from the Laplace rule (exactly 1 for the pure measure)."""
    return succession(measure, spec) * Fraction(spec.n + 2, spec.k + 1)


def distribution_over_k(measure: Measure, n: int) -> list[Fraction]:
    """Exact distribution of the success count over n trials.

    Entry k multiplies the single-ordering run probability by C(n, k): by
    exchange symmetry every ordering is equally likely.  The entries sum to
    exactly 1.
    """
    if n < 0:
        raise ValueError("counts must be nonnegative")
    _check_cap(n)
    diagonal = [run_probability(measure, RunSpec(m, m)) for m in range(n + 1)]
    denom = math.lcm(*(d.denominator for d in diagonal))
    row = []  # integer numerators over denom, overwritten row by row in place
    for d in diagonal:
        row.append(d.numerator * (denom // d.denominator))
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
