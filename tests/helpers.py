"""Shared generators and independent oracles for the test suite.

The quadrature oracles recompute expected values symbolically (sympy) or by
construction, never through the code paths under test.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from qdutch import (
    Book,
    ConditionalBet,
    DensityOperator,
    Measure,
    OutcomeSpace,
    Projector,
    Proposition,
    QuantumBet,
    event_probability,
    payoff,
)

# --- classical random books -------------------------------------------------


def random_space(rng: random.Random, max_atoms: int = 6) -> OutcomeSpace:
    return OutcomeSpace([f"w{i}" for i in range(rng.randint(2, max_atoms))])


def random_joint(rng: random.Random, space: OutcomeSpace) -> list[Fraction]:
    """A strictly positive rational distribution over the atoms."""
    weights = [rng.randint(1, 9) for _ in space.atoms]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_proposition(
    rng: random.Random, space: OutcomeSpace, nonempty: bool = False
) -> Proposition:
    while True:
        members = frozenset(i for i in range(len(space)) if rng.random() < 0.5)
        if members or not nonempty:
            return Proposition(space, members)


def coherent_book(
    rng: random.Random,
    space: OutcomeSpace,
    joint: list[Fraction],
    n_bets: int,
) -> Book:
    """A book whose quotients all equal the joint's conditional probabilities."""
    bets = []
    for _ in range(n_bets):
        condition = random_proposition(rng, space, nonempty=True)
        target = random_proposition(rng, space)
        p_cond = event_probability(space, joint, condition)
        p_both = event_probability(space, joint, target & condition)
        stake = Fraction(rng.randint(-3, 3) or 1)
        bets.append(ConditionalBet(target, condition, p_both / p_cond, stake))
    return Book(space, bets)


def violating_book(
    rng: random.Random,
    space: OutcomeSpace,
    joint: list[Fraction],
    n_extra_bets: int,
) -> Book:
    """A pinned-down book with one axiom violation of magnitude >= 1/100.

    Outright bets on every atom pin the only consistent belief state to the
    joint itself; perturbing any single quotient then leaves no consistent
    assignment at all, so a Dutch book must exist.  The perturbation is
    scaled by 1/q(condition) so the multiplication-law residual
    q(target & condition) - q'(target|condition) q(condition) has magnitude
    at least 1/100.
    """
    base = coherent_book(rng, space, joint, n_extra_bets)
    pins = [
        ConditionalBet.outright(space.atom(name), joint[i])
        for i, name in enumerate(space.atoms)
    ]
    bets = list(base.bets) + pins
    index = rng.randrange(len(bets))
    bet = bets[index]
    residual = Fraction(rng.randint(1, 25), 100) * rng.choice((1, -1))
    p_cond = event_probability(space, joint, bet.condition)
    bets[index] = ConditionalBet(
        bet.target, bet.condition, bet.quotient + residual / p_cond, bet.stake
    )
    return Book(space, bets)


# --- brute-force payoff oracles ------------------------------------------------
#
# The library computes expected payoffs as per-bet sums (linearity of
# expectation).  These enumerate the outcome combinations literally, so they
# check that sum by an independent route; their cost is exponential in the
# number of bets, so keep books small.


def word_joint_average(book: Book, joint: list[Fraction]) -> Fraction:
    """Expected payoff over the book's atoms: sum_a P(a) payoff(a)."""
    return sum(
        (p * payoff(book, atom) for atom, p in zip(book.space.atoms, joint)),
        Fraction(0),
    )


def product_joint_average(book: Book, joint: list[Fraction]) -> Fraction:
    """Expected payoff over all 3**bets win / lose / called-off words, each
    weighted by the product of its per-bet probabilities."""
    branches = []
    for bet in book.bets:
        p_cond = event_probability(book.space, joint, bet.condition)
        p_win = event_probability(book.space, joint, bet.target & bet.condition)
        branches.append(
            (
                (p_win, (1 - bet.quotient) * bet.stake),
                (p_cond - p_win, -bet.quotient * bet.stake),
                (1 - p_cond, Fraction(0)),
            )
        )
    return sum(
        (
            math.prod((p for p, _ in word), start=Fraction(1)) * sum(g for _, g in word)
            for word in itertools.product(*branches)
        ),
        Fraction(0),
    )


def enumerated_quantum_average(book: list[QuantumBet], rho: DensityOperator) -> float:
    """State-averaged payoff over all 4**bets outcome combinations.

    A combination fixes, for every bet, whether its condition and its target
    were observed true; its probability is the product over bets of
    tr(Q' rho Q' P') with P', Q' the projector or its negation as observed.
    """
    probs = np.array([1.0])
    gains = np.array([0.0])
    for bet in book:
        eye = np.eye(bet.target.dim)
        p_m, q_m = bet.target.matrix, bet.condition.matrix
        qrq = q_m @ rho.matrix @ q_m
        nqrnq = (eye - q_m) @ rho.matrix @ (eye - q_m)
        p_win = np.trace(qrq @ p_m).real
        p_lose = np.trace(qrq @ (eye - p_m)).real
        quotient = p_win / (p_win + p_lose) if bet.quotient is None else bet.quotient
        bet_probs = [p_win, p_lose, np.trace(nqrnq @ p_m).real, np.trace(nqrnq @ (eye - p_m)).real]
        bet_gains = [(1.0 - quotient) * bet.stake, -quotient * bet.stake, 0.0, 0.0]
        probs = np.multiply.outer(probs, bet_probs).ravel()
        gains = np.add.outer(gains, bet_gains).ravel()
    return float(probs @ gains)


# --- quantum randomizers ------------------------------------------------------


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_projector(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> Projector:
    u = haar_unitary(rng, dim)
    r = int(rng.integers(1, dim)) if rank is None else rank
    cols = u[:, :r]
    return Projector(cols @ cols.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def commuting_pair(
    rng: np.random.Generator, dim: int, orthogonal: bool = False
) -> tuple[Projector, Projector]:
    """Two projectors sharing an eigenbasis; optionally with disjoint support."""
    u = haar_unitary(rng, dim)
    labels = rng.integers(0, 3, size=dim)  # 0: P only, 1: Q only, 2: both/neither
    p_idx = labels == 0
    q_idx = labels == 1
    if not orthogonal:
        both = labels == 2
        p_idx = p_idx | both
        q_idx = q_idx | both
    p_cols = u[:, p_idx]
    q_cols = u[:, q_idx]
    return (
        Projector(p_cols @ p_cols.conj().T),
        Projector(q_cols @ q_cols.conj().T),
    )


# --- symbolic quadrature oracles ---------------------------------------------


def oracle_run_probability(measure: Measure, n: int, k: int) -> Fraction:
    """Exact run probability by symbolic integration (independent of qdutch).

    Integrates q**k (1-q)**(n-k) with q = lam*t + (1-lam)*(1-t) over the
    measure's eigenvalue density and uniform t.  Keep n small: symbolic
    integration cost grows quickly.
    """
    return _oracle_mean(measure, lambda q: q**k * (1 - q) ** (n - k))


def oracle_x_moment(measure: Measure, j: int) -> Fraction:
    """E[(1 - 2q)**j] by the same symbolic integration as the run probability."""
    return _oracle_mean(measure, lambda q: (1 - 2 * q) ** j)


def _oracle_mean(measure: Measure, polynomial) -> Fraction:
    """E[polynomial(q)] under the measure, as an exact rational.

    q = lam*t + (1-lam)*(1-t) is a sympy polynomial in t and lam, and each
    integral over [0, 1] is a polynomial antiderivative.  The Bures branch
    integrates t first and then each monomial in lam against the arcsine
    weight, with sympy's Beta.
    """
    import sympy as sp

    lam, t = sp.symbols("lam t")
    integrand = polynomial(sp.Poly(lam * t + (1 - lam) * (1 - t), t, lam))
    over_t = integrand.integrate(t)
    in_lam = over_t.eval(t, 1) - over_t.eval(t, 0)
    if measure is Measure.PURE_UNIFORM:
        value = in_lam.eval(1)
    elif measure is Measure.FLAT:
        over_lam = in_lam.integrate()
        value = over_lam.eval(1) - over_lam.eval(0)
    else:
        # The density is (2/pi) (2 lam - 1)**2 times the arcsine weight
        # 1/sqrt(lam (1 - lam)), whose moment of lam**a is B(a + 1/2, 1/2).
        poly = sp.Poly(2 * (2 * lam - 1) ** 2, lam) * in_lam
        half = sp.Rational(1, 2)
        value = sum(
            (c * sp.beta(a + half, half).rewrite(sp.gamma) / sp.pi for (a,), c in poly.terms()),
            sp.Integer(0),
        )
    rational = sp.nsimplify(value, rational=True)
    return Fraction(int(rational.p), int(rational.q))


def oracle_beta(a: Fraction, b: Fraction):
    """Euler Beta via sympy's Gamma, as an exact sympy expression."""
    import sympy as sp

    a_s = sp.Rational(a.numerator, a.denominator)
    b_s = sp.Rational(b.numerator, b.denominator)
    return sp.simplify(sp.beta(a_s, b_s).rewrite(sp.gamma))


# --- eigenvalue-moment oracle -------------------------------------------------


def convolution_sigmas(measure: Measure, j_max: int) -> list[Fraction]:
    """Symmetrized eigenvalue moments sigma_0 .. sigma_j_max by convolution.

    sigma_j = sum_{a+b=j} E[lam**a (1-lam)**b] from the measure's Beta-type
    moments: a! b! / (j+1)! for the flat measure, and for the Bures measure
    8 ((2a-j)**2 + j + 1) (2a)!/a! (2b)!/b! / (4**(j+1) (j+2)!).  O(j) work
    per moment, independent of the library's one-step recurrences.
    """
    fact = [math.factorial(i) for i in range(2 * j_max + 3)]
    if measure is Measure.FLAT:
        return [
            Fraction(sum(fact[a] * fact[j - a] for a in range(j + 1)), fact[j + 1])
            for j in range(j_max + 1)
        ]
    ratios = [fact[2 * i] // fact[i] for i in range(j_max + 1)]  # (2i)!/i!
    return [
        Fraction(
            8 * sum(((2 * a - j) ** 2 + j + 1) * ratios[a] * ratios[j - a] for a in range(j + 1)),
            4 ** (j + 1) * fact[j + 2],
        )
        for j in range(j_max + 1)
    ]


# --- Fraction simplex oracle --------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_simplex_stakes(
    rows: Sequence[Sequence[Fraction]],
) -> Optional[list[Fraction]]:
    """Return S with row . S <= -1 for every row, or None if none exists.

    The reference route for `qdutch.feasibility.stakes_forcing_sure_loss`:
    the same phase-1 simplex and Bland's rule, with every step done in
    `fractions.Fraction`.

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
    n_real = 2 * n_bets + n_rows
    n_cols = n_real + n_rows
    tableau: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        line = [_ZERO] * (n_cols + 1)
        for j, g in enumerate(row):
            line[j] = -Fraction(g)
            line[n_bets + j] = Fraction(g)
        line[2 * n_bets + i] = -_ONE          # slack
        line[n_real + i] = _ONE               # artificial
        line[n_cols] = _ONE                   # rhs
        tableau.append(line)
    basis = [n_real + i for i in range(n_rows)]

    # Phase-1 objective: minimize the artificial sum.  With the artificial
    # basis, the reduced-cost row for real columns is the column sum.
    obj = [_ZERO] * (n_cols + 1)
    for line in tableau:
        for j in range(n_real):
            obj[j] += line[j]
        obj[n_cols] += line[n_cols]

    while True:
        pivot_col = -1
        for j in range(n_cols):
            if obj[j] > 0:                    # Bland: first improving column
                pivot_col = j
                break
        if pivot_col < 0:
            break
        pivot_row = -1
        best = None
        for i, line in enumerate(tableau):
            coef = line[pivot_col]
            if coef > 0:
                ratio = line[n_cols] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[pivot_row])
                ):
                    best = ratio
                    pivot_row = i
        if pivot_row < 0:
            # Unbounded increase of a phase-1 column cannot happen with the
            # artificial sum bounded below by zero.
            raise RuntimeError("phase-1 simplex lost boundedness")
        _pivot(tableau, obj, basis, pivot_row, pivot_col, n_cols)

    if obj[n_cols] != 0:
        return None                           # artificial residue: infeasible

    values = [_ZERO] * n_cols
    for i, var in enumerate(basis):
        values[var] = tableau[i][n_cols]
    return [values[j] - values[n_bets + j] for j in range(n_bets)]


def _pivot(tableau, obj, basis, pivot_row, pivot_col, rhs_col) -> None:
    pivot_line = tableau[pivot_row]
    inv = _ONE / pivot_line[pivot_col]
    for j in range(rhs_col + 1):
        pivot_line[j] *= inv
    for line in tableau:
        if line is pivot_line:
            continue
        factor = line[pivot_col]
        if factor != 0:
            for j in range(rhs_col + 1):
                if pivot_line[j] != 0:
                    line[j] -= factor * pivot_line[j]
    factor = obj[pivot_col]
    if factor != 0:
        for j in range(rhs_col + 1):
            if pivot_line[j] != 0:
                obj[j] -= factor * pivot_line[j]
    basis[pivot_row] = pivot_col


# --- subprocess runs ----------------------------------------------------------

def fresh_python(*args: str) -> str:
    """Run a fresh interpreter on this checkout's sources; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout
