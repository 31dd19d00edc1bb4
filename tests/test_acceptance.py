"""Acceptance suite: one test per shipping criterion, run at its stated
tolerance and time budget, printing one PASS/FAIL line each.

Every expected value here is either exact by construction (rational
identities, frozen quadrature-oracle anchors) or a statistical contract
with an explicit sigma threshold and a pinned seed.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qdutch import (
    Measure,
    QuantumBet,
    RunSpec,
    SampleConfig,
    average_payoff_product_joint,
    born,
    classical_predictive,
    compare_exact_vs_mc,
    conditional,
    correction_term,
    distribution_over_k,
    find_dutch_book,
    laplace_succession,
    luders_update,
    payoff,
    quantum_average_payoff,
    succession,
    succession_table,
)
from qdutch.quantum import Projector
from helpers import (
    coherent_book,
    random_density,
    random_joint,
    random_projector,
    random_space,
    violating_book,
)

F = Fraction


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s of {budget:.0f}s budget){extra}")


def test_criterion_1_classical_laplace_law():
    """laplace(n,k) = (k+1)/(n+2) and the predictive ratio identity, exactly,
    for every 0 <= k <= n <= 500, in under a second."""
    start = time.perf_counter()
    ok = True
    row = [classical_predictive(0, 0)]
    for n in range(501):
        nxt = [classical_predictive(n + 1, k) for k in range(n + 2)]
        for k in range(n + 1):
            lap = laplace_succession(n, k)
            ok &= lap == F(k + 1, n + 2)
            # ratio identity in cross-multiplied form (these values have
            # numerator 1, so this is predictive(n+1,k+1)/predictive(n,k) == lap)
            ok &= nxt[k + 1].numerator == 1 and row[k].numerator == 1
            ok &= row[k].denominator * (n + 2) == nxt[k + 1].denominator * (k + 1)
        row = nxt
    for n in range(0, 501, 25):  # direct-division form, spot grid
        for k in range(0, n + 1, 13):
            ok &= classical_predictive(n + 1, k + 1) / classical_predictive(n, k) == laplace_succession(n, k)
    elapsed = time.perf_counter() - start
    report("1 classical Laplace law", ok and elapsed < 1.0, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_pure_measure_collapse():
    """succession under the pure-state measure is exactly the Laplace rule
    for every (n, k) with n <= 200."""
    start = time.perf_counter()
    ok = True
    for n in range(201):
        for k in range(n + 1):
            ok &= succession(Measure.PURE_UNIFORM, RunSpec(n, k)) == F(k + 1, n + 2)
    elapsed = time.perf_counter() - start
    report("2 pure-measure collapse", ok and elapsed < 5.0, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_derived_anchor_values():
    """Correction terms and successions match the quadrature-oracle anchors
    as exact rationals (zero tolerance)."""
    start = time.perf_counter()
    checks = [
        (correction_term(Measure.FLAT, RunSpec(2, 1)), F(4, 3)),
        (correction_term(Measure.FLAT, RunSpec(2, 2)), F(5, 6)),
        (succession(Measure.FLAT, RunSpec(1, 1)), F(5, 9)),
        (correction_term(Measure.BURES, RunSpec(1, 1)), F(1)),
        (correction_term(Measure.BURES, RunSpec(2, 2)), F(15, 16)),
        (succession(Measure.BURES, RunSpec(1, 1)), F(5, 8)),
        (correction_term(Measure.BURES, RunSpec(0, 0)), F(1)),  # normalization
    ]
    ok = all(got == want for got, want in checks)
    elapsed = time.perf_counter() - start
    report("3 derived anchor values", ok, elapsed, 1.0)
    assert ok


#: Leading-order constant of the flat-measure deviation at k/n = 1/5 (see
#: criterion 4): ratio - 1 ~ FLAT_FIFTH_C / n.
FLAT_FIFTH_C = 8 / (3 * math.log(5 / 3))


def test_criterion_4_figure_grid_convergence():
    """Correction-ratio convergence on the k/n grid {1/5, 1/2, 4/5} at
    n = 100 and 400 for flat and Bures: |ratio - 1| < 0.05 at n=100 and
    < 0.01 at n=400, except for the flat measure at k/n = 1/5, where the
    bound is the analytic leading term c/n derived below.

    Every cell also checks that the ``succession_table`` route and the
    independent Krawtchouk sum over even x-moments (``correction_term(n+1,
    k+1) / correction_term(n, k)``) agree exactly, that the ratio is exactly 1 at
    k/n = 1/2, that the deviation decays like 1/n (dev(400) <= dev(100)/3),
    and that the Bures deviation never exceeds the flat one.

    Why c/n at flat k/n = 1/5: under the flat measure the single-trial
    success probability q has density f(q) = -ln|1 - 2q|.  The predictive
    probability is the mean of q under the Beta(k+1, n-k+1) posterior
    tilted by f, so a Laplace expansion around p = k/n gives

        ratio - 1 ~ (1 - p) f'(p) / (f(p) n).

    At p = 1/5, f(p) = ln(5/3) and f'(p) = 10/3, so the leading term is c/n
    with c = 8 / (3 ln(5/3)) = 5.2203...  The exact n*(ratio - 1) is 5.0514
    at n=100 and 5.1742 at n=400: it rises toward c from below, so the true
    deviation sits 3.2% and 0.9% below c/n, while 0.05 and 0.01 lie below
    the leading term itself (0.0522 and 0.01305) and no correct program
    can meet them.  The test asserts that rise as well.
    """
    start = time.perf_counter()
    failures = []
    devs = {}
    for measure in (Measure.FLAT, Measure.BURES):
        for k_fraction in (F(1, 5), F(1, 2), F(4, 5)):
            for n, bound in ((100, F(5, 100)), (400, F(1, 100))):
                cell = f"{measure.value} k/n={k_fraction} n={n}"
                row = succession_table(measure, [n], k_fraction)[0]
                literal = correction_term(measure, RunSpec(n + 1, row.k + 1)) / correction_term(
                    measure, RunSpec(n, row.k)
                )
                if row.correction_ratio != literal:
                    failures.append(f"{cell}: run-probability and correction-term routes disagree")
                dev = devs[measure, k_fraction, n] = abs(row.correction_ratio - 1)
                if measure is Measure.FLAT and k_fraction == F(1, 5):
                    bound = FLAT_FIFTH_C / n
                if not dev < bound:
                    failures.append(f"{cell}: |ratio-1| = {float(dev):.6f} >= {float(bound):.6f}")
                if k_fraction == F(1, 2) and dev != 0:
                    failures.append(f"{cell}: ratio is not exactly 1")
            if not devs[measure, k_fraction, 400] <= devs[measure, k_fraction, 100] / 3:
                failures.append(f"{measure.value} k/n={k_fraction}: no 1/n decay from n=100 to 400")
    scaled = [n * devs[Measure.FLAT, F(1, 5), n] for n in (100, 400)]
    if not scaled[0] < scaled[1] < FLAT_FIFTH_C:
        failures.append(f"flat k/n=1/5: n*|ratio-1| = {[float(x) for x in scaled]} does not rise toward c")
    for (measure, k_fraction, n), dev in devs.items():
        if measure is Measure.BURES and not dev <= devs[Measure.FLAT, k_fraction, n]:
            failures.append(f"bures deviation exceeds flat at k/n={k_fraction}, n={n}")
    elapsed = time.perf_counter() - start
    report(
        "4 figure-grid convergence",
        not failures and elapsed < 30.0,
        elapsed,
        30.0,
        "; ".join(failures),
    )
    assert elapsed < 30.0
    assert not failures, "; ".join(failures)


def test_criterion_5_exact_normalization():
    """sum_k C(n,k) run_probability(n,k) == 1 as a rational identity for all
    three measures and every n <= 200."""
    start = time.perf_counter()
    ok = True
    for measure in Measure:
        for n in range(201):
            ok &= sum(distribution_over_k(measure, n)) == 1
    elapsed = time.perf_counter() - start
    report("5 exact normalization", ok and elapsed < 60.0, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_6_classical_converse_dutch_book():
    """1000 random quotient-consistent books yield no Dutch book and an
    exactly zero product-joint average; 1000 books with one injected axiom
    violation (magnitude >= 1/100) are all caught and verified by payoff
    enumeration."""
    start = time.perf_counter()
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        space = random_space(rng)
        joint = random_joint(rng, space)
        book = coherent_book(rng, space, joint, rng.randint(1, 8))
        ok &= find_dutch_book(book) is None
        ok &= average_payoff_product_joint(book, joint) == 0
    for _ in range(1000):
        space = random_space(rng)
        joint = random_joint(rng, space)
        book = violating_book(rng, space, joint, rng.randint(0, 8))
        stakes = find_dutch_book(book)
        if stakes is None:
            ok = False
            continue
        exploited = book.with_stakes(stakes)
        ok &= all(payoff(exploited, atom) <= -1 for atom in space.atoms)
    elapsed = time.perf_counter() - start
    report("6 classical converse DBA", ok and elapsed < 60.0, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_7_quantum_converse_dutch_book():
    """500 random conditional-projector books with state-derived quotients in
    d = 2..4 have |average payoff| <= 1e-7 * total |stake|."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    ok = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        book = []
        for _ in range(int(rng.integers(1, 7))):
            p = random_projector(rng, d)
            q = random_projector(rng, d)
            stake = float(rng.uniform(-3, 3)) or 1.0
            book.append(QuantumBet(p, q, conditional(rho, p, q), stake))
        total_stake = sum(abs(b.stake) for b in book)
        ok &= abs(quantum_average_payoff(book, rho)) <= 1e-7 * total_stake
    elapsed = time.perf_counter() - start
    report("7 quantum converse DBA", ok and elapsed < 30.0, elapsed, 30.0)
    assert ok
    assert elapsed < 30.0


def test_criterion_8_luders_contracts():
    """Across 10^4 random instances: the updated state is certain about its
    condition, reproduces the conditional quotient under born(), and nested
    projectors obey the Born ratio rule, all within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(1701)
    ok = True
    count = 0
    while count < 10_000:
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        q = random_projector(rng, d)
        if float(np.real(np.trace(rho.matrix @ q.matrix))) < 1e-6:
            continue
        count += 1
        p = random_projector(rng, d)
        updated = luders_update(rho, q)
        ok &= abs(born(updated, q) - 1.0) <= 1e-9
        ok &= abs(born(updated, p) - conditional(rho, p, q)) <= 1e-9
        # nested case: restrict p to a subspace of q's range
        vals, vecs = np.linalg.eigh(q.matrix)
        basis = vecs[:, vals > 0.5]
        sub = int(rng.integers(1, basis.shape[1] + 1))
        nested = Projector(basis[:, :sub] @ basis[:, :sub].conj().T)
        ok &= abs(conditional(rho, nested, q) - born(rho, nested) / born(rho, q)) <= 1e-9
    elapsed = time.perf_counter() - start
    report("8 Luders contracts", ok and elapsed < 10.0, elapsed, 10.0)
    assert ok
    assert elapsed < 10.0


def test_criterion_9_monte_carlo_agreement():
    """compare_exact_vs_mc passes at 4 sigma for every measure and every
    (n, k) with n <= 8, at N = 10^6 samples and a fixed seed."""
    start = time.perf_counter()
    failures = []
    grid = [RunSpec(n, k) for n in range(9) for k in range(n + 1)]
    for measure in Measure:
        config = SampleConfig(measure=measure, seed=42, samples=1_000_000)
        for r in compare_exact_vs_mc(config, grid):
            if not r.passed:
                failures.append(f"{measure.value} ({r.n},{r.k}): z = {r.z:.2f}")
    elapsed = time.perf_counter() - start
    report(
        "9 Monte Carlo agreement",
        not failures and elapsed < 120.0,
        elapsed,
        120.0,
        "; ".join(failures),
    )
    assert not failures, "; ".join(failures)
    assert elapsed < 120.0
