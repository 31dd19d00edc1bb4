"""Exact succession engine: Beta values, correction terms, run probabilities.

Anchor values are frozen from an independent symbolic quadrature oracle
(see helpers.oracle_run_probability); the slow oracle itself is re-run here
only on tiny inputs.
"""

import io
import math
import sys
import threading
from fractions import Fraction

import pytest

from qdutch import (
    CapacityError,
    DEFAULT_N_CAP,
    Measure,
    RunSpec,
    classical_predictive,
    correction_term,
    distribution_over_k,
    laplace_succession,
    run_probability,
    succession,
    succession_row,
    succession_table,
    write_succession_csv,
)
from qdutch import exchangeable
from helpers import convolution_sigmas, oracle_beta, oracle_run_probability, oracle_x_moment

F = Fraction

ALL_MEASURES = list(Measure)


class TestBetaValues:
    # B(a, b) at integer arguments is classical_predictive(a+b-2, a-1)

    def test_integer_beta_values(self):
        assert classical_predictive(0, 0) == 1  # B(1, 1)
        assert classical_predictive(2, 1) == F(1, 6)  # B(2, 2)
        # oracle: integral of (1-p)**2 over [0,1] = B(1, 3)
        assert classical_predictive(2, 0) == F(1, 3)

    def test_integer_beta_against_oracle(self):
        import sympy as sp

        for a in range(1, 6):
            for b in range(1, 6):
                got = classical_predictive(a + b - 2, a - 1)
                assert oracle_beta(F(a), F(b)) == sp.Rational(got.numerator, got.denominator)

    def test_integer_beta_rejects_nonpositive(self):
        # B(0, 1) and B(1, -2) map to negative counts
        with pytest.raises(ValueError):
            classical_predictive(-1, -1)
        with pytest.raises(ValueError):
            classical_predictive(-3, 0)


class TestXMoments:
    def test_against_quadrature_oracle(self):
        # E[(1 - 2q)**j] integrated over the eigenvalue density and the
        # uniform mixing, not through the radius-times-uniform factorization;
        # correction_term sums only the even moments, so the odd ones vanish
        for measure in ALL_MEASURES:
            for m, moment in enumerate(exchangeable._x_moments(measure, 6)):
                assert moment == oracle_x_moment(measure, 2 * m), (measure, m)
                assert oracle_x_moment(measure, 2 * m + 1) == 0, (measure, m)


class TestCorrectionTerm:
    def test_pure_measure_is_identically_one(self):
        for n, k in [(0, 0), (3, 1), (40, 25)]:
            assert correction_term(Measure.PURE_UNIFORM, RunSpec(n, k)) == 1

    def test_flat_anchor_values(self):
        assert correction_term(Measure.FLAT, RunSpec(1, 0)) == 1
        assert correction_term(Measure.FLAT, RunSpec(1, 1)) == 1
        assert correction_term(Measure.FLAT, RunSpec(2, 1)) == F(4, 3)
        assert correction_term(Measure.FLAT, RunSpec(2, 2)) == F(5, 6)

    def test_bures_anchor_values(self):
        assert correction_term(Measure.BURES, RunSpec(0, 0)) == 1  # normalization
        assert correction_term(Measure.BURES, RunSpec(1, 1)) == 1
        assert correction_term(Measure.BURES, RunSpec(2, 2)) == F(15, 16)

    def test_against_quadrature_oracle(self):
        # the frozen anchors above cover n = 2; the live symbolic oracle is
        # kept to small n (symbolic integration cost grows quickly)
        grids = {Measure.FLAT: 3, Measure.BURES: 3}
        for measure, n_max in grids.items():
            for n in range(0, n_max + 1):
                for k in range(n + 1):
                    expected = oracle_run_probability(measure, n, k) / classical_predictive(n, k)
                    assert correction_term(measure, RunSpec(n, k)) == expected

    def test_symmetry_under_success_failure_swap(self):
        for measure in (Measure.FLAT, Measure.BURES):
            for n in range(8):
                for k in range(n + 1):
                    assert correction_term(measure, RunSpec(n, k)) == correction_term(
                        measure, RunSpec(n, n - k)
                    )

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            correction_term(Measure.FLAT, RunSpec(2001, 5))
        # the cap is the module constant; it trips before any work is done
        with pytest.raises(CapacityError):
            correction_term(Measure.FLAT, RunSpec(DEFAULT_N_CAP + 1, 5))


class TestMomentRecurrences:
    # j <= 600 keeps the O(j**2) oracle near a second; the library reaches
    # the cap in a fraction of that
    def test_recurrences_equal_the_convolution(self):
        # E[q**j] = sigma_j / (j + 1): the flat sigma step and the Bures
        # Beta(3/2, 3/2) step against the eigenvalue moments of each density;
        # pure q is uniform
        expected = {
            measure: [sigma / (j + 1) for j, sigma in enumerate(convolution_sigmas(measure, 600))]
            for measure in (Measure.FLAT, Measure.BURES)
        }
        expected[Measure.PURE_UNIFORM] = [F(1, j + 1) for j in range(601)]
        for measure, moments in expected.items():
            denom, numerators = exchangeable._q_moments(measure, 600)
            assert [F(p, denom) for p in numerators[:601]] == moments, measure
            if measure is not Measure.BURES:
                # P(m, m) = E[q**m]
                assert [run_probability(measure, RunSpec(m, m)) for m in range(601)] == moments, measure

    def test_bures_closed_form_diagonal_equals_the_convolution(self):
        # P(m, m) = E[q**m] = sigma_m / (m + 1): the Bures q-moment table
        # read through run_probability against the eigenvalue moments of
        # the Bures density
        sigmas = convolution_sigmas(Measure.BURES, 600)
        for m, sigma in enumerate(sigmas):
            assert run_probability(Measure.BURES, RunSpec(m, m)) == sigma / (m + 1), m


class TestRunProbability:
    def test_anchor_values(self):
        assert run_probability(Measure.PURE_UNIFORM, RunSpec(2, 1)) == F(1, 6)
        assert run_probability(Measure.FLAT, RunSpec(2, 1)) == F(2, 9)
        assert run_probability(Measure.FLAT, RunSpec(2, 2)) == F(5, 18)
        assert run_probability(Measure.BURES, RunSpec(1, 1)) == F(1, 2)
        assert run_probability(Measure.BURES, RunSpec(2, 2)) == F(5, 16)

    def test_pure_measure_reduces_to_integer_beta(self):
        for n in range(0, 12):
            for k in range(n + 1):
                assert run_probability(Measure.PURE_UNIFORM, RunSpec(n, k)) == classical_predictive(n, k)

    def test_agrees_with_correction_term_route(self):
        # the sigma recurrence or Beta closed form and the Krawtchouk sum over
        # even x-moments are algebraically equal
        for measure in ALL_MEASURES:
            for n in range(0, 26):
                for k in range(n + 1):
                    spec = RunSpec(n, k)
                    expected = classical_predictive(n, k) * correction_term(measure, spec)
                    assert run_probability(measure, spec) == expected, (measure, n, k)

    def test_agrees_with_correction_term_route_at_the_cap(self):
        # n = 1999 is the largest n whose succession is defined
        n = DEFAULT_N_CAP - 1
        for measure in (Measure.FLAT, Measure.BURES):
            for k in (0, 400, 1000, n):
                spec = RunSpec(n, k)
                expected = classical_predictive(n, k) * correction_term(measure, spec)
                assert run_probability(measure, spec) == expected, (measure, k)

    def test_values_lie_in_the_unit_interval(self):
        for measure in ALL_MEASURES:
            for n in (0, 1, 5, 23):
                for k in range(n + 1):
                    value = run_probability(measure, RunSpec(n, k))
                    assert 0 < value <= 1

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            run_probability(Measure.FLAT, RunSpec(2001, 0))


class TestSuccession:
    def test_pure_measure_collapses_to_laplace(self):
        for n in (0, 1, 7, 30, 101):
            for k in (0, n // 3, n):
                assert succession(Measure.PURE_UNIFORM, RunSpec(n, k)) == laplace_succession(n, k)

    def test_anchor_values(self):
        assert succession(Measure.FLAT, RunSpec(1, 1)) == F(5, 9)
        assert succession(Measure.BURES, RunSpec(1, 1)) == F(5, 8)

    def test_bures_is_laplace_with_pseudo_count_three_halves(self):
        # q ~ Beta(3/2, 3/2) under the Bures measure
        for n, k in [(100, 20), (400, 80), (1500, 1499), (1999, 400)]:
            assert succession(Measure.BURES, RunSpec(n, k)) == F(2 * k + 3, 2 * (n + 3))

    def test_equals_laplace_times_correction_ratio(self):
        for measure in ALL_MEASURES:
            for n, k in [(0, 0), (3, 2), (9, 4), (17, 17)]:
                spec = RunSpec(n, k)
                lhs = succession(measure, spec)
                rhs = laplace_succession(n, k) * (
                    correction_term(measure, RunSpec(n + 1, k + 1))
                    / correction_term(measure, spec)
                )
                assert lhs == rhs

    def test_predictive_normalization(self):
        # success and failure branches exhaust the next trial, exactly
        for measure in ALL_MEASURES:
            for n in range(0, 41):
                for k in range(n + 1):
                    spec = RunSpec(n, k)
                    p_n = run_probability(measure, spec)
                    fail_branch = run_probability(measure, RunSpec(n + 1, k)) / p_n
                    assert succession(measure, spec) + fail_branch == 1

    def test_predictive_normalization_large_n(self):
        # spot-checked k per n keeps the sweep fast at the n <= 200 scale
        for measure in ALL_MEASURES:
            for n in range(0, 201, 1):
                ks = {k for k in (0, 1, n // 2, n - 1, n) if 0 <= k <= n}
                for k in ks:
                    spec = RunSpec(n, k)
                    total = succession(measure, spec) + run_probability(
                        measure, RunSpec(n + 1, k)
                    ) / run_probability(measure, spec)
                    assert total == 1

    def test_symmetric_point_reproduces_laplace_exactly(self):
        # at k = n/2 the success and failure branches coincide by symmetry
        for measure in ALL_MEASURES:
            for n in (2, 10, 36):
                assert succession(measure, RunSpec(n, n // 2)) == F(1, 2)


class TestDistributionOverK:
    def test_pure_measure_is_uniform(self):
        for n in (0, 1, 4, 19):
            assert distribution_over_k(Measure.PURE_UNIFORM, n) == [F(1, n + 1)] * (n + 1)

    def test_flat_two_trials(self):
        assert distribution_over_k(Measure.FLAT, 2) == [F(5, 18), F(4, 9), F(5, 18)]

    def test_zero_trials(self):
        for measure in ALL_MEASURES:
            assert distribution_over_k(measure, 0) == [F(1)]

    def test_exact_normalization(self):
        for measure in ALL_MEASURES:
            for n in range(0, 61):
                assert sum(distribution_over_k(measure, n)) == 1

    def test_entries_equal_binomial_times_run_probability(self):
        # the row recurrence against the per-cell alternating sum, entry by entry
        for measure in ALL_MEASURES:
            for n in (0, 1, 2, 7, 50, 201):
                assert distribution_over_k(measure, n) == [
                    math.comb(n, k) * run_probability(measure, RunSpec(n, k))
                    for k in range(n + 1)
                ], (measure, n)

    def test_entries_agree_with_correction_term_route(self):
        # C(n, k) times the pure run probability is 1/(n + 1), so entry k is
        # the Krawtchouk route's correction term over n + 1; the row
        # recurrence and run_probability both read the q-moment table
        for measure in ALL_MEASURES:
            row = distribution_over_k(measure, 200)
            for k, entry in enumerate(row):
                assert entry == correction_term(measure, RunSpec(200, k)) / 201, (measure, k)
        for measure in (Measure.FLAT, Measure.BURES):
            row = distribution_over_k(measure, DEFAULT_N_CAP)
            for k in (0, 400, 1000, 2000):
                expected = correction_term(measure, RunSpec(DEFAULT_N_CAP, k)) / (DEFAULT_N_CAP + 1)
                assert row[k] == expected, (measure, k)

    def test_entries_nonnegative(self):
        for measure in ALL_MEASURES:
            for value in distribution_over_k(measure, 17):
                assert value >= 0


class TestSuccessionTable:
    def test_pure_rows_have_unit_ratio(self):
        rows = succession_table(Measure.PURE_UNIFORM, [1, 10, 100], F(1, 2))
        for row in rows:
            assert row.correction_ratio == 1

    def test_flat_and_bures_anchor_rows(self):
        row = succession_table(Measure.FLAT, [1], F(0))[0]
        assert (row.n, row.k) == (1, 0)
        assert row.correction_ratio == F(4, 3)  # I(2,1)/I(1,0)
        row = succession_table(Measure.BURES, [1], F(1))[0]
        assert row.correction_ratio == F(15, 16)  # I(2,2)/I(1,1)

    def test_rounding_convention_is_half_up(self):
        rows = succession_table(Measure.FLAT, [1, 2, 3], F(1, 2))
        assert [r.k for r in rows] == [1, 1, 2]

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            succession_table(Measure.FLAT, [4], F(3, 2))

    def test_k_fraction_is_exact(self):
        # 0.15 is 0.1499999... as a float, which would round k = 1.5 down to 1
        with pytest.raises(TypeError):
            succession_table(Measure.FLAT, [10], 0.15)
        assert succession_table(Measure.FLAT, [10], "3/20")[0].k == 2
        assert succession_table(Measure.FLAT, [10], F(3, 20))[0].k == 2

    def test_csv_output(self):
        buf = io.StringIO()
        write_succession_csv(succession_table(Measure.PURE_UNIFORM, [2], F(1, 2)), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == (
            "measure,n,k,correction_ratio_exact,correction_ratio_decimal,"
            "succession_decimal,laplace_decimal"
        )
        assert lines[1].startswith("pure,2,1,1/1,1,0.5,0.5")

    def test_correction_ratio_matches_row(self):
        spec = RunSpec(6, 2)
        for measure in ALL_MEASURES:
            assert succession_row(measure, spec).correction_ratio == correction_term(
                measure, RunSpec(7, 3)
            ) / correction_term(measure, spec)


class TestConvergenceInvariants:
    """The correction ratio approaches 1 as n grows at fixed k/n.

    Only the limit is guaranteed in principle; the grid checks below are a
    deliberate strengthening.  The strengthened small-n bound (deviation
    below 0.05 at n=100) is *false* for the flat measure at k/n <= 1/5: the
    exact deviations there are 0.0922... (k/n=1/10) and 0.050514...
    (k/n=1/5).  The flat deviation decays like c/n with the leading term
    c = (1-p) f'(p) / f(p) of the density f(q) = -ln|1-2q| of the success
    probability; at k/n = 1/5, c = 8/(3 ln(5/3)) = 5.2203... > 5.05.
    Acceptance criterion 4 (``test_criterion_4_figure_grid_convergence``)
    uses that c/n as its bound there; this test pins the true behavior.
    """

    GRID = [F(num, 10) for num in range(1, 10)]
    N_STEPS = (10, 20, 40, 80, 160)

    @staticmethod
    def _deviation(measure, n, k_fraction):
        row = succession_table(measure, [n], k_fraction)[0]
        return abs(row.correction_ratio - 1)

    def test_deviation_decreases_along_doubling_n(self):
        for measure in (Measure.FLAT, Measure.BURES):
            for k_fraction in self.GRID:
                devs = [self._deviation(measure, n, k_fraction) for n in self.N_STEPS]
                for earlier, later in zip(devs, devs[1:]):
                    assert later < earlier or earlier == later == 0

    def test_deviation_bound_at_n_100(self):
        for k_fraction in self.GRID:
            flat = self._deviation(Measure.FLAT, 100, k_fraction)
            bures = self._deviation(Measure.BURES, 100, k_fraction)
            assert bures < F(5, 100)
            if k_fraction > F(1, 5):
                assert flat < F(5, 100)
            elif k_fraction == F(1, 5):
                assert F(50514, 10**6) < flat < F(50515, 10**6)

    def test_bures_stays_closer_to_the_laplace_rule(self):
        for k_fraction in self.GRID:
            for n in self.N_STEPS + (100,):
                assert self._deviation(Measure.BURES, n, k_fraction) <= self._deviation(
                    Measure.FLAT, n, k_fraction
                )


class TestRunSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            RunSpec(3, 4)
        with pytest.raises(ValueError):
            RunSpec(-1, 0)
        with pytest.raises(ValueError):
            RunSpec(1, -1)


class TestMeasureValidation:
    def test_measure_given_as_a_string_is_rejected(self):
        # "bures" once took the flat branch of run_probability, "flat" the
        # Bures branch of correction_term and of the sampler
        from qdutch.montecarlo import SampleConfig

        for name in ("pure", "flat", "bures"):
            for call in (
                lambda: run_probability(name, RunSpec(2, 2)),
                lambda: distribution_over_k(name, 2),
                lambda: succession(name, RunSpec(3, 1)),
                lambda: correction_term(name, RunSpec(2, 2)),
                lambda: SampleConfig(name),
            ):
                with pytest.raises(TypeError):
                    call()


class TestConcurrency:
    SPECS = (RunSpec(400, 123), RunSpec(600, 17))
    MEASURES = (Measure.FLAT, Measure.BURES)

    def _cold_caches(self, monkeypatch):
        # the q-moment tables are the only cache in the module
        monkeypatch.setattr(exchangeable, "_moment_tables", {})

    def test_concurrent_probability_calls_agree_with_serial(self, monkeypatch):
        self._cold_caches(monkeypatch)
        serial = {
            (measure, spec): run_probability(measure, spec)
            for measure in self.MEASURES
            for spec in self.SPECS
        }
        results = []

        def work(key, barrier):
            barrier.wait()
            results.append((key, run_probability(*key)))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so fills interleave
        try:
            for _ in range(5):  # each round races on freshly reset tables
                self._cold_caches(monkeypatch)
                barrier = threading.Barrier(8, timeout=60)
                keys = list(serial)
                threads = [
                    threading.Thread(target=work, args=(keys[i % len(keys)], barrier))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert len(results) == 40
        assert all(value == serial[key] for key, value in results)

    def test_reads_during_growth_see_a_whole_table(self, monkeypatch):
        # a reader summing numerators over D while the table grows must never
        # mix numerators rescaled to the new D with the old D
        self._cold_caches(monkeypatch)
        spec = RunSpec(40, 9)
        expected = run_probability(Measure.BURES, spec)
        done = threading.Event()
        reads = []

        def read():
            while not done.is_set():
                reads.append(run_probability(Measure.BURES, spec))

        def grow():
            for n in range(41, 400):
                run_probability(Measure.BURES, RunSpec(n, n))
            done.set()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)] + [threading.Thread(target=grow)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert reads and all(value == expected for value in reads)
