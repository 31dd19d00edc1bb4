"""Seeded Monte Carlo oracle: sampling laws, estimators, determinism."""

import numpy as np
import pytest

from qdutch import (
    Measure,
    RunSpec,
    SampleConfig,
    UnstableRatioWarning,
    compare_exact_vs_mc,
    draw_samples,
    estimate_run_probability,
    estimate_succession,
    run_probability,
)
from qdutch.montecarlo import CHUNK, _sample_arrays
from helpers import fresh_python

N_BIG = 400_000


def config(measure, **kw):
    kw.setdefault("seed", 42)
    kw.setdefault("samples", N_BIG)
    return SampleConfig(measure=measure, **kw)


class TestSampling:
    def test_pure_measure_only_draws_pure_states(self):
        batch = draw_samples(config(Measure.PURE_UNIFORM, samples=10_000))
        assert np.all(batch.lambda1 == 1.0)

    def test_eigenvalues_live_in_the_upper_half(self):
        for measure in (Measure.FLAT, Measure.BURES):
            batch = draw_samples(config(measure, samples=50_000))
            assert np.all(batch.lambda1 >= 0.5)
            assert np.all(batch.lambda1 <= 1.0)
            assert np.all((batch.t >= 0) & (batch.t <= 1))

    def test_flat_eigenvalue_mean(self):
        # max of a uniform pair has mean 3/4
        batch = draw_samples(config(Measure.FLAT))
        se = batch.lambda1.std(ddof=1) / np.sqrt(len(batch))
        assert abs(batch.lambda1.mean() - 0.75) < 3 * se

    def test_bures_purity_moment(self):
        # E[lam**2 + (1-lam)**2] = 7/16 + 7/16 for the Bures eigenvalue law
        batch = draw_samples(config(Measure.BURES))
        purity = batch.lambda1**2 + (1.0 - batch.lambda1) ** 2
        se = purity.std(ddof=1) / np.sqrt(len(batch))
        assert abs(purity.mean() - 7 / 8) < 3 * se

    def test_bures_rejection_acceptance_rate(self):
        batch = draw_samples(config(Measure.BURES))
        rate = batch.acceptance_rate
        se = 0.5 / np.sqrt(batch.proposals)
        assert abs(rate - 0.5) < 3 * se

    def test_success_probability_stays_in_range(self):
        for measure in Measure:
            batch = draw_samples(config(measure, samples=20_000))
            q = batch.success_probability
            assert np.all((q >= 0) & (q <= 1))

    def test_single_draw(self):
        batch = draw_samples(config(Measure.BURES, samples=1))
        assert len(batch) == 1
        assert 0.5 <= batch.lambda1[0] <= 1.0
        assert 0.0 <= batch.t[0] <= 1.0
        assert 0.0 <= batch.success_probability[0] <= 1.0


class TestDeterminism:
    def test_identical_configs_are_bit_identical(self):
        a = draw_samples(config(Measure.BURES, samples=30_000))
        b = draw_samples(config(Measure.BURES, samples=30_000))
        assert np.array_equal(a.lambda1, b.lambda1)
        assert np.array_equal(a.t, b.t)

    def test_chunks_are_seeded_substreams_in_order(self):
        cfg = config(Measure.BURES, samples=2 * CHUNK + 5)
        sizes = (CHUNK, CHUNK, 5)
        chunks = [
            _sample_arrays(cfg.measure, np.random.default_rng([cfg.seed, c]), size)
            for c, size in enumerate(sizes)
        ]
        batch = draw_samples(cfg)
        assert np.array_equal(batch.lambda1, np.concatenate([lam1 for lam1, _, _ in chunks]))
        assert np.array_equal(batch.t, np.concatenate([t for _, t, _ in chunks]))
        assert batch.proposals == sum(proposals for _, _, proposals in chunks)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_grid_call_equals_single_spec_calls(self, measure):
        # three chunks; every spec's sums are reduced from the same stream
        cfg = config(measure, samples=2 * CHUNK + 5)
        grid = [RunSpec(n, k) for n in range(4) for k in range(n + 1)]
        singles = [compare_exact_vs_mc(cfg, [spec])[0] for spec in grid]
        assert compare_exact_vs_mc(cfg, grid) == singles

    def test_definetti_verify_output_is_identical_across_interpreters(self):
        argv = ("-m", "qdutch", "definetti-verify", "--nmax", "2", "--samples", "300000")
        first = fresh_python(*argv)
        assert first.endswith("# 18/18 comparisons passed at 4 sigma\n")
        assert fresh_python(*argv) == first

    def test_different_seeds_differ(self):
        a = draw_samples(config(Measure.FLAT, samples=1_000, seed=1))
        b = draw_samples(config(Measure.FLAT, samples=1_000, seed=2))
        assert not np.array_equal(a.lambda1, b.lambda1)


class TestEstimators:
    @pytest.mark.parametrize(
        "measure,n,k",
        [(Measure.FLAT, 2, 2), (Measure.BURES, 2, 2), (Measure.PURE_UNIFORM, 3, 1)],
    )
    def test_run_probability_estimates_hit_the_exact_value(self, measure, n, k):
        cfg = config(measure)
        [(estimate, se)] = estimate_run_probability(cfg, [RunSpec(n, k)])
        exact = float(run_probability(measure, RunSpec(n, k)))
        assert se > 0
        assert abs(estimate - exact) < 3 * se

    @pytest.mark.parametrize(
        "measure,n,k,expected",
        [
            (Measure.FLAT, 1, 1, 5 / 9),
            (Measure.BURES, 1, 1, 5 / 8),
            (Measure.PURE_UNIFORM, 10, 3, 1 / 3),
        ],
    )
    def test_succession_estimates_hit_the_exact_value(self, measure, n, k, expected):
        estimate, se = estimate_succession(config(measure), RunSpec(n, k))
        assert abs(estimate - expected) < 3 * se

    def test_shared_sample_ratio_beats_naive_error(self):
        # numerator and denominator are positively correlated, so the delta
        # method error is far below the naive uncorrelated combination
        cfg = config(Measure.FLAT)
        est, se = estimate_succession(cfg, RunSpec(1, 1))
        (num, se_num), (den, se_den) = estimate_run_probability(cfg, [RunSpec(2, 2), RunSpec(1, 1)])
        naive = est * np.hypot(se_num / num, se_den / den)
        assert se < naive
        # the ratio is taken on the same stream as the run estimates
        assert est == num / den

    def test_sample_floors(self):
        with pytest.raises(ValueError):
            estimate_run_probability(config(Measure.FLAT, samples=99), [RunSpec(1, 1)])
        with pytest.raises(ValueError):
            estimate_succession(config(Measure.FLAT, samples=999), RunSpec(1, 1))

    def test_unstable_ratio_warns(self):
        # a 200-success run has a tiny denominator at N=1000
        cfg = config(Measure.PURE_UNIFORM, samples=1000)
        with pytest.warns(UnstableRatioWarning):
            estimate_succession(cfg, RunSpec(200, 200))


class TestComparisonReport:
    def test_grid_cases_pass_at_four_sigma(self):
        for measure, n, k in [
            (Measure.FLAT, 2, 2),
            (Measure.BURES, 2, 2),
            (Measure.PURE_UNIFORM, 4, 2),
        ]:
            [report] = compare_exact_vs_mc(config(measure), [RunSpec(n, k)])
            assert report.passed and report.z <= 4

    def test_report_serialization(self):
        [report] = compare_exact_vs_mc(config(Measure.FLAT, samples=10_000), [RunSpec(1, 1)])
        doc = report.as_dict()
        assert doc["measure"] == "flat"
        assert doc["exact"] == "1/2"
        assert set(doc) == {"measure", "n", "k", "exact", "estimate", "stderr", "z", "pass"}

    def test_degenerate_zero_error_case(self):
        [report] = compare_exact_vs_mc(config(Measure.FLAT, samples=200), [RunSpec(0, 0)])
        assert report.stderr == 0.0 and report.z == 0.0 and report.passed


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SampleConfig(Measure.FLAT, samples=0)
        with pytest.raises(ValueError):
            SampleConfig(Measure.FLAT, seed=-1)
        with pytest.raises(ValueError):
            SampleConfig(Measure.FLAT, seed=2**64)
