"""Seeded Monte Carlo cross-check of the exact succession engine.

States are sampled per measure in the only two coordinates that matter for
a fixed projective yes/no measurement: the larger eigenvalue ``lambda1`` of
the single-qubit state and ``t = cos(beta)**2`` of the rotation placing the
eigenbasis relative to the measured projector.  Under the rotation-invariant
part of every measure ``t`` is uniform on [0, 1], so the single-trial
success probability is ``q = lambda1*t + (1 - lambda1)*(1 - t)``; the two
remaining rotation angles never enter and are integrated out analytically.

Determinism contract: for a fixed (seed, samples) the output is
bit-identical.  Chunk ``c`` always covers samples ``[c*CHUNK, (c+1)*CHUNK)``
and draws from an independent substream seeded by ``[seed, c]``; chunks are
drawn and reduced in chunk order, in one sequential stream.  The estimators
take a sequence of ``RunSpec``s and draw the stream once for all of them; a
spec's estimate does not depend on which other specs share the call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import TYPE_CHECKING, Iterator, Sequence

# numpy is imported inside each function that uses it, so that `import qdutch`
# and the exact-engine commands never load it.
if TYPE_CHECKING:
    import numpy as np

from .exchangeable import Measure, RunSpec, _check_measure, run_probability
from .rationals import format_rational


#: A comparison passes when the estimate lies within this many standard
#: errors of the exact value.
Z_THRESHOLD = 4.0

#: Samples per chunk; chunk ``c`` draws from the substream ``[seed, c]``.
CHUNK = 131_072


class UnstableRatioWarning(UserWarning):
    """The ratio estimator's denominator is too close to zero for its error bar."""


@dataclass(frozen=True)
class SampleConfig:
    measure: Measure
    seed: int = 42
    samples: int = 1_000_000

    def __post_init__(self):
        _check_measure(self.measure)
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _success_probability(lam1, t):
    return lam1 * t + (1.0 - lam1) * (1.0 - t)


@dataclass(frozen=True)
class SampleBatch:
    lambda1: np.ndarray
    t: np.ndarray
    proposals: int          # rejection proposals consumed (== size except Bures)

    @property
    def success_probability(self) -> np.ndarray:
        return _success_probability(self.lambda1, self.t)

    @property
    def acceptance_rate(self) -> float:
        return len(self.lambda1) / self.proposals

    def __len__(self) -> int:
        return len(self.lambda1)


def _bures_eigenvalues(rng: np.random.Generator, count: int) -> tuple[np.ndarray, int]:
    """Rejection sampler for the Bures eigenvalue density.

    Proposal: arcsine(lam) = 1/(pi sqrt(lam(1-lam))); target over proposal is
    2*(2*lam-1)**2 <= 2, so with bound M=2 the acceptance test is a uniform
    draw against (2*lam-1)**2 and the expected acceptance rate is 1/2.
    """
    import numpy as np
    out = np.empty(count)
    filled = 0
    proposals = 0
    while filled < count:
        need = count - filled
        u = rng.random(need)
        v = rng.random(need)
        lam = np.square(np.sin(0.5 * np.pi * u))
        keep = v < np.square(2.0 * lam - 1.0)
        taken = int(np.count_nonzero(keep))
        out[filled : filled + taken] = lam[keep]
        filled += taken
        proposals += need
    return out, proposals


def _sample_arrays(
    measure: Measure, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, int]:
    import numpy as np
    # Draw order (eigenvalues first, then t) is part of the determinism contract.
    if measure is Measure.PURE_UNIFORM:
        lam1 = np.ones(count)
        proposals = count
    elif measure is Measure.FLAT:
        lam = rng.random(count)
        lam1 = np.maximum(lam, 1.0 - lam)
        proposals = count
    else:
        lam, proposals = _bures_eigenvalues(rng, count)
        lam1 = np.maximum(lam, 1.0 - lam)
    t = rng.random(count)
    return lam1, t, proposals


def _iter_chunks(config: SampleConfig) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield per-chunk sample arrays in chunk order."""
    import numpy as np
    for index, start in enumerate(range(0, config.samples, CHUNK)):
        rng = np.random.default_rng([config.seed, index])
        yield _sample_arrays(config.measure, rng, min(CHUNK, config.samples - start))


def draw_samples(config: SampleConfig) -> SampleBatch:
    """Materialize the full deterministic sample set for the configuration."""
    import numpy as np
    lams, ts, proposals = [], [], 0
    for lam1, t, prop in _iter_chunks(config):
        lams.append(lam1)
        ts.append(t)
        proposals += prop
    return SampleBatch(np.concatenate(lams), np.concatenate(ts), proposals)


def _run_sums(config: SampleConfig, specs: Sequence[RunSpec]) -> list[list[float]]:
    """``[sum x, sum x*x]`` per spec, ``x = q**k (1-q)**(n-k)``: each chunk
    is drawn once and reduced for every spec in turn, in chunk order."""
    sums = [[0.0, 0.0] for _ in specs]
    for lam1, t, _ in _iter_chunks(config):
        q = _success_probability(lam1, t)
        for spec, acc in zip(specs, sums):
            x = q**spec.k * (1.0 - q) ** (spec.n - spec.k)
            acc[0] += float(x.sum())
            acc[1] += float((x * x).sum())
    return sums


def estimate_run_probability(
    config: SampleConfig, specs: Sequence[RunSpec]
) -> list[tuple[float, float]]:
    """Monte Carlo estimates (mean, standard error) of the exact run
    probabilities, one per spec, all from one pass over the sample stream.

    Averages q**k (1-q)**(n-k) over sampled states; unbiased by construction.
    """
    if config.samples < 100:
        raise ValueError("need at least 100 samples for a run-probability estimate")
    n = config.samples
    estimates = []
    for sum_x, sum_xx in _run_sums(config, specs):
        mean = sum_x / n
        var = max(0.0, (sum_xx - n * mean * mean) / (n - 1))
        estimates.append((mean, sqrt(var / n)))
    return estimates


def estimate_succession(config: SampleConfig, spec: RunSpec) -> tuple[float, float]:
    """Estimate (value, standard error) of the predictive success probability.

    Numerator (one extra success) and denominator share one sample set, so
    the ratio benefits from their positive correlation; the standard error
    comes from the delta method, with the cross sum read off the run
    (2n+1, 2k+1).  Emits :class:`UnstableRatioWarning` when the denominator
    mean is within 5 standard errors of zero.
    """
    if config.samples < 1000:
        raise ValueError("need at least 1000 samples for a succession estimate")
    n = config.samples
    (sum_x, sum_xx), (sum_y, sum_yy), (sum_xy, _) = _run_sums(
        config, [spec, RunSpec(spec.n + 1, spec.k + 1), RunSpec(2 * spec.n + 1, 2 * spec.k + 1)]
    )
    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = max(0.0, (sum_xx - n * mean_x**2) / (n - 1))
    var_y = max(0.0, (sum_yy - n * mean_y**2) / (n - 1))
    cov = (sum_xy - n * mean_x * mean_y) / (n - 1)
    se_x = sqrt(var_x / n)
    if mean_x < 5.0 * se_x:
        warnings.warn(
            f"denominator estimate {mean_x:.3e} is below 5x its standard error "
            f"{se_x:.3e}; the succession ratio is unstable",
            UnstableRatioWarning,
            stacklevel=2,
        )
    ratio = mean_y / mean_x
    var_ratio = (var_y - 2.0 * ratio * cov + ratio**2 * var_x) / (n * mean_x**2)
    return ratio, sqrt(max(0.0, var_ratio))


@dataclass(frozen=True)
class ComparisonReport:
    measure: Measure
    n: int
    k: int
    exact: Fraction
    estimate: float
    stderr: float
    z: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "measure": self.measure.value,
            "n": self.n,
            "k": self.k,
            "exact": format_rational(self.exact),
            "estimate": self.estimate,
            "stderr": self.stderr,
            "z": self.z,
            "pass": self.passed,
        }


def compare_exact_vs_mc(
    config: SampleConfig, specs: Sequence[RunSpec]
) -> list[ComparisonReport]:
    """Run-probability agreement checks between the exact engine and one
    pass over the sample stream, one report per spec."""
    exacts = [run_probability(config.measure, spec) for spec in specs]
    reports = []
    for spec, exact, (mean, se) in zip(specs, exacts, estimate_run_probability(config, specs)):
        diff = abs(float(exact) - mean)
        z = diff / se if se != 0.0 else (0.0 if diff == 0.0 else float("inf"))
        reports.append(ComparisonReport(
            config.measure, spec.n, spec.k, exact, mean, se, z, z <= Z_THRESHOLD
        ))
    return reports
