"""Shared pieces of the workloads: the package import, CLI calls with captured
output, the per-round cache reset, and the harness's own oracles."""

from __future__ import annotations

import copy
import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qdutch  # noqa: E402,F401  (loads every submodule before the cache snapshot below)
from qdutch import cli  # noqa: E402


@dataclass
class CliResult:
    code: Optional[int]         # None when main() raised
    stdout: str
    stderr: str
    raised: Optional[str]       # "ExceptionType: message" when main() raised


def call_cli(argv: list[str]) -> CliResult:
    """Run ``cli.main(argv)`` in-process, capturing what a user would see."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught exception is a traceback for a user
        return CliResult(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(code, out.getvalue(), err.getvalue(), None)


class CacheReset:
    """Puts every module-level cache of the package back to its import-time
    state, so each round pays what a fresh ``qdutch`` process pays.

    Built at import time, before any computation: it snapshots every
    module-level list, dict and set of the ``qdutch`` modules and remembers
    every function that has ``cache_clear`` (``functools.lru_cache``).
    """

    def __init__(self):
        self._containers = []
        self._lru = []
        for name, mod in list(sys.modules.items()):
            if name != "qdutch" and not name.startswith("qdutch."):
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("__"):
                    continue
                if isinstance(value, (list, dict, set)):
                    self._containers.append((value, copy.deepcopy(value)))
                elif callable(getattr(value, "cache_clear", None)):
                    self._lru.append(value)

    def __call__(self) -> None:
        for container, initial in self._containers:
            fresh = copy.deepcopy(initial)
            container.clear()
            if isinstance(container, list):
                container.extend(fresh)
            else:
                container.update(fresh)
        for fn in self._lru:
            fn.cache_clear()


reset_caches = CacheReset()


def write_input_files(inputs: dict) -> None:
    """Write the input files a workload's ``make_inputs`` queued, if any."""
    for path, text in inputs.get("files", {}).items():
        Path(path).write_text(text)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# --- quadrature oracle for run probabilities ---------------------------------
#
# P(n, k) = E[q^k (1-q)^(n-k)] with q = lam*t + (1-lam)*(1-t), t uniform on
# [0, 1] and lam drawn from the measure's eigenvalue density on [0, 1]:
# flat: 1; Bures: (2/pi) (2 lam - 1)^2 / sqrt(lam (1 - lam)).  The integrand
# is a polynomial in t and lam (degree n each), so Gauss-Legendre in t and
# lam (flat) and Gauss-Chebyshev in lam (Bures, whose weight is the
# Chebyshev weight after lam = (1 + x)/2) are exact up to rounding.

_NODES = 24


def quadrature_run_probability(measure: str, n: int, k: int) -> float:
    tx, tw = np.polynomial.legendre.leggauss(_NODES)
    t, t_w = (tx + 1) / 2, tw / 2
    if measure == "pure":
        lam, lam_w = np.array([1.0]), np.array([1.0])
    elif measure == "flat":
        x, w = np.polynomial.legendre.leggauss(_NODES)
        lam, lam_w = (x + 1) / 2, w / 2
    elif measure == "bures":
        i = np.arange(1, _NODES + 1)
        x = np.cos((2 * i - 1) * np.pi / (2 * _NODES))
        lam = (1 + x) / 2
        # (1/pi) * integral of f(lam) / sqrt(lam(1-lam)) dlam = mean of f at
        # the Chebyshev nodes; the density adds the factor 2 (2 lam - 1)^2.
        lam_w = 2 * (2 * lam - 1) ** 2 / _NODES
    else:
        raise ValueError(measure)
    q = lam[:, None] * t[None, :] + (1 - lam[:, None]) * (1 - t[None, :])
    values = q**k * (1 - q) ** (n - k)
    return float(lam_w @ values @ t_w)


def pure_run_probability(n: int, k: int) -> Fraction:
    return Fraction(1, (n + 1) * math.comb(n, k))


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def fmt12(value) -> str:
    """The 12-significant-digit rendering the CLI promises for decimals."""
    return f"{float(value):.12g}"
