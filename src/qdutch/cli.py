"""Command-line surface: ``qdutch <command> [flags]``.

Commands: succession, figure1, coherence-check, axioms-check, luders,
aggregate, definetti-verify, quantum-book.  Exit codes: 0 on success
(findings such as a discovered Dutch book or a failed z-test are reported
successes), 1 on domain errors (e.g. conditioning on a null event), 2 on
input errors (unknown flags, malformed files, cap violations).

Rationals on the command line use the exact "p/q" form; decimals are
refused wherever exactness matters.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from . import books, coherence, montecarlo, quantum
from .errors import CapacityError, NullConditionError
from .exchangeable import (
    DEFAULT_N_CAP,
    Measure,
    RunSpec,
    SUCCESSION_CSV_COLUMNS,
    round_half_up,
    succession,
    succession_row,
    succession_table,
    write_succession_csv,
)
from .rationals import format_decimal, format_rational, parse_rational

# Most pair x sample reductions one definetti-verify may ask for: (n, k) pairs
# x samples x measures, each measure's stream drawn once.  The default (--nmax
# 8, 10^6 samples, 3 measures) is 1.35e8, about 2 s on 2 cores; the cap is 7x.
_MAX_VERIFY_DRAWS = 10**9


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"--n expects an integer or comma list, got {text!r}") from exc
    if not values:
        raise ValueError(f"--n expects at least one integer, got {text!r}")
    return values


def _measure(text: str) -> Measure:
    try:
        return Measure(text)
    except ValueError as exc:
        raise ValueError(
            f"unknown measure {text!r} (choose pure, flat or bures)"
        ) from exc


def _tolerance(text: str) -> float:
    """Parse ``--tol``: finite and nonnegative, as a NaN tolerance passes every check."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


@contextmanager
def _output(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qdutch",
        description="coherence checks, quantum state updates and succession laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("succession", help="exact predictive probability for a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", required=True, help="trial count (int or comma list)")
    p.add_argument("--k", type=int, default=None, help="success count")
    p.add_argument("--kfrac", default=None, help='relative frequency "p/q" (alternative to --k)')
    p.add_argument("--out", default=None)

    p = sub.add_parser("figure1", help="correction-ratio table along an n grid")
    p.add_argument("--measure", required=True)
    p.add_argument("--n", required=True, help="comma list of trial counts")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kfrac", default=None, help='relative frequency "p/q"')
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("coherence-check", help="search a book file for a Dutch book")
    p.add_argument("book")
    p.add_argument("--out", default=None)

    p = sub.add_parser("axioms-check", help="check a book file's quotients against the probability axioms")
    p.add_argument("book")
    p.add_argument("--out", default=None)

    p = sub.add_parser("luders", help="update a state file after observing a projector")
    p.add_argument("--state", required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=_tolerance, default=quantum.OPERATOR_TOL)

    p = sub.add_parser("aggregate", help="pooled update over a projector family")
    p.add_argument("--state", required=True)
    p.add_argument("--projectors", required=True, help="comma list of projector files")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=_tolerance, default=quantum.OPERATOR_TOL)

    p = sub.add_parser("definetti-verify", help="exact vs Monte Carlo on a small (n, k) grid")
    p.add_argument("--measure", default="all", help="pure, flat, bures or all")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "text"), default="text")

    p = sub.add_parser("quantum-book", help="average payoff of a quantum book under a state")
    p.add_argument("--state", required=True)
    p.add_argument("--book", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=_tolerance, default=quantum.OPERATOR_TOL)

    return parser


def _pick_k(n: int, k: Optional[int], kfrac: Optional[str]) -> int:
    if (k is None) == (kfrac is None):
        raise ValueError("exactly one of --k and --kfrac is required")
    if k is not None:
        return k
    return round_half_up(parse_rational(kfrac) * n)


def _cmd_succession(args) -> int:
    measure = _measure(args.measure)
    values = [
        succession(measure, RunSpec(n, _pick_k(n, args.k, args.kfrac)))
        for n in _parse_int_list(args.n)
    ]
    with _output(args.out) as fh:
        for value in values:
            fh.write(f"{format_rational(value)} {format_decimal(value)}\n")
    return 0


def _cmd_figure1(args) -> int:
    measure = _measure(args.measure)
    n_values = _parse_int_list(args.n)
    if args.kfrac is not None and args.k is not None:
        raise ValueError("use either --kfrac or --k, not both")
    if args.kfrac is not None:
        rows = succession_table(measure, n_values, parse_rational(args.kfrac))
    elif args.k is not None:
        rows = [succession_row(measure, RunSpec(n, args.k)) for n in n_values]
    else:
        raise ValueError("figure1 needs --kfrac (or --k)")
    with _output(args.out) as fh:
        if args.format == "csv":
            write_succession_csv(rows, fh)
        else:
            fh.write("  ".join(SUCCESSION_CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write("  ".join(row.csv_fields()) + "\n")
    return 0


def _cmd_coherence_check(args) -> int:
    book = books.load_book(args.book)
    stakes = coherence.find_dutch_book(book)
    with _output(args.out) as fh:
        if stakes is None:
            fh.write("COHERENT: no stake choice forces a sure loss\n")
        else:
            rendered = " ".join(format_rational(s) for s in stakes)
            fh.write(f"DUTCH BOOK: stakes {rendered}\n")
            exploited = book.with_stakes(stakes)
            for word in book.space.words():
                value = coherence.payoff(exploited, word)
                fh.write(f"  payoff[{word.name}] = {format_rational(value)}\n")
    return 0


def _cmd_axioms_check(args) -> int:
    book = books.load_book(args.book)
    violations = coherence.check_axioms(coherence.assignment_from_book(book))
    with _output(args.out) as fh:
        if not violations:
            fh.write("AXIOMS OK: no violation detectable from the assignment\n")
        else:
            for violation in violations:
                fh.write(f"VIOLATION {violation}\n")
    return 0


def _cmd_luders(args) -> int:
    rho = quantum.load_density(args.state, tol=args.tol)
    proj = quantum.load_projector(args.projector, tol=args.tol)
    weight = quantum.born(rho, proj)
    updated = quantum.luders_update(rho, proj)
    doc = quantum.operator_to_json(updated.matrix)
    with _output(args.out) as fh:
        fh.write(json.dumps(doc) + "\n")
    if args.out not in (None, "-"):
        sys.stdout.write(f"q(condition) = {format_decimal(weight)}\n")
    return 0


def _cmd_aggregate(args) -> int:
    rho = quantum.load_density(args.state, tol=args.tol)
    projectors = [
        quantum.load_projector(path, tol=args.tol)
        for path in args.projectors.split(",")
        if path
    ]
    updated = quantum.aggregated_update(rho, projectors)
    with _output(args.out) as fh:
        fh.write(json.dumps(quantum.operator_to_json(updated.matrix)) + "\n")
    return 0


def _cmd_definetti_verify(args) -> int:
    if args.measure == "all":
        measures = list(Measure)
    else:
        measures = [_measure(args.measure)]
    if not 0 <= args.nmax <= DEFAULT_N_CAP:
        raise ValueError(f"--nmax must lie in [0, {DEFAULT_N_CAP}], got {args.nmax}")
    draws = (args.nmax + 1) * (args.nmax + 2) // 2 * args.samples * len(measures)
    if draws > _MAX_VERIFY_DRAWS:
        raise CapacityError(f"{draws} Monte Carlo draws requested; cap is {_MAX_VERIFY_DRAWS}")
    grid = [RunSpec(n, k) for n in range(args.nmax + 1) for k in range(n + 1)]
    reports = []
    for measure in measures:
        config = montecarlo.SampleConfig(measure=measure, seed=args.seed, samples=args.samples)
        reports += montecarlo.compare_exact_vs_mc(config, grid)
    failures = sum(1 for r in reports if not r.passed)
    with _output(args.out) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["measure", "n", "k", "exact", "estimate", "stderr", "z", "pass"])
            for r in reports:
                d = r.as_dict()
                writer.writerow([d["measure"], d["n"], d["k"], d["exact"],
                                 format_decimal(d["estimate"]), format_decimal(d["stderr"]),
                                 format_decimal(d["z"]), d["pass"]])
        else:
            for r in reports:
                fh.write(json.dumps(r.as_dict()) + "\n")
        fh.write(f"# {len(reports) - failures}/{len(reports)} comparisons passed at 4 sigma\n")
    return 0


def _cmd_quantum_book(args) -> int:
    rho = quantum.load_density(args.state, tol=args.tol)
    book = quantum.load_quantum_book(args.book, tol=args.tol)
    value = quantum.quantum_average_payoff(book, rho)
    total_stake = sum(abs(bet.stake) for bet in book)
    with _output(args.out) as fh:
        fh.write(f"average payoff = {format_decimal(value)}\n")
        fh.write(f"total |stake| = {format_decimal(total_stake)}\n")
    return 0


_COMMANDS = {
    "succession": _cmd_succession,
    "figure1": _cmd_figure1,
    "coherence-check": _cmd_coherence_check,
    "axioms-check": _cmd_axioms_check,
    "luders": _cmd_luders,
    "aggregate": _cmd_aggregate,
    "definetti-verify": _cmd_definetti_verify,
    "quantum-book": _cmd_quantum_book,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NullConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
