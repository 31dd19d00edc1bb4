"""Strict parsing and rendering of exact rationals.

Quotients and stakes are exact by contract, so the text form is restricted to
integer or integer-slash-integer strings; decimal notation is rejected rather
than silently converted.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction, refusing decimals and empty input."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(
            f"not an exact rational: {text!r} (use integer or p/q form; decimals are refused)"
        )
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (always with a denominator, e.g. "1/1")."""
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value) -> str:
    """Render a number with 12 significant digits for presentation output."""
    return f"{float(value):.12g}"
