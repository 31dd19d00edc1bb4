"""Book files: a JSON text format for betting books.

Two shapes are accepted:

* ``{"atoms": ["a", "b"], "bets": [...]}`` -- explicit outcome space;
* ``[...]`` -- a bare list of bets, with the outcome space inferred from the
  atom names appearing in the expressions (in order of first appearance).

Each bet is ``{"target": <expr>, "condition": <expr> | "TRUE",
"quotient": "p/q", "stake": "p/q"}``.  Expressions combine atom names with
``&``, ``|``, ``!`` and parentheses; ``TRUE`` and ``FALSE`` denote the
tautology and the contradiction.  Quotients and stakes are exact rationals
serialized as integer-slash-integer strings; decimals are rejected.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Union

from .coherence import Book, ConditionalBet, OutcomeSpace, Proposition, format_proposition
from .rationals import format_rational, parse_rational

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_]\w*)|([&|!()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character in expression {text!r} at offset {pos}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    return tokens


def parse_expression(space: OutcomeSpace, text: str) -> Proposition:
    """Parse a Boolean expression over atom names into a proposition.

    Precedence: ``!`` binds tightest, then ``&``, then ``|``.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed expression {text!r}: expected {expected or 'a term'}")
        pos += 1
        return tok

    def parse_or() -> Proposition:
        node = parse_and()
        while peek() == "|":
            take("|")
            node = node | parse_and()
        return node

    def parse_and() -> Proposition:
        node = parse_unary()
        while peek() == "&":
            take("&")
            node = node & parse_unary()
        return node

    def parse_unary() -> Proposition:
        if peek() == "!":
            take("!")
            return ~parse_unary()
        return parse_primary()

    def parse_primary() -> Proposition:
        tok = take()
        if tok == "(":
            node = parse_or()
            take(")")
            return node
        if tok == "TRUE":
            return space.omega
        if tok == "FALSE":
            return space.empty
        if tok in ("&", "|", ")"):
            raise ValueError(f"malformed expression {text!r}: unexpected {tok!r}")
        return space.atom(tok)

    try:
        node = parse_or()
    except RecursionError:
        raise ValueError("malformed expression: nested too deeply") from None
    if pos != len(tokens):
        raise ValueError(f"malformed expression {text!r}: trailing tokens")
    return node


_NON_ATOM_TOKENS = frozenset({"TRUE", "FALSE", "&", "|", "!", "(", ")"})


def _expression_names(text: str) -> Iterable[str]:
    for tok in _tokenize(text):
        if tok not in _NON_ATOM_TOKENS:
            yield tok


def loads_book(text: str) -> Book:
    """Parse the JSON book format (see module docstring)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"book file is not valid JSON: {exc}") from exc

    if isinstance(doc, dict):
        try:
            atom_names = doc["atoms"]
            raw_bets = doc["bets"]
        except KeyError as exc:
            raise ValueError(f"book object missing key {exc}") from exc
        if not isinstance(atom_names, list) or not all(isinstance(a, str) for a in atom_names):
            raise ValueError('book "atoms" must be a list of names')
    elif isinstance(doc, list):
        raw_bets, atom_names = doc, None
    else:
        raise ValueError("book file must be a JSON object or a JSON list of bets")
    if not isinstance(raw_bets, list):
        raise ValueError('book "bets" must be a list')
    for i, raw in enumerate(raw_bets):
        if not isinstance(raw, dict):
            raise ValueError(f"bet #{i} is not an object")

    if atom_names is None:
        seen: dict[str, None] = {}
        for raw in raw_bets:
            for field in ("target", "condition"):
                for name in _expression_names(str(raw.get(field, "TRUE"))):
                    seen.setdefault(name)
        atom_names = list(seen)
        if not atom_names:
            raise ValueError("cannot infer an outcome space: no atom names in any bet")

    space = OutcomeSpace(atom_names)
    bets = []
    for i, raw in enumerate(raw_bets):
        try:
            target = parse_expression(space, str(raw["target"]))
            condition = parse_expression(space, str(raw.get("condition", "TRUE")))
            quotient = parse_rational(str(raw["quotient"]))
            stake = parse_rational(str(raw.get("stake", "1/1")))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bet #{i}: {exc}") from exc
        bets.append(ConditionalBet(target, condition, quotient, stake))
    return Book(space, bets)


def load_book(path: Union[str, Path]) -> Book:
    return loads_book(Path(path).read_text())


def dumps_book(book: Book) -> str:
    doc = {
        "atoms": list(book.space.atoms),
        "bets": [
            {
                "target": format_proposition(bet.target),
                "condition": format_proposition(bet.condition),
                "quotient": format_rational(bet.quotient),
                "stake": format_rational(bet.stake),
            }
            for bet in book.bets
        ],
    }
    return json.dumps(doc, indent=2)


def save_book(book: Book, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_book(book) + "\n")
