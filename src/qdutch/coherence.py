"""Betting books over a finite outcome algebra.

A finite set of mutually exclusive, exhaustive atoms generates a Boolean
algebra of propositions.  Books of conditional bets carry exact rational
quotients and stakes; coherence questions (does some stake choice force a
sure loss?) are decided exactly, never through floating point.

Conventions
-----------
* A bet on ``target`` given ``condition`` pays ``(1 - q) * S`` when both
  hold, ``-q * S`` when the condition holds but the target fails, and 0
  when the condition fails (the bet is called off and everything staked is
  returned).
* Outright bets are conditional bets whose condition is the full space.
* A Dutch book is a stake assignment with strictly negative payoff on every
  outcome; stakes scale freely, so the search normalizes to payoff <= -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CapacityError
from .feasibility import stakes_forcing_sure_loss

MAX_BOOK_BETS = 16
MAX_ATOMS = 20

RationalLike = Union[Fraction, int, str]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError("quotients and stakes are exact; pass Fraction, int or 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered atoms of a finite Boolean algebra (exclusive and exhaustive)."""

    atoms: tuple[str, ...]

    def __init__(self, atoms: Iterable[str]):
        names = tuple(atoms)
        if not names:
            raise ValueError("outcome space needs at least one atom")
        if len(set(names)) != len(names):
            raise ValueError("atom names must be unique")
        object.__setattr__(self, "atoms", names)

    def __len__(self) -> int:
        return len(self.atoms)

    def atom(self, name: str) -> "Proposition":
        return Proposition(self, frozenset({self._index(name)}))

    def proposition(self, names: Iterable[str] = ()) -> "Proposition":
        return Proposition(self, frozenset(self._index(n) for n in names))

    @property
    def omega(self) -> "Proposition":
        return Proposition(self, frozenset(range(len(self.atoms))))

    @property
    def empty(self) -> "Proposition":
        return Proposition(self, frozenset())

    def word(self, name: str) -> "OutcomeWord":
        return OutcomeWord(self, self._index(name))

    def words(self) -> list["OutcomeWord"]:
        return [OutcomeWord(self, i) for i in range(len(self.atoms))]

    def _index(self, name: str) -> int:
        try:
            return self.atoms.index(name)
        except ValueError:
            raise KeyError(f"unknown atom {name!r}") from None


@dataclass(frozen=True)
class Proposition:
    """A subset of atoms; ``&``, ``|`` and ``~`` are the Boolean operations."""

    space: OutcomeSpace
    members: frozenset[int]

    def __and__(self, other: "Proposition") -> "Proposition":
        self._check_space(other)
        return Proposition(self.space, self.members & other.members)

    def __or__(self, other: "Proposition") -> "Proposition":
        self._check_space(other)
        return Proposition(self.space, self.members | other.members)

    def __invert__(self) -> "Proposition":
        universe = frozenset(range(len(self.space)))
        return Proposition(self.space, universe - self.members)

    def is_empty(self) -> bool:
        return not self.members

    def is_omega(self) -> bool:
        return len(self.members) == len(self.space)

    def disjoint_from(self, other: "Proposition") -> bool:
        self._check_space(other)
        return not (self.members & other.members)

    def atom_names(self) -> tuple[str, ...]:
        return tuple(self.space.atoms[i] for i in sorted(self.members))

    def _check_space(self, other: "Proposition") -> None:
        if self.space != other.space:
            raise ValueError("propositions live on different outcome spaces")


def format_proposition(prop: Proposition) -> str:
    """Render a proposition in the book syntax: atoms joined by `` | ``."""
    if prop.is_omega():
        return "TRUE"
    if prop.is_empty():
        return "FALSE"
    return " | ".join(prop.atom_names())


@dataclass(frozen=True)
class OutcomeWord:
    """One realized outcome: exactly one atom is true, all others false."""

    space: OutcomeSpace
    true_atom: int

    def __post_init__(self):
        if not 0 <= self.true_atom < len(self.space):
            raise ValueError("atom index out of range")

    def satisfies(self, prop: Proposition) -> bool:
        return self.true_atom in prop.members

    @property
    def name(self) -> str:
        return self.space.atoms[self.true_atom]


@dataclass(frozen=True)
class ConditionalBet:
    target: Proposition
    condition: Proposition
    quotient: Fraction
    stake: Fraction = Fraction(1)

    def __init__(self, target, condition, quotient, stake=Fraction(1)):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "quotient", _as_fraction(quotient))
        object.__setattr__(self, "stake", _as_fraction(stake))
        if target.space != condition.space:
            raise ValueError("target and condition live on different outcome spaces")

    @classmethod
    def outright(cls, target: Proposition, quotient, stake=Fraction(1)) -> "ConditionalBet":
        """A plain bet: condition is the tautology."""
        return cls(target, target.space.omega, quotient, stake)


@dataclass(frozen=True)
class Book:
    """A list of conditional bets over one outcome space.

    No coherence requirement is imposed here: incoherent books must be
    representable so they can be analysed.
    """

    space: OutcomeSpace
    bets: tuple[ConditionalBet, ...]

    def __init__(self, space: OutcomeSpace, bets: Iterable[ConditionalBet]):
        bets = tuple(bets)
        for bet in bets:
            if bet.target.space != space:
                raise ValueError("bet does not belong to this outcome space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bets", bets)

    def __len__(self) -> int:
        return len(self.bets)

    def with_stakes(self, stakes: Sequence[RationalLike]) -> "Book":
        if len(stakes) != len(self.bets):
            raise ValueError("stake vector length must match the number of bets")
        new = [
            ConditionalBet(b.target, b.condition, b.quotient, s)
            for b, s in zip(self.bets, stakes)
        ]
        return Book(self.space, new)


def payoff(book: Book, outcome: Union[OutcomeWord, str]) -> Fraction:
    """Exact bettor's payoff of the whole book for one realized outcome."""
    word = book.space.word(outcome) if isinstance(outcome, str) else outcome
    if word.space != book.space:
        raise ValueError("outcome belongs to a different space")
    total = Fraction(0)
    for bet in book.bets:
        if not word.satisfies(bet.condition):
            continue                      # called off: stakes and wagers returned
        if word.satisfies(bet.target):
            total += (1 - bet.quotient) * bet.stake
        else:
            total -= bet.quotient * bet.stake
    return total


def _payoff_matrix(book: Book) -> list[list[Fraction]]:
    rows = []
    for word in book.space.words():
        row = []
        for bet in book.bets:
            if not word.satisfies(bet.condition):
                row.append(Fraction(0))
            elif word.satisfies(bet.target):
                row.append(1 - bet.quotient)
            else:
                row.append(-bet.quotient)
        rows.append(row)
    return rows


def find_dutch_book(book: Book) -> Optional[list[Fraction]]:
    """Search for stakes that lose at least 1 on every outcome.

    Returns the stake vector (aligned with ``book.bets``) when the book is
    Dutch, or None when no stake choice can force a sure loss.  The decision
    is an exact rational feasibility check over all outcome words; outcomes
    where every bet is called off contribute a payoff-0 row, so any book with
    such an outcome is automatically coherent.
    """
    if len(book.bets) > MAX_BOOK_BETS:
        raise CapacityError(f"book has {len(book.bets)} bets; cap is {MAX_BOOK_BETS}")
    if len(book.space) > MAX_ATOMS:
        raise CapacityError(f"outcome space has {len(book.space)} atoms; cap is {MAX_ATOMS}")
    if not book.bets:
        return None
    return stakes_forcing_sure_loss(_payoff_matrix(book))


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str      # positivity | bound | additivity | normalization | multiplication
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.detail}"


class QuotientAssignment:
    """Betting quotients on propositions and on (target | condition) pairs."""

    def __init__(self, space: OutcomeSpace):
        self.space = space
        self._outright: dict[Proposition, Fraction] = {}
        self._conditional: dict[tuple[Proposition, Proposition], Fraction] = {}

    def set_quotient(self, prop: Proposition, quotient: RationalLike) -> None:
        self._outright[prop] = _as_fraction(quotient)

    def set_conditional(
        self, target: Proposition, condition: Proposition, quotient: RationalLike
    ) -> None:
        self._conditional[(target, condition)] = _as_fraction(quotient)

    def quotient(self, prop: Proposition) -> Optional[Fraction]:
        return self._outright.get(prop)

    def items(self):
        return self._outright.items()

    def conditional_items(self):
        return self._conditional.items()


def assignment_from_book(book: Book) -> QuotientAssignment:
    """Collect a book's quotients into an assignment for axiom checking.

    Outright bets (condition = tautology) contribute unconditional quotients;
    the rest contribute conditional ones.
    """
    assignment = QuotientAssignment(book.space)
    for bet in book.bets:
        if bet.condition.is_omega():
            assignment.set_quotient(bet.target, bet.quotient)
        else:
            assignment.set_conditional(bet.target, bet.condition, bet.quotient)
    return assignment


def check_axioms(assignment: QuotientAssignment) -> list[AxiomViolation]:
    """Report every violated probability axiom visible in the assignment.

    Checks positivity and the bound q <= 1 of all quotients, additivity on
    assigned disjoint pairs whose join is also assigned, normalization on the
    tautology, and the multiplication law q(a & b) = q(a given b) q(b)
    wherever all three pieces are assigned.  The tautology's quotient is 1
    by the normalization axiom, so it participates in the other checks even
    when no bet was placed on it explicitly.  An empty list means no
    violation is detectable.
    """
    violations: list[AxiomViolation] = []
    out = dict(assignment.items())
    name = format_proposition

    quotients = [(name(prop), q) for prop, q in out.items()] + [
        (f"{name(target)} given {name(cond)}", q)
        for (target, cond), q in assignment.conditional_items()
    ]
    for label, q in quotients:
        if q < 0:
            violations.append(AxiomViolation("positivity", f"q({label}) = {q} < 0"))
        if q > 1:
            violations.append(AxiomViolation("bound", f"q({label}) = {q} > 1"))

    omega = assignment.space.omega
    if omega in out and out[omega] != 1:
        violations.append(
            AxiomViolation("normalization", f"q(TRUE) = {out[omega]} != 1")
        )
    out.setdefault(omega, Fraction(1))

    props = list(out)
    for i, a in enumerate(props):
        for b in props[i + 1:]:
            if not a.disjoint_from(b):
                continue
            join = a | b
            if join in out and out[join] != out[a] + out[b]:
                violations.append(
                    AxiomViolation(
                        "additivity",
                        f"q({name(a)}) + q({name(b)}) = {out[a]} + {out[b]} "
                        f"!= q({name(join)}) = {out[join]}",
                    )
                )

    # iterated additivity over the exclusive, exhaustive atom family
    atoms = [assignment.space.atom(a) for a in assignment.space.atoms]
    if all(a in out for a in atoms):
        total = sum(out[a] for a in atoms)
        if total != out[omega]:
            violations.append(
                AxiomViolation(
                    "additivity",
                    f"quotients on the exhaustive atoms sum to {total} != {out[omega]}",
                )
            )

    for (target, cond), q_cond in assignment.conditional_items():
        meet = target & cond
        if meet in out and cond in out:
            if out[meet] != q_cond * out[cond]:
                violations.append(
                    AxiomViolation(
                        "multiplication",
                        f"q({name(meet)}) = {out[meet]} != q({name(target)} given "
                        f"{name(cond)}) * q({name(cond)}) = {q_cond * out[cond]}",
                    )
                )
    return violations


def _atom_distribution(
    space: OutcomeSpace, joint: Union[Sequence[RationalLike], Mapping[str, RationalLike]]
) -> list[Fraction]:
    if isinstance(joint, Mapping):
        probs = [_as_fraction(joint.get(name, 0)) for name in space.atoms]
    else:
        if len(joint) != len(space):
            raise ValueError("joint must assign a probability to every atom")
        probs = [_as_fraction(p) for p in joint]
    if any(p < 0 for p in probs):
        raise ValueError("joint probabilities must be nonnegative")
    if sum(probs) != 1:
        raise ValueError("joint is not normalized (probabilities must sum to exactly 1)")
    return probs


def _mass(probs: Sequence[Fraction], prop: Proposition) -> Fraction:
    return sum((probs[i] for i in prop.members), Fraction(0))


def event_probability(
    space: OutcomeSpace,
    joint: Union[Sequence[RationalLike], Mapping[str, RationalLike]],
    prop: Proposition,
) -> Fraction:
    """Probability of a proposition under an atom-level distribution."""
    return _mass(_atom_distribution(space, joint), prop)


def average_payoff(
    book: Book, joint: Union[Sequence[RationalLike], Mapping[str, RationalLike]]
) -> Fraction:
    """Expected payoff of the book under a distribution over outcome words.

    By linearity of expectation this is the per-bet sum
    ``sum_i S_i * (P(T_i & C_i) - q_i * P(C_i))``, exact and O(bets); no
    outcome is enumerated.  When every quotient equals the conditional
    probability induced by the joint, the result is exactly zero (as a
    rational identity).
    """
    probs = _atom_distribution(book.space, joint)
    total = Fraction(0)
    for bet in book.bets:
        p_win = _mass(probs, bet.target & bet.condition)
        total += bet.stake * (p_win - bet.quotient * _mass(probs, bet.condition))
    return total


def average_payoff_product_joint(
    book: Book, joint: Union[Sequence[RationalLike], Mapping[str, RationalLike]]
) -> Fraction:
    """Expected payoff when the bets' outcomes are treated as independent.

    Each bet resolves to win / lose / called-off with probabilities taken
    from the atom-level ``joint``, and the joint over the whole outcome
    combination is the product of the per-bet marginals.  Repeated bets on
    one proposition therefore get independent outcomes here, unlike
    :func:`payoff` against a single outcome word.  Each bet's branch
    probabilities sum to 1, so the expectation is the sum of the per-bet
    expectations whatever the joint over bets: it is exactly
    :func:`average_payoff`, computed by the same O(bets) per-bet sum.
    """
    return average_payoff(book, joint)


def laplace_succession(n: int, k: int) -> Fraction:
    """Predictive probability (k+1)/(n+2) after k successes in n trials."""
    _check_counts(n, k)
    g = math.gcd(k + 1, n + 2)
    return _lowest_terms_fraction((k + 1) // g, (n + 2) // g)


#: Rows of Pascal's triangle kept for ``classical_predictive``.  Sweeps touch
#: neighbouring n, so a short LRU serves them; rows above n = 2000 (about
#: 0.45 MB each) are not cached, which bounds the cache at about 7 MB.
_PASCAL_ROWS_KEPT = 16
_PASCAL_ROW_MAX_N = 2000


@functools.lru_cache(maxsize=_PASCAL_ROWS_KEPT)
def _pascal_row(n: int) -> tuple[int, ...]:
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


def classical_predictive(n: int, k: int) -> Fraction:
    """Probability of one particular n-trial outcome sequence with k
    successes, under a uniform prior on the unknown bias.

    Equals k!(n-k)!/(n+1)!; successive ratios reproduce
    :func:`laplace_succession`.
    """
    _check_counts(n, k)
    binom = _pascal_row(n)[k] if n <= _PASCAL_ROW_MAX_N else math.comb(n, k)
    return _lowest_terms_fraction(1, (n + 1) * binom)


def _lowest_terms_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` for coprime integers with a
    positive denominator, without the public constructor's type dispatch and
    gcd pass, which dominate the Laplace sweeps (the same shortcut as
    ``Fraction._from_coprime_ints`` on Python 3.12+)."""
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _check_counts(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("counts must be nonnegative")
    if k > n:
        raise ValueError(f"successes k={k} exceed trials n={n}")
