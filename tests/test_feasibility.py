"""The integer phase-1 simplex, pinned against the Fraction simplex oracle."""

import random
from fractions import Fraction

import pytest

from qdutch import Book, ConditionalBet, OutcomeSpace
from qdutch.coherence import MAX_ATOMS, MAX_BOOK_BETS, _payoff_matrix
from qdutch.feasibility import stakes_forcing_sure_loss
from helpers import coherent_book, fraction_simplex_stakes, random_joint, random_proposition

F = Fraction


def random_matrix(rng: random.Random) -> list[list[Fraction]]:
    """1-7 rows by 1-9 columns of small rationals, about 20% of them zero."""
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 9)
    return [
        [F(0) if rng.random() < 0.2 else F(rng.randint(-9, 9), rng.randint(1, 12))
         for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def capped_books() -> list[Book]:
    """Books at the caps (20 atoms, 16 bets): random quotients with
    denominators 9, 97 and 997, and coherent books from a joint whose
    weights run up to 997."""
    rng = random.Random(997)
    space = OutcomeSpace([f"w{i}" for i in range(MAX_ATOMS)])
    books = []
    for den in (9, 97, 997, 997, 997):
        bets = [
            ConditionalBet(
                random_proposition(rng, space),
                random_proposition(rng, space, nonempty=True),
                F(rng.randint(0, den), den),
            )
            for _ in range(MAX_BOOK_BETS)
        ]
        books.append(Book(space, bets))
    for _ in range(3):
        weights = [rng.randint(1, 997) for _ in space.atoms]
        joint = [F(w, sum(weights)) for w in weights]
        books.append(coherent_book(rng, space, joint, MAX_BOOK_BETS))
    return books


def assert_sure_loss(rows, stakes) -> None:
    for row in rows:
        assert sum(g * s for g, s in zip(row, stakes)) <= -1


RANDOM_MATRICES = [random_matrix(random.Random(seed)) for seed in range(400)]
CAPPED_MATRICES = [_payoff_matrix(book) for book in capped_books()]


def test_equals_fraction_simplex_on_random_matrices():
    dutch = 0
    for rows in RANDOM_MATRICES:
        stakes = stakes_forcing_sure_loss(rows)
        assert stakes == fraction_simplex_stakes(rows)
        if stakes is not None:
            assert all(type(s) is Fraction for s in stakes)
            assert_sure_loss(rows, stakes)
            dutch += 1
    assert 0 < dutch < len(RANDOM_MATRICES)


def test_equals_fraction_simplex_on_capped_books():
    results = [stakes_forcing_sure_loss(rows) for rows in CAPPED_MATRICES]
    assert results == [fraction_simplex_stakes(rows) for rows in CAPPED_MATRICES]
    assert results[5:] == [None] * 3          # coherent books
    for rows, stakes in zip(CAPPED_MATRICES, results):
        if stakes is not None:
            assert_sure_loss(rows, stakes)
    assert any(stakes is not None for stakes in results)


def test_no_rows_needs_no_stakes():
    assert stakes_forcing_sure_loss([]) == []


def test_rows_without_bets_are_infeasible():
    assert stakes_forcing_sure_loss([[], []]) is None


def test_ragged_rows_raise():
    with pytest.raises(ValueError, match="equal length"):
        stakes_forcing_sure_loss([[F(1), F(2)], [F(1)]])


def test_int_entries_are_accepted():
    rows = [[1, -2], [-1, 0], [-3, 1]]
    stakes = stakes_forcing_sure_loss(rows)
    assert stakes == fraction_simplex_stakes(rows) == [F(1), F(2)]
    assert stakes_forcing_sure_loss([[F(g) for g in row] for row in rows]) == stakes
    assert_sure_loss(rows, stakes)
    assert stakes_forcing_sure_loss([[1, -1], [-1, 1]]) is None
