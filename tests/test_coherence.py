"""Classical betting books: payoffs, Dutch-book detection, axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdutch import (
    AxiomViolation,
    Book,
    CapacityError,
    ConditionalBet,
    OutcomeSpace,
    Proposition,
    QuotientAssignment,
    average_payoff,
    average_payoff_product_joint,
    check_axioms,
    classical_predictive,
    event_probability,
    find_dutch_book,
    laplace_succession,
    payoff,
)
from helpers import (
    coherent_book,
    product_joint_average,
    random_joint,
    random_space,
    violating_book,
    word_joint_average,
)

F = Fraction


@pytest.fixture
def coin():
    return OutcomeSpace(["a", "na"])


def outright(prop, q, stake=1):
    return ConditionalBet.outright(prop, F(q), F(stake))


class TestOutcomeSpace:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            OutcomeSpace([])
        with pytest.raises(ValueError):
            OutcomeSpace(["a", "a"])

    def test_unknown_atom(self, coin):
        with pytest.raises(KeyError):
            coin.atom("b")

    def test_cross_space_operations_rejected(self, coin):
        other = OutcomeSpace(["x", "y"])
        with pytest.raises(ValueError):
            coin.atom("a") & other.atom("x")


class TestBooleanAlgebra:
    """The atom-subset operations satisfy the Boolean identities."""

    @staticmethod
    def _props(space, data):
        return Proposition(space, frozenset(i for i in data if i < len(space)))

    @given(
        n=st.integers(1, 6),
        xs=st.frozensets(st.integers(0, 5)),
        ys=st.frozensets(st.integers(0, 5)),
        zs=st.frozensets(st.integers(0, 5)),
    )
    @settings(max_examples=200)
    def test_identities(self, n, xs, ys, zs):
        space = OutcomeSpace([f"w{i}" for i in range(n)])
        a, b, c = (self._props(space, s) for s in (xs, ys, zs))
        # commutativity
        assert a & b == b & a
        assert a | b == b | a
        # distributivity
        assert a & (b | c) == (a & b) | (a & c)
        assert a | (b & c) == (a | b) & (a | c)
        # identities
        assert a & space.omega == a
        assert a | space.empty == a
        # complements
        assert (a & ~a) == space.empty
        assert (a | ~a) == space.omega
        assert ~~a == a

    def test_negation_of_tautology(self, coin):
        assert ~coin.omega == coin.empty
        assert ~coin.empty == coin.omega


class TestPayoff:
    def test_win_pays_stake_minus_wager(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "3/5")])
        assert payoff(book, "a") == F(2, 5)

    def test_loss_costs_wager(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "3/5")])
        assert payoff(book, "na") == F(-3, 5)

    def test_called_off_bet_pays_nothing(self):
        space = OutcomeSpace(["ab", "anb", "nab", "nanb"])
        a = space.proposition(["ab", "anb"])
        b = space.proposition(["ab", "nab"])
        book = Book(space, [ConditionalBet(a, b, F(1, 2), F(2))])
        assert payoff(book, "anb") == 0
        assert payoff(book, "nanb") == 0
        assert payoff(book, "ab") == 1
        assert payoff(book, "nab") == -1

    def test_single_word_resolves_repeated_bets_identically(self, coin):
        # two bets on the same proposition win or lose together against one word
        bet = outright(coin.atom("a"), "1/2")
        book = Book(coin, [bet, bet])
        assert payoff(book, "a") == 1
        assert payoff(book, "na") == -1


class TestFindDutchBook:
    def test_overround_two_sided_book_is_dutch(self, coin):
        book = Book(
            coin,
            [outright(coin.atom("a"), "3/5"), outright(coin.atom("na"), "3/5")],
        )
        stakes = find_dutch_book(book)
        assert stakes is not None
        exploited = book.with_stakes(stakes)
        for word in coin.words():
            assert payoff(exploited, word) <= -1

    def test_fair_two_sided_book_is_coherent(self, coin):
        book = Book(
            coin,
            [outright(coin.atom("a"), "3/10"), outright(coin.atom("na"), "7/10")],
        )
        assert find_dutch_book(book) is None

    def test_negative_quotient_exploited_by_negative_stake(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "-1/10")])
        stakes = find_dutch_book(book)
        assert stakes is not None and stakes[0] < 0
        exploited = book.with_stakes(stakes)
        for word in coin.words():
            assert payoff(exploited, word) <= -1

    def test_quotient_above_one_is_dutch(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "11/10")])
        assert find_dutch_book(book) is not None

    def test_single_conditional_bet_is_saved_by_the_called_off_row(self):
        space = OutcomeSpace(["ab", "anb", "nb"])
        a = space.proposition(["ab"])
        b = space.proposition(["ab", "anb"])
        # grossly wrong quotient, but outcome "nb" pays 0 > -1
        book = Book(space, [ConditionalBet(a, b, F(99, 100))])
        assert find_dutch_book(book) is None

    def test_additivity_determinant_condition(self, coin_triple=None):
        # bets on disjoint a, b and on c = a | b: Dutch iff q(c) != q(a) + q(b)
        space = OutcomeSpace(["a", "b", "c"])
        a, b = space.atom("a"), space.atom("b")
        c = a | b
        for qc, dutch in [(F(7, 10), False), (F(8, 10), True)]:
            book = Book(
                space,
                [outright(a, F(3, 10)), outright(b, F(4, 10)), outright(c, qc)],
            )
            found = find_dutch_book(book)
            assert (found is not None) == dutch

    def test_conditional_multiplication_determinant_condition(self):
        # bets on b, a & b, and a given b: Dutch iff q(a&b) != q(a|b) q(b)
        space = OutcomeSpace(["ab", "anb", "nb"])
        a = space.proposition(["ab"])
        b = space.proposition(["ab", "anb"])
        q_b, q_given = F(1, 2), F(1, 3)
        for q_and, dutch in [(q_given * q_b, False), (q_given * q_b + F(1, 10), True)]:
            book = Book(
                space,
                [
                    outright(b, q_b),
                    outright(a & b, q_and),
                    ConditionalBet(a, b, q_given),
                ],
            )
            assert (find_dutch_book(book) is not None) == dutch

    def test_empty_book_is_coherent(self, coin):
        assert find_dutch_book(Book(coin, [])) is None

    def test_caps_are_enforced(self, coin):
        bets = [outright(coin.atom("a"), "1/2")] * 17
        with pytest.raises(CapacityError):
            find_dutch_book(Book(coin, bets))
        big = OutcomeSpace([f"w{i}" for i in range(21)])
        with pytest.raises(CapacityError):
            find_dutch_book(Book(big, [outright(big.atom("w0"), "1/2")]))

    def test_randomized_coherent_books_have_no_dutch_book(self):
        rng = random.Random(1905)
        for _ in range(150):
            space = random_space(rng)
            joint = random_joint(rng, space)
            book = coherent_book(rng, space, joint, rng.randint(1, 8))
            assert find_dutch_book(book) is None

    def test_randomized_violations_are_caught_and_verified(self):
        rng = random.Random(1906)
        for _ in range(150):
            space = random_space(rng)
            joint = random_joint(rng, space)
            book = violating_book(rng, space, joint, rng.randint(0, 8))
            stakes = find_dutch_book(book)
            assert stakes is not None
            exploited = book.with_stakes(stakes)
            for word in space.words():
                assert payoff(exploited, word) <= -1


class TestCheckAxioms:
    def test_consistent_assignment_has_no_violations(self, coin):
        a, na = coin.atom("a"), coin.atom("na")
        assignment = QuotientAssignment(coin)
        assignment.set_quotient(a, F(1, 2))
        assignment.set_quotient(na, F(1, 2))
        assignment.set_quotient(coin.omega, 1)
        assignment.set_quotient(coin.empty, 0)
        assignment.set_conditional(a, coin.omega, F(1, 2))
        assignment.set_conditional(a, a, 1)
        assert check_axioms(assignment) == []

    def test_additivity_violation_reported(self, coin):
        a, na = coin.atom("a"), coin.atom("na")
        assignment = QuotientAssignment(coin)
        assignment.set_quotient(a, F(3, 10))
        assignment.set_quotient(na, F(3, 10))
        assignment.set_quotient(a | na, 1)
        found = check_axioms(assignment)
        assert found and all(v.axiom == "additivity" for v in found)

    def test_overround_atom_family_reported_without_explicit_join(self):
        # no pairwise join is assigned; only iterated additivity over the
        # exhaustive atoms plus q(TRUE) = 1 exposes the overround
        space = OutcomeSpace(["x", "y", "z"])
        assignment = QuotientAssignment(space)
        for name, q in [("x", F(3, 5)), ("y", F(3, 10)), ("z", F(1, 5))]:
            assignment.set_quotient(space.atom(name), q)
        found = check_axioms(assignment)
        assert [v.axiom for v in found] == ["additivity"]

    def test_normalization_violation_reported(self, coin):
        assignment = QuotientAssignment(coin)
        assignment.set_quotient(coin.omega, F(9, 10))
        assert [v.axiom for v in check_axioms(assignment)] == ["normalization"]

    def test_positivity_violation_reported(self, coin):
        assignment = QuotientAssignment(coin)
        assignment.set_quotient(coin.atom("a"), F(-1, 10))
        assert [v.axiom for v in check_axioms(assignment)] == ["positivity"]

    def test_bound_violation_reported(self, coin):
        # q <= 1 follows from the axioms; a lone quotient above it is flagged
        # even when the complement is unassigned
        a, na = coin.atom("a"), coin.atom("na")
        assignment = QuotientAssignment(coin)
        assignment.set_quotient(a, F(3, 2))
        assert [v.axiom for v in check_axioms(assignment)] == ["bound"]
        assignment = QuotientAssignment(coin)
        assignment.set_conditional(a, a | na, F(3, 2))
        assert [v.axiom for v in check_axioms(assignment)] == ["bound"]
        assignment.set_conditional(na, a | na, 1)  # q = 1 itself is allowed
        assert [v.axiom for v in check_axioms(assignment)] == ["bound"]

    def test_messages_render_each_proposition_unambiguously(self):
        # ' | ' is the disjunction of the book syntax; conditioning reads 'given'
        space = OutcomeSpace(["a", "b", "c"])
        a, b, c = (space.atom(x) for x in "abc")
        assignment = QuotientAssignment(space)
        assignment.set_conditional(a, a | b, F(-1, 2))
        assignment.set_conditional(c, a | c, F(3, 2))
        assert [str(v) for v in check_axioms(assignment)] == [
            "positivity: q(a given a | b) = -1/2 < 0",
            "bound: q(c given a | c) = 3/2 > 1",
        ]
        assignment = QuotientAssignment(space)
        assignment.set_quotient(a | b, F(1, 5))
        assignment.set_quotient(c, F(1, 5))
        assignment.set_quotient(a | b | c, F(1, 2))
        assert [str(v) for v in check_axioms(assignment)] == [
            "normalization: q(TRUE) = 1/2 != 1",
            "additivity: q(a | b) + q(c) = 1/5 + 1/5 != q(TRUE) = 1/2",
        ]
        assignment = QuotientAssignment(space)
        assignment.set_quotient(a | b, F(1, 2))
        assignment.set_quotient(a, F(1, 4))
        assignment.set_conditional(a, a | b, F(1, 3))
        assert [str(v) for v in check_axioms(assignment)] == [
            "multiplication: q(a) = 1/4 != q(a given a | b) * q(a | b) = 1/6",
        ]

    def test_multiplication_violation_reported(self):
        space = OutcomeSpace(["ab", "anb", "nb"])
        a = space.proposition(["ab"])
        b = space.proposition(["ab", "anb"])
        assignment = QuotientAssignment(space)
        assignment.set_quotient(b, F(1, 2))
        assignment.set_quotient(a & b, F(1, 4))
        assignment.set_conditional(a, b, F(1, 3))
        found = check_axioms(assignment)
        assert [v.axiom for v in found] == ["multiplication"]
        assert isinstance(found[0], AxiomViolation)


class TestAveragePayoff:
    def test_overround_book_loses_a_fifth_on_average(self, coin):
        book = Book(
            coin,
            [outright(coin.atom("a"), "3/5"), outright(coin.atom("na"), "3/5")],
        )
        assert average_payoff(book, [F(1, 2), F(1, 2)]) == F(-1, 5)

    def test_empty_book_averages_zero(self, coin):
        assert average_payoff(Book(coin, []), [F(1, 2), F(1, 2)]) == 0

    def test_rejects_unnormalized_joint(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "1/2")])
        with pytest.raises(ValueError):
            average_payoff(book, [F(1, 2), F(1, 3)])
        with pytest.raises(ValueError):
            average_payoff(book, [F(3, 2), F(-1, 2)])

    def test_consistent_quotients_give_exactly_zero(self):
        rng = random.Random(77)
        for _ in range(60):
            space = random_space(rng)
            joint = random_joint(rng, space)
            book = coherent_book(rng, space, joint, rng.randint(1, 8))
            assert average_payoff(book, joint) == 0
            assert average_payoff_product_joint(book, joint) == 0

    def test_product_joint_matches_word_joint_in_expectation(self):
        # Correlations between bets never move the mean payoff, so the
        # independent-outcome product joint must agree exactly with the
        # single-word expectation, coherent or not.
        rng = random.Random(78)
        for _ in range(40):
            space = random_space(rng)
            joint = random_joint(rng, space)
            book = coherent_book(rng, space, joint, rng.randint(1, 6))
            skewed = Book(
                space,
                [
                    ConditionalBet(
                        b.target,
                        b.condition,
                        b.quotient + F(rng.randint(-20, 20), 100),
                        b.stake,
                    )
                    for b in book.bets
                ],
            )
            assert average_payoff_product_joint(skewed, joint) == average_payoff(
                skewed, joint
            )

    def test_both_averages_match_their_enumerations(self):
        # per-bet sums against the literal word walk and 3**bets walk
        rng = random.Random(79)
        for _ in range(40):
            space = random_space(rng)
            joint = random_joint(rng, space)
            book = coherent_book(rng, space, joint, rng.randint(1, 6))
            skewed = Book(
                space,
                [
                    ConditionalBet(
                        b.target,
                        b.condition,
                        b.quotient + F(rng.randint(-20, 20), 100),
                        b.stake,
                    )
                    for b in book.bets
                ],
            )
            assert average_payoff(skewed, joint) == word_joint_average(skewed, joint)
            assert average_payoff_product_joint(skewed, joint) == product_joint_average(
                skewed, joint
            )

    def test_long_books_have_no_bet_cap(self):
        # 200 bets: far past any enumeration, still exact
        rng = random.Random(80)
        space = random_space(rng)
        joint = random_joint(rng, space)
        book = coherent_book(rng, space, joint, 200)
        assert average_payoff_product_joint(book, joint) == 0
        index = rng.randrange(len(book.bets))
        bet = book.bets[index]
        delta = F(1, 7)
        bets = list(book.bets)
        bets[index] = ConditionalBet(bet.target, bet.condition, bet.quotient + delta, bet.stake)
        p_cond = event_probability(space, joint, bet.condition)
        expected = -delta * p_cond * bet.stake
        assert average_payoff_product_joint(Book(space, bets), joint) == expected
        assert average_payoff(Book(space, bets), joint) == expected

    def test_repeated_bets_get_independent_outcomes_in_product_joint(self, coin):
        # a fair bet repeated twice: win/lose combinations each carry weight 1/4
        bet = outright(coin.atom("a"), "1/2", stake=2)
        book = Book(coin, [bet, bet])
        joint = [F(1, 2), F(1, 2)]
        assert average_payoff_product_joint(book, joint) == 0


class TestEventProbability:
    def test_sums_atom_masses(self, coin):
        joint = [F(1, 3), F(2, 3)]
        assert event_probability(coin, joint, coin.atom("a")) == F(1, 3)
        assert event_probability(coin, joint, coin.omega) == 1
        assert event_probability(coin, joint, coin.empty) == 0


class TestSuccessionLaws:
    def test_laplace_values(self):
        assert laplace_succession(0, 0) == F(1, 2)
        assert laplace_succession(10, 3) == F(1, 3)
        assert laplace_succession(98, 49) == F(50, 100)

    def test_laplace_input_errors(self):
        with pytest.raises(ValueError):
            laplace_succession(3, 4)
        with pytest.raises(ValueError):
            laplace_succession(-1, 0)

    @given(n=st.integers(1, 5000), k=st.integers(0, 5000))
    @settings(max_examples=300)
    def test_laplace_stays_near_the_relative_frequency(self, n, k):
        if k > n:
            k = k % (n + 1)
        value = laplace_succession(n, k)
        assert 0 < value < 1
        if k >= 1:
            assert abs(value - F(k, n)) <= F(3, n + 2)

    def test_values_match_the_public_constructor(self):
        # both build their Fractions directly; == and hash compare the stored
        # numerator and denominator, so unreduced values would fail here
        for n in (0, 1, 2, 9, 30, 61, 2001):
            for k in range(n + 1):
                for value, expected in (
                    (laplace_succession(n, k), F(k + 1, n + 2)),
                    (classical_predictive(n, k), F(1, (n + 1) * math.comb(n, k))),
                ):
                    assert type(value) is F and value == expected
                    assert hash(value) == hash(expected)
                    assert value + 0 == expected and str(value) == str(expected)

    def test_predictive_values(self):
        assert classical_predictive(1, 1) == F(1, 2)
        # oracle: integral of p(1-p) over [0,1] = 1/6
        assert classical_predictive(2, 1) == F(1, 6)

    def test_predictive_against_quadrature_oracle(self):
        import sympy as sp

        p = sp.symbols("p", positive=True)
        for n in range(0, 6):
            for k in range(n + 1):
                exact = sp.integrate(p**k * (1 - p) ** (n - k), (p, 0, 1))
                got = classical_predictive(n, k)
                assert sp.Rational(got.numerator, got.denominator) == exact

    @given(n=st.integers(0, 400), k=st.integers(0, 400))
    @settings(max_examples=200)
    def test_predictive_ratio_is_the_laplace_rule(self, n, k):
        if k > n:
            k = k % (n + 1)
        ratio = classical_predictive(n + 1, k + 1) / classical_predictive(n, k)
        assert ratio == laplace_succession(n, k)

    def test_predictive_input_errors(self):
        with pytest.raises(ValueError):
            classical_predictive(2, 3)


class TestBookConstruction:
    def test_float_quotients_rejected(self, coin):
        with pytest.raises(TypeError):
            ConditionalBet.outright(coin.atom("a"), 0.6)

    def test_with_stakes_length_checked(self, coin):
        book = Book(coin, [outright(coin.atom("a"), "1/2")])
        with pytest.raises(ValueError):
            book.with_stakes([F(1), F(2)])

    def test_bets_must_share_the_space(self, coin):
        other = OutcomeSpace(["x", "y"])
        with pytest.raises(ValueError):
            Book(coin, [outright(other.atom("x"), "1/2")])
