"""Projector algebra, Born quotients, conditioning and state updates."""

import json

import numpy as np
import pytest

from qdutch import (
    CapacityError,
    DensityOperator,
    NullConditionError,
    Projector,
    QuantumBet,
    aggregated_update,
    born,
    commutes,
    conditional,
    join,
    load_density,
    load_projector,
    load_quantum_book,
    luders_update,
    meet,
    negate,
    operator_from_json,
    operator_to_json,
    quantum_average_payoff,
    save_operator,
)
from helpers import (
    commuting_pair,
    enumerated_quantum_average,
    random_density,
    random_projector,
)

UP = Projector.from_ket([1, 0])
DOWN = Projector.from_ket([0, 1])
PLUS = Projector.from_ket([1, 1])
TOL = 1e-9


def assert_close(a, b, tol=TOL):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Projector([[0, 1], [0, 0]])

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector([[0.5, 0], [0, 0.5]])

    def test_resymmetrization_tolerates_serialization_noise(self):
        noisy = UP.matrix + np.array([[0, 1e-12], [-1e-12, 0]])
        assert_close(Projector(noisy).matrix, UP.matrix)

    def test_density_needs_unit_trace_and_positivity(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Projector([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator([[0.5, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator([[0.5, complex(0, bad)], [complex(0, -bad), 0.5]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_stake_or_quotient_rejected(self, bad):
        with pytest.raises(ValueError, match="stake"):
            QuantumBet.outright(UP, 0.5, stake=bad)
        with pytest.raises(ValueError, match="quotient"):
            QuantumBet.outright(UP, bad)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            Projector([[1.0]])
        with pytest.raises(CapacityError):
            Projector(np.eye(17))

    def test_dimension_mismatch_rejected(self):
        rho3 = DensityOperator.maximally_mixed(3)
        with pytest.raises(ValueError, match="mismatch"):
            born(rho3, UP)
        with pytest.raises(ValueError, match="mismatch"):
            meet(UP, Projector.identity(3))


class TestLatticeOperations:
    def test_negation(self):
        assert_close(negate(Projector.identity(2)).matrix, np.zeros((2, 2)))
        assert_close(negate(UP).matrix, DOWN.matrix)

    def test_negation_is_an_involution(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5, 16):
            p = random_projector(rng, d)
            assert_close(negate(negate(p)).matrix, p.matrix)

    def test_meet_of_commuting_diagonals_is_the_product(self):
        p = Projector(np.diag([1.0, 0.0]))
        q = Projector(np.diag([1.0, 1.0]))
        assert_close(meet(p, q).matrix, np.diag([1.0, 0.0]))

    def test_meet_of_skew_rays_is_zero(self):
        assert meet(UP, PLUS).rank == 0

    def test_join_with_complement_is_identity(self):
        rng = np.random.default_rng(4)
        for d in (2, 4, 7):
            p = random_projector(rng, d)
            assert_close(join(p, negate(p)).matrix, np.eye(d))

    def test_commuting_pairs_reduce_to_products(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 6, 9):
            p, q = commuting_pair(rng, d)
            assert commutes(p, q)
            assert_close(meet(p, q).matrix, p.matrix @ q.matrix, 1e-8)
            assert_close(
                join(p, q).matrix,
                p.matrix + q.matrix - p.matrix @ q.matrix,
                1e-8,
            )

    def test_meet_is_dominated_by_both(self):
        rng = np.random.default_rng(6)
        for d in (3, 5):
            p = random_projector(rng, d)
            q = random_projector(rng, d)
            m = meet(p, q)
            assert_close(p.matrix @ m.matrix, m.matrix, 1e-8)
            assert_close(q.matrix @ m.matrix, m.matrix, 1e-8)

    def test_commutes_examples(self):
        assert commutes(Projector(np.diag([1.0, 0])), Projector(np.diag([0.0, 1])))
        assert not commutes(UP, PLUS)
        assert commutes(UP, Projector.identity(2))


class TestBorn:
    def test_diagonal_case(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        assert born(rho, Projector(np.diag([1.0, 0]))) == pytest.approx(0.7)

    def test_maximally_mixed_gives_rank_over_dimension(self):
        rho = DensityOperator.maximally_mixed(2)
        for p in (UP, DOWN, PLUS):
            assert born(rho, p) == pytest.approx(0.5)

    def test_complement_identity(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 8):
            rho = random_density(rng, d)
            p = random_projector(rng, d)
            assert born(rho, p) + born(rho, negate(p)) == pytest.approx(1.0, abs=TOL)

    def test_additivity_on_orthogonal_commuting_projectors(self):
        rng = np.random.default_rng(12)
        for d in (3, 5, 8):
            rho = random_density(rng, d)
            p, q = commuting_pair(rng, d, orthogonal=True)
            assert born(rho, join(p, q)) == pytest.approx(
                born(rho, p) + born(rho, q), abs=1e-8
            )


class TestConditional:
    def test_mixed_state_skew_rays(self):
        rho = DensityOperator.maximally_mixed(2)
        # QrQ = Q/2 and tr(rQ) = 1/2, so the quotient is the overlap 1/2
        assert conditional(rho, UP, PLUS) == pytest.approx(0.5)

    def test_nested_projectors_reduce_to_the_born_ratio(self):
        rng = np.random.default_rng(13)
        for d in (3, 4, 8):
            rho = random_density(rng, d)
            q = random_projector(rng, d, rank=int(rng.integers(2, d + 1)))
            basis = np.linalg.eigh(q.matrix)[1][:, np.linalg.eigh(q.matrix)[0] > 0.5]
            sub = int(rng.integers(1, basis.shape[1] + 1))
            p = Projector(basis[:, :sub] @ basis[:, :sub].conj().T)
            assert conditional(rho, p, q) == pytest.approx(
                born(rho, p) / born(rho, q), abs=1e-9
            )

    def test_conditioning_event_on_itself_is_certain(self):
        rng = np.random.default_rng(14)
        for d in (2, 5):
            rho = random_density(rng, d)
            q = random_projector(rng, d)
            assert conditional(rho, q, q) == pytest.approx(1.0, abs=TOL)

    def test_null_condition_raises(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(NullConditionError):
            conditional(rho, UP, DOWN)

    def test_is_a_probability_measure_in_the_first_slot(self):
        rng = np.random.default_rng(15)
        for d in (4, 6):
            rho = random_density(rng, d)
            r = random_projector(rng, d)
            p, q = commuting_pair(rng, d, orthogonal=True)
            assert conditional(rho, Projector.identity(d), r) == pytest.approx(1.0, abs=TOL)
            assert conditional(rho, p, r) >= 0
            assert conditional(rho, join(p, q), r) == pytest.approx(
                conditional(rho, p, r) + conditional(rho, q, r), abs=1e-8
            )

    def test_multiplication_law_for_commuting_pairs(self):
        rng = np.random.default_rng(16)
        for d in (3, 5, 8):
            rho = random_density(rng, d)
            p, q = commuting_pair(rng, d)
            if born(rho, q) < 1e-6:
                continue
            assert born(rho, meet(p, q)) == pytest.approx(
                conditional(rho, p, q) * born(rho, q), abs=1e-8
            )

    def test_multiplication_law_fails_for_a_non_commuting_witness(self):
        # P onto the up ray, Q onto the diagonal ray: meet(P, Q) = 0, yet the
        # conditional quotient times q(Q) is tr(QrQP) = 1/4 for the mixed state.
        rho = DensityOperator.maximally_mixed(2)
        lhs = born(rho, meet(UP, PLUS))
        rhs = conditional(rho, UP, PLUS) * born(rho, PLUS)
        assert lhs == pytest.approx(0.0)
        assert rhs == pytest.approx(0.25)
        assert abs(lhs - rhs) > 0.1


class TestLudersUpdate:
    def test_mixed_state_collapses_onto_the_ray(self):
        rho = DensityOperator.maximally_mixed(2)
        assert_close(luders_update(rho, PLUS).matrix, PLUS.matrix)

    def test_identity_condition_is_a_no_op(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 4)
        assert_close(luders_update(rho, Projector.identity(4)).matrix, rho.matrix)

    def test_updated_state_is_certain_about_the_condition(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 8, 16):
            rho = random_density(rng, d)
            q = random_projector(rng, d)
            assert born(luders_update(rho, q), q) == pytest.approx(1.0, abs=TOL)

    def test_update_then_born_equals_conditional(self):
        rng = np.random.default_rng(23)
        for d in (2, 4, 9):
            rho = random_density(rng, d)
            p = random_projector(rng, d)
            q = random_projector(rng, d)
            assert born(luders_update(rho, q), p) == pytest.approx(
                conditional(rho, p, q), abs=TOL
            )

    def test_output_is_a_valid_state(self):
        rng = np.random.default_rng(24)
        for d in (2, 7, 16):
            rho = random_density(rng, d)
            q = random_projector(rng, d)
            updated = luders_update(rho, q)  # constructor re-validates
            assert isinstance(updated, DensityOperator)

    def test_null_condition_raises(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(NullConditionError):
            luders_update(rho, DOWN)


class TestAggregatedUpdate:
    def test_complete_family_decoheres(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng, 2)
        q = PLUS
        expected = q.matrix @ rho.matrix @ q.matrix + (
            negate(q).matrix @ rho.matrix @ negate(q).matrix
        )
        assert_close(aggregated_update(rho, [q, negate(q)]).matrix, expected)

    def test_single_projector_reduces_to_luders(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng, 3)
        q = random_projector(rng, 3)
        assert_close(
            aggregated_update(rho, [q]).matrix, luders_update(rho, q).matrix
        )

    def test_diagonal_state_is_fixed_by_its_eigenbasis(self):
        rho = DensityOperator.diagonal([3, 2, 1])
        basis = [Projector.onto(np.eye(3)[:, [i]]) for i in range(3)]
        assert_close(aggregated_update(rho, basis).matrix, rho.matrix)

    def test_equals_quotient_weighted_mixture_of_updates(self):
        rng = np.random.default_rng(33)
        rho = random_density(rng, 4)
        qs = [random_projector(rng, 4) for _ in range(3)]
        total = sum(born(rho, q) for q in qs)
        expected = sum(
            (born(rho, q) / total) * luders_update(rho, q).matrix for q in qs
        )
        assert_close(aggregated_update(rho, qs).matrix, expected)

    def test_all_null_conditions_raise(self):
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0]))
        dead = Projector.onto(np.eye(3)[:, [1]])
        with pytest.raises(NullConditionError):
            aggregated_update(rho, [dead])
        with pytest.raises(ValueError):
            aggregated_update(rho, [])


class TestQuantumAveragePayoff:
    def test_state_derived_quotients_average_to_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            book = []
            for _ in range(int(rng.integers(1, 6))):
                p = random_projector(rng, d)
                q = random_projector(rng, d)
                book.append(QuantumBet(p, q, stake=float(rng.uniform(-2, 2))))
            total = sum(abs(b.stake) for b in book) or 1.0
            assert abs(quantum_average_payoff(book, rho)) <= 1e-10 * total + 1e-14

    def test_explicit_quotients_match_derived_ones(self):
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        p, q = random_projector(rng, 3), random_projector(rng, 3)
        explicit = [QuantumBet(p, q, conditional(rho, p, q), 1.5)]
        derived = [QuantumBet(p, q, stake=1.5)]
        assert quantum_average_payoff(explicit, rho) == pytest.approx(
            quantum_average_payoff(derived, rho), abs=1e-12
        )

    def test_perturbed_quotient_shifts_the_average_by_its_weight(self):
        # with one quotient off by delta, the average moves by -delta q(Q) S
        rng = np.random.default_rng(43)
        rho = random_density(rng, 2)
        p, q = random_projector(rng, 2), random_projector(rng, 2)
        delta, stake = 0.1, 2.0
        fair = conditional(rho, p, q)
        book = [QuantumBet(p, q, fair + delta, stake)]
        expected = -delta * born(rho, q) * stake
        assert quantum_average_payoff(book, rho) == pytest.approx(expected, abs=1e-10)

    def test_empty_book_is_zero(self):
        assert quantum_average_payoff([], DensityOperator.maximally_mixed(2)) == 0.0

    def test_overflowing_average_is_an_error(self):
        # each stake is finite, but four of them overflow the sum
        book = [QuantumBet.outright(UP, 0.0, 1e308)] * 4
        with pytest.raises(ValueError, match="overflows"):
            quantum_average_payoff(book, DensityOperator.pure([1, 0]))

    def test_matches_the_outcome_enumeration(self):
        # the per-bet sum against the literal 4**bets enumeration
        rng = np.random.default_rng(44)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            book = []
            for _ in range(int(rng.integers(1, 7))):
                p, q = random_projector(rng, d), random_projector(rng, d)
                quotient = None if rng.random() < 0.5 else float(rng.uniform(0, 1))
                book.append(QuantumBet(p, q, quotient, float(rng.uniform(-2, 2))))
            total = sum(abs(b.stake) for b in book)
            assert abs(
                quantum_average_payoff(book, rho) - enumerated_quantum_average(book, rho)
            ) <= 1e-12 * total

    def test_long_books_have_no_bet_cap(self):
        # 200 bets: a 4**200 enumeration, answered per bet
        rng = np.random.default_rng(45)
        rho = random_density(rng, 3)
        book = [
            QuantumBet(random_projector(rng, 3), random_projector(rng, 3),
                       stake=float(rng.uniform(-2, 2)))
            for _ in range(200)
        ]
        total = sum(abs(b.stake) for b in book)
        assert abs(quantum_average_payoff(book, rho)) <= 1e-10 * total
        bet, delta = book[17], 0.1
        fair = conditional(rho, bet.target, bet.condition)
        book[17] = QuantumBet(bet.target, bet.condition, fair + delta, bet.stake)
        expected = -delta * born(rho, bet.condition) * bet.stake
        assert abs(quantum_average_payoff(book, rho) - expected) <= 1e-10 * total


class TestOperatorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        rho = random_density(rng, 3)
        path = tmp_path / "rho.json"
        save_operator(rho.matrix, path)
        assert_close(load_density(path).matrix, rho.matrix, 1e-15)

    def test_entry_layout_is_row_major_re_im(self):
        doc = operator_to_json(np.array([[1, 2j], [-2j, 0]]))
        assert doc == {"dim": 2, "entries": [[1.0, 0.0], [0.0, 2.0], [0.0, -2.0], [0.0, 0.0]]}
        assert_close(operator_from_json(doc), [[1, 2j], [-2j, 0]], 0)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            operator_from_json({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        with pytest.raises(ValueError, match="JSON"):
            load_projector(path)

    def test_quantum_book_file(self, tmp_path):
        doc = {
            "dim": 2,
            "bets": [
                {
                    "target": operator_to_json(UP.matrix)["entries"],
                    "condition": operator_to_json(PLUS.matrix)["entries"],
                    "quotient": 0.5,
                    "stake": 2.0,
                },
                {"target": operator_to_json(DOWN.matrix)["entries"], "stake": 1.0},
            ],
        }
        path = tmp_path / "book.json"
        path.write_text(json.dumps(doc))
        book = load_quantum_book(path)
        assert len(book) == 2
        assert book[0].quotient == 0.5
        assert book[1].quotient is None
        assert book[1].condition.rank == 2  # outright: identity condition

    def test_quantum_book_with_overflowing_total_stake_rejected(self, tmp_path):
        bet = {"target": operator_to_json(UP.matrix)["entries"], "stake": -1e308}
        path = tmp_path / "book.json"
        path.write_text(json.dumps({"dim": 2, "bets": [bet, bet]}))
        with pytest.raises(ValueError, match="total"):
            load_quantum_book(path)
