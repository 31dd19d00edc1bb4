"""Finite-dimensional projector algebra and projective state updates.

Propositions about a d-dimensional quantum system are projectors; a density
operator fixes the betting quotient of every projector via tr(rho P), and
conditioning on an observed projector Q updates the state to
Q rho Q / tr(rho Q).  Everything here is a pure function over immutable
numpy matrices.

Numerical contracts: operators are validated Hermitian/idempotent/positive
within ``OPERATOR_TOL`` after re-symmetrization (serialization rounding is
tolerated); subspace-intersection rank decisions use ``RANGE_CUT``;
conditioning on an event of probability below ``NULL_CONDITION_EPS`` raises
:class:`~qdutch.errors.NullConditionError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

# numpy is imported inside each function that uses it, so that `import qdutch`
# and the exact-engine commands never load it.
if TYPE_CHECKING:
    import numpy as np

from .errors import CapacityError, NullConditionError

OPERATOR_TOL = 1e-9
RANGE_CUT = 1e-8
NULL_CONDITION_EPS = 1e-12
MIN_DIM = 2
MAX_DIM = 16


def _validated_square(matrix, tol: float) -> np.ndarray:
    import numpy as np
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    d = m.shape[0]
    if d < MIN_DIM:
        raise ValueError(f"dimension {d} is below the minimum {MIN_DIM}")
    if d > MAX_DIM:
        raise CapacityError(f"dimension {d} exceeds the cap {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has a non-finite entry")
    sym = 0.5 * (m + m.conj().T)
    if np.max(np.abs(sym - m)) > tol:
        raise ValueError("operator is not Hermitian within tolerance")
    sym.setflags(write=False)
    return sym


class Projector:
    """An orthogonal projector: Hermitian and idempotent within tolerance."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, tol: float = OPERATOR_TOL):
        import numpy as np
        m = _validated_square(matrix, tol)
        if np.max(np.abs(m @ m - m)) > tol:
            raise ValueError("operator is not idempotent within tolerance")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        import numpy as np
        return int(round(np.real(np.trace(self.matrix))))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        import numpy as np
        return cls(np.eye(dim))

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        import numpy as np
        return cls(np.zeros((dim, dim)))

    @classmethod
    def from_ket(cls, ket) -> "Projector":
        """Rank-1 projector onto a (not necessarily normalized) state vector."""
        import numpy as np
        v = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot project onto the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def onto(cls, vectors) -> "Projector":
        """Projector onto the span of the given column vectors."""
        import numpy as np
        cols = np.asarray(vectors, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        keep = s > RANGE_CUT * max(1.0, s[0] if s.size else 1.0)
        basis = u[:, keep]
        return cls(basis @ basis.conj().T)

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


class DensityOperator:
    """A state of knowledge: Hermitian, positive semidefinite, unit trace."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, tol: float = OPERATOR_TOL):
        import numpy as np
        m = _validated_square(matrix, tol)
        if np.min(np.linalg.eigvalsh(m)) < -tol:
            raise ValueError("density operator has a negative eigenvalue")
        if abs(np.real(np.trace(m)) - 1.0) > tol:
            raise ValueError("density operator does not have unit trace")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        import numpy as np
        return cls(np.eye(dim) / dim)

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        return cls(Projector.from_ket(ket).matrix)

    @classmethod
    def diagonal(cls, weights) -> "DensityOperator":
        import numpy as np
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w / w.sum()))

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def _check_dims(*ops) -> int:
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def negate(p: Projector) -> Projector:
    """Projector onto the orthogonal complement of the range."""
    import numpy as np
    return Projector(np.eye(p.dim) - p.matrix)


def _range_basis(p: Projector) -> np.ndarray:
    import numpy as np
    vals, vecs = np.linalg.eigh(p.matrix)
    return vecs[:, vals > 0.5]


def meet(p: Projector, q: Projector) -> Projector:
    """Projector onto the intersection of the two ranges.

    Computed from orthonormal range bases: the singular values of the basis
    overlap are cosines of principal angles, and directions with cosine
    within ``RANGE_CUT`` of 1 span the intersection.  For commuting inputs
    this agrees with the product p q.
    """
    import numpy as np
    _check_dims(p, q)
    bp = _range_basis(p)
    bq = _range_basis(q)
    if bp.shape[1] == 0 or bq.shape[1] == 0:
        return Projector.zero(p.dim)
    u, s, _ = np.linalg.svd(bp.conj().T @ bq, full_matrices=False)
    shared = bp @ u[:, s >= 1.0 - RANGE_CUT]
    if shared.shape[1] == 0:
        return Projector.zero(p.dim)
    return Projector(shared @ shared.conj().T)


def join(p: Projector, q: Projector) -> Projector:
    """Projector onto the closed span of the two ranges (De Morgan dual of meet)."""
    return negate(meet(negate(p), negate(q)))


def commutes(p: Projector, q: Projector) -> bool:
    import numpy as np
    _check_dims(p, q)
    return bool(np.max(np.abs(p.matrix @ q.matrix - q.matrix @ p.matrix)) <= OPERATOR_TOL)


def born(rho: DensityOperator, p: Projector) -> float:
    """Betting quotient of a projector under a state: tr(rho P) in [0, 1]."""
    import numpy as np
    _check_dims(rho, p)
    value = float(np.real(np.trace(rho.matrix @ p.matrix)))
    return min(1.0, max(0.0, value))


def _condition_weight(rho: DensityOperator, q: Projector) -> float:
    """tr(rho Q), refusing a null conditioning event."""
    import numpy as np
    weight = float(np.real(np.trace(rho.matrix @ q.matrix)))
    if weight <= NULL_CONDITION_EPS:
        raise NullConditionError(
            f"conditioning event has probability {weight:.3e} <= {NULL_CONDITION_EPS:.0e}"
        )
    return weight


def conditional(rho: DensityOperator, p: Projector, q: Projector) -> float:
    """Quotient of p given that q was observed true: tr(QrQ P)/tr(rQ)."""
    import numpy as np
    _check_dims(rho, p, q)
    weight = _condition_weight(rho, q)
    qrq = q.matrix @ rho.matrix @ q.matrix
    value = float(np.real(np.trace(qrq @ p.matrix))) / weight
    return min(1.0, max(0.0, value))


def luders_update(rho: DensityOperator, q: Projector) -> DensityOperator:
    """Post-observation state Q rho Q / tr(rho Q)."""
    _check_dims(rho, q)
    weight = _condition_weight(rho, q)
    return DensityOperator(q.matrix @ rho.matrix @ q.matrix / weight)


def aggregated_update(rho: DensityOperator, qs: Sequence[Projector]) -> DensityOperator:
    """Pooled post-observation state over a projector family.

    Equals the quotient-weighted mixture of the individual updated states:
    sum_i Q_i rho Q_i / sum_i tr(rho Q_i).
    """
    import numpy as np
    if not qs:
        raise ValueError("need at least one conditioning projector")
    _check_dims(rho, *qs)
    total = sum(float(np.real(np.trace(rho.matrix @ q.matrix))) for q in qs)
    if total <= NULL_CONDITION_EPS:
        raise NullConditionError(
            f"all conditioning events are null (total probability {total:.3e})"
        )
    mixed = sum(q.matrix @ rho.matrix @ q.matrix for q in qs)
    return DensityOperator(mixed / total)


@dataclass(frozen=True)
class QuantumBet:
    """A conditional bet on ``target`` given ``condition``.

    ``quotient=None`` means "derive it from the state" when the bet is
    evaluated.  Outright bets use the identity as condition.  A given
    quotient and the stake must be finite.
    """

    target: Projector
    condition: Projector
    quotient: Optional[float] = None
    stake: float = 1.0

    def __post_init__(self):
        if self.quotient is not None and not math.isfinite(self.quotient):
            raise ValueError(f"quotient must be finite, got {self.quotient}")
        if not math.isfinite(self.stake):
            raise ValueError(f"stake must be finite, got {self.stake}")

    @classmethod
    def outright(cls, target: Projector, quotient=None, stake=1.0) -> "QuantumBet":
        return cls(target, Projector.identity(target.dim), quotient, stake)


def quantum_average_payoff(book: Sequence[QuantumBet], rho: DensityOperator) -> float:
    """State-averaged payoff of a book of conditional projector bets.

    A bet wins ``(1 - q) S`` with probability tr(Q rho Q P), loses ``q S``
    with probability tr(Q rho Q (1 - P)) and is called off otherwise.  Each
    bet's outcome probabilities sum to 1, so by linearity of expectation the
    average is the per-bet sum

        sum_i S_i (tr(Q_i rho Q_i P_i) - q_i tr(rho Q_i))

    whatever the joint over bets; no outcome combination is enumerated.  A
    quotient left as None is derived from the state as tr(Q rho Q P)/tr(rho Q);
    with quotients given by the state the average is zero up to rounding,
    whatever the stakes.  Raises ValueError when the sum overflows a float.
    """
    import numpy as np
    if not book:
        return 0.0
    _check_dims(rho, *(b.target for b in book), *(b.condition for b in book))
    total = 0.0
    for bet in book:
        qrq = bet.condition.matrix @ rho.matrix @ bet.condition.matrix
        p_on = float(np.real(np.trace(qrq)))
        p_win = float(np.real(np.trace(qrq @ bet.target.matrix)))
        quotient = bet.quotient
        if quotient is None:
            if p_on <= NULL_CONDITION_EPS:
                raise NullConditionError(
                    "cannot derive a quotient: conditioning event is null"
                )
            quotient = p_win / p_on
        total += bet.stake * (p_win - quotient * p_on)
    if not math.isfinite(total):
        raise ValueError("average payoff overflows a float")
    return total


# --- operator files ---------------------------------------------------------
#
# Text format: {"dim": d, "entries": [[re, im], ...]} with d*d row-major
# entries as decimal doubles.

#: The types `json` gives a number; ``type(x) in`` also refuses bool, an int subclass.
_JSON_NUMBER = (int, float)


def _json_number(value, what: str, types: tuple = _JSON_NUMBER):
    """``value`` unchanged if JSON gave it as one of ``types``; refuse anything else."""
    if type(value) not in types:
        kind = "number" if types is _JSON_NUMBER else "integer"
        raise ValueError(f"{what} {value!r} is not a JSON {kind}")
    return value


def operator_to_json(matrix: np.ndarray) -> dict:
    import numpy as np
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def operator_from_json(doc: dict) -> np.ndarray:
    import numpy as np
    try:
        dim, entries = doc["dim"], doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"operator file missing field: {exc}") from exc
    if not MIN_DIM <= _json_number(dim, '"dim"', (int,)) <= MAX_DIM:
        raise ValueError(f'operator file "dim" {dim} lies outside [{MIN_DIM}, {MAX_DIM}]')
    if not isinstance(entries, list):
        raise ValueError("operator file entries must be a list")
    if len(entries) != dim * dim:
        raise ValueError(
            f"operator file dim={dim} needs {dim * dim} entries, found {len(entries)}"
        )
    try:
        flat = [complex(re, im) for re, im in entries
                if type(re) in _JSON_NUMBER and type(im) in _JSON_NUMBER]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"operator entries must be [re, im] number pairs: {exc}") from exc
    if len(flat) != len(entries):
        raise ValueError("operator entries must be JSON numbers, not bools or strings")
    return np.array(flat).reshape(dim, dim)


def save_operator(matrix: np.ndarray, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(operator_to_json(matrix)) + "\n")


def _load_json(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_projector(path: Union[str, Path], *, tol: float = OPERATOR_TOL) -> Projector:
    return Projector(operator_from_json(_load_json(path)), tol=tol)


def load_density(path: Union[str, Path], *, tol: float = OPERATOR_TOL) -> DensityOperator:
    return DensityOperator(operator_from_json(_load_json(path)), tol=tol)


def load_quantum_book(
    path: Union[str, Path], *, tol: float = OPERATOR_TOL
) -> list[QuantumBet]:
    """Load a quantum book file.

    Format: {"dim": d, "bets": [{"target": entries, "condition": entries or
    null, "quotient": number or null, "stake": number}]} where entries use
    the operator-file convention; a null condition means an outright bet.
    The total |stake| must be finite.
    """
    doc = _load_json(path)
    try:
        dim, raw_bets = doc["dim"], doc["bets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: book file missing field: {exc}") from exc
    if not MIN_DIM <= _json_number(dim, f'{path}: "dim"', (int,)) <= MAX_DIM:
        raise ValueError(f'{path}: book "dim" {dim} lies outside [{MIN_DIM}, {MAX_DIM}]')
    if not isinstance(raw_bets, list):
        raise ValueError(f'{path}: book "bets" must be a list')

    def projector(entries) -> Projector:
        return Projector(operator_from_json({"dim": dim, "entries": entries}), tol=tol)

    bets = []
    for i, raw in enumerate(raw_bets):
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: bet #{i} is not an object")
        try:
            target = projector(raw["target"])
            condition = raw.get("condition")
            condition = Projector.identity(dim) if condition is None else projector(condition)
            quotient = raw.get("quotient")
            quotient = None if quotient is None else float(_json_number(quotient, "quotient"))
            stake = float(_json_number(raw.get("stake", 1.0), "stake"))
            bets.append(QuantumBet(target, condition, quotient, stake))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: bet #{i}: {exc}") from exc
    if not math.isfinite(sum(abs(bet.stake) for bet in bets)):
        raise ValueError(f"{path}: total |stake| overflows a float")
    return bets
