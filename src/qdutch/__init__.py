"""qdutch: betting-book coherence, quantum conditioning, and succession laws.

The package has four computational layers plus a CLI:

* :mod:`qdutch.coherence` -- finite Boolean outcome algebras, conditional
  betting books, exact Dutch-book detection and axiom checks (with
  :mod:`qdutch.books` for book files and :mod:`qdutch.feasibility` for the
  exact simplex);
* :mod:`qdutch.quantum` -- projector algebra, Born-rule quotients,
  conditional quotients and projective state updates;
* :mod:`qdutch.exchangeable` -- exact rational succession laws for
  exchangeable qubit measurements under three state-space measures;
* :mod:`qdutch.montecarlo` -- a seeded, deterministic Monte Carlo estimator
  validating the exact engine;
* :mod:`qdutch.cli` -- the ``qdutch`` command.

``import qdutch`` loads none of the layers. Each public name below, and each
layer module, is imported from its owning module on first access.
"""

import importlib

__version__ = "0.1.0"

#: Each layer module and the public names the package re-exports from it.
_EXPORTS = {
    "books": ("dumps_book", "load_book", "loads_book", "parse_expression", "save_book"),
    "coherence": (
        "AxiomViolation", "Book", "ConditionalBet", "OutcomeSpace", "OutcomeWord",
        "Proposition", "QuotientAssignment", "assignment_from_book", "average_payoff",
        "average_payoff_product_joint", "check_axioms", "classical_predictive",
        "event_probability", "find_dutch_book", "format_proposition", "laplace_succession",
        "payoff",
    ),
    "errors": ("CapacityError", "NullConditionError"),
    "exchangeable": (
        "DEFAULT_N_CAP", "Measure", "RunSpec", "SuccessionRow", "correction_ratio",
        "correction_term", "distribution_over_k", "run_probability", "succession",
        "succession_row", "succession_table", "write_succession_csv",
    ),
    "feasibility": (),
    "montecarlo": (
        "ComparisonReport", "SampleBatch", "SampleConfig", "UnstableRatioWarning",
        "compare_exact_vs_mc", "draw_samples", "estimate_run_probability",
        "estimate_succession",
    ),
    "quantum": (
        "DensityOperator", "Projector", "QuantumBet", "aggregated_update", "born",
        "commutes", "conditional", "join", "load_density", "load_projector",
        "load_quantum_book", "luders_update", "meet", "negate", "operator_from_json",
        "operator_to_json", "quantum_average_payoff", "save_operator",
    ),
    "rationals": ("format_decimal", "format_rational", "parse_rational"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """Import the layer that owns ``name`` on first access and keep the value."""
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            value = importlib.import_module(f"{__name__}.{module}")
            if name != module:
                value = getattr(value, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
