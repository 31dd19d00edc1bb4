"""Per-layer spans recorded from outside the package.

Each traced function is replaced, in every ``qdutch`` module that binds it,
by a wrapper that records one span per call: name, start, end and the index
of the enclosing traced span.  ``Projector`` and ``DensityOperator``
construction is traced as ``quantum.validation``.  Spans stay in memory; the
caller writes them out when the run ends.  Self time is a span's duration
minus the durations of its direct children (calls nest, so children never
overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: (module, function) pairs wrapped in every ``qdutch`` module that binds them.
TRACED = (
    ("cli", "main"),
    ("books", "load_book"),
    ("coherence", "find_dutch_book"),
    ("coherence", "payoff"),
    ("coherence", "average_payoff_product_joint"),
    ("feasibility", "stakes_forcing_sure_loss"),
    ("exchangeable", "run_probability"),
    ("exchangeable", "succession"),
    ("exchangeable", "succession_table"),
    ("exchangeable", "distribution_over_k"),
    ("montecarlo", "compare_exact_vs_mc"),
    ("montecarlo", "estimate_run_probability"),
    ("quantum", "quantum_average_payoff"),
    ("quantum", "luders_update"),
    ("quantum", "conditional"),
    ("quantum", "load_density"),
    ("quantum", "load_quantum_book"),
)
VALIDATION = "quantum.validation"
VALIDATED_CLASSES = ("Projector", "DensityOperator")


def _tableau_cells(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    n_rows = len(rows)
    n_bets = len(rows[0]) if n_rows else 0
    # Phase-1 tableau of a rows x bets payoff matrix: one line per row, and
    # columns u | v | slack | artificial | rhs.
    return n_rows * (2 * n_bets + 2 * n_rows + 1)


def _samples_requested(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return config.samples


#: Work counts taken from a traced function's arguments.
COUNTERS = {
    "feasibility.stakes_forcing_sure_loss": ("feasibility.tableau_cells", _tableau_cells),
    "montecarlo.estimate_run_probability": ("montecarlo.samples_requested", _samples_requested),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (VALIDATION,)
COUNTER_NAMES = tuple(name for name, _ in COUNTERS.values())


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                tracer.counts[key] = tracer.counts.get(key, 0) + count(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qdutch" or n.startswith("qdutch.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"qdutch.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if vars(mod).get(fn_name) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        quantum = sys.modules["qdutch.quantum"]
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(quantum, cls_name)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(VALIDATION, cls.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take_round(self) -> tuple[list, dict]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def round_summary(spans, counts) -> dict[str, float]:
    """Calls, self time and the extra counts of one traced round."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = 0
        out[f"{span}.self_s"] = 0.0
    first_call = None
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[i]
        if (
            first_call is None
            and name.startswith("exchangeable.")
            and (parent < 0 or not spans[parent][0].startswith("exchangeable."))
        ):
            first_call = end - start
    out["exchangeable.first_call_s"] = first_call or 0.0
    for key in COUNTER_NAMES:
        out[key] = counts.get(key, 0)
    return out


def median_summary(rounds: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def write_spans(path, rounds_of_spans) -> None:
    with open(path, "w") as fh:
        for round_index, spans in rounds_of_spans:
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({
                    "round": round_index, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
