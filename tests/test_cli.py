"""End-to-end command-line behavior, including exit-code contracts."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdutch import cli
from qdutch.quantum import operator_to_json
from helpers import fresh_python

UP = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
PLUS = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]
DOWN = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mixed_state(tmp_path):
    return write_json(tmp_path / "rho.json", {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]})


@pytest.fixture
def overround_book(tmp_path):
    doc = {
        "atoms": ["a", "b"],
        "bets": [
            {"target": "a", "condition": "TRUE", "quotient": "3/5", "stake": "1/1"},
            {"target": "!a", "condition": "TRUE", "quotient": "3/5", "stake": "1/1"},
        ],
    }
    return write_json(tmp_path / "book.json", doc)


class TestSuccessionCommand:
    def test_prints_exact_and_decimal(self, capsys):
        assert cli.main(["succession", "--measure", "bures", "--n", "1", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "5/8" in out and "0.625" in out

    def test_comma_list_and_kfrac(self, capsys):
        assert cli.main(["succession", "--measure", "pure", "--n", "2,4", "--kfrac", "1/2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1/2 0.5", "1/2 0.5"]

    def test_requires_exactly_one_of_k_and_kfrac(self, capsys):
        assert cli.main(["succession", "--measure", "flat", "--n", "2"]) == 2
        assert capsys.readouterr().err
        assert (
            cli.main(["succession", "--measure", "flat", "--n", "2", "--k", "1", "--kfrac", "1/2"])
            == 2
        )
        assert capsys.readouterr().err

    def test_decimal_kfrac_is_an_input_error(self, capsys):
        assert cli.main(["succession", "--measure", "flat", "--n", "2", "--kfrac", "0.5"]) == 2
        assert capsys.readouterr().err

    def test_unknown_measure_is_an_input_error(self, capsys):
        assert cli.main(["succession", "--measure", "haar", "--n", "1", "--k", "1"]) == 2
        assert capsys.readouterr().err

    def test_cap_violation_is_an_input_error(self, capsys):
        assert cli.main(["succession", "--measure", "flat", "--n", "5000", "--k", "1"]) == 2
        capsys.readouterr()
        # n = 2000 is within the cap, but its succession needs n + 1 trials:
        # the message names the n the user gave as well as the n + 1.
        for command in ("succession", "figure1"):
            assert cli.main([command, "--measure", "flat", "--n", "2000", "--k", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: succession at n=2000 needs trial count 2001, which exceeds the cap 2000\n"
            )

    def test_cap_violation_leaves_no_partial_output(self, tmp_path, capsys):
        # every value is computed before the first byte is written
        argv = ["succession", "--measure", "flat", "--n", "5,5000", "--k", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
        out = tmp_path / "succ.txt"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestFigure1Command:
    def test_csv_grid(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = cli.main(
            ["figure1", "--measure", "flat", "--n", "10,20,40", "--kfrac", "1/2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("measure,n,k,correction_ratio_exact")
        assert len(lines) == 4
        assert lines[1].split(",")[0:3] == ["flat", "10", "5"]

    def test_pure_rows_are_exactly_one(self, tmp_path):
        out = tmp_path / "fig1.csv"
        cli.main(["figure1", "--measure", "pure", "--n", "1,7,33", "--kfrac", "1/3", "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            assert line.split(",")[3] == "1/1"

    def test_text_format(self, capsys):
        assert cli.main(["figure1", "--measure", "bures", "--n", "1", "--kfrac", "1/1", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "15/16" in out

    def test_bad_n_list(self, capsys):
        for argv in (
            ["figure1", "--measure", "flat", "--n", "10,x", "--kfrac", "1/2"],
            ["figure1", "--measure", "flat", "--n", ",", "--kfrac", "1/2"],
            ["succession", "--measure", "flat", "--n", ",", "--k", "0"],
        ):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --n expects") and captured.err.count("\n") == 1


class TestCoherenceCheckCommand:
    def test_dutch_book_detected_and_reported(self, overround_book, capsys):
        assert cli.main(["coherence-check", overround_book]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DUTCH BOOK: stakes ")
        assert "payoff[a]" in out

    def test_coherent_book(self, tmp_path, capsys):
        doc = {
            "atoms": ["a", "b"],
            "bets": [
                {"target": "a", "condition": "TRUE", "quotient": "3/10", "stake": "1/1"},
                {"target": "!a", "condition": "TRUE", "quotient": "7/10", "stake": "1/1"},
            ],
        }
        path = write_json(tmp_path / "fair.json", doc)
        assert cli.main(["coherence-check", path]) == 0
        assert capsys.readouterr().out.startswith("COHERENT")

    def test_missing_file_is_an_input_error(self, capsys):
        assert cli.main(["coherence-check", "no-such-file.json"]) == 2
        assert capsys.readouterr().err

    def test_malformed_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert cli.main(["coherence-check", str(path)]) == 2
        assert capsys.readouterr().err


class TestAxiomsCheckCommand:
    def test_reports_violations(self, overround_book, capsys):
        assert cli.main(["axioms-check", overround_book]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION additivity" in out

    def test_quotient_above_one_is_a_bound_violation(self, tmp_path, capsys):
        doc = {"atoms": ["a", "b"], "bets": [{"target": "a", "quotient": "3/2"}]}
        path = write_json(tmp_path / "over.json", doc)
        assert cli.main(["axioms-check", path]) == 0
        assert capsys.readouterr().out == "VIOLATION bound: q(a) = 3/2 > 1\n"

    def test_clean_book(self, tmp_path, capsys):
        doc = {
            "atoms": ["a", "b"],
            "bets": [
                {"target": "a", "condition": "TRUE", "quotient": "3/10"},
                {"target": "!a", "condition": "TRUE", "quotient": "7/10"},
                {"target": "a | !a", "condition": "TRUE", "quotient": "1/1"},
            ],
        }
        path = write_json(tmp_path / "clean.json", doc)
        assert cli.main(["axioms-check", path]) == 0
        assert capsys.readouterr().out.startswith("AXIOMS OK")


class TestLudersCommand:
    def test_updates_state_file(self, tmp_path, mixed_state, capsys):
        proj = write_json(tmp_path / "plus.json", {"dim": 2, "entries": PLUS})
        out = tmp_path / "updated.json"
        assert cli.main(["luders", "--state", mixed_state, "--projector", proj, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        matrix = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(2, 2)
        assert np.allclose(matrix, np.full((2, 2), 0.5))
        assert "q(condition) = 0.5" in capsys.readouterr().out

    def test_null_condition_is_a_domain_error(self, tmp_path, capsys):
        state = write_json(tmp_path / "up.json", {"dim": 2, "entries": UP})
        proj = write_json(tmp_path / "down.json", {"dim": 2, "entries": DOWN})
        assert cli.main(["luders", "--state", state, "--projector", proj]) == 1
        assert capsys.readouterr().err

    def test_invalid_state_is_an_input_error(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"dim": 2, "entries": [[2.0, 0], [0, 0], [0, 0], [0, 0]]})
        proj = write_json(tmp_path / "p.json", {"dim": 2, "entries": UP})
        assert cli.main(["luders", "--state", bad, "--projector", proj]) == 2
        assert capsys.readouterr().err


class TestAggregateCommand:
    def test_complete_family_decoheres(self, tmp_path, capsys):
        state = write_json(
            tmp_path / "rho.json",
            {"dim": 2, "entries": [[0.5, 0], [0.4, 0.1], [0.4, -0.1], [0.5, 0]]},
        )
        p1 = write_json(tmp_path / "p1.json", {"dim": 2, "entries": UP})
        p2 = write_json(tmp_path / "p2.json", {"dim": 2, "entries": DOWN})
        assert cli.main(["aggregate", "--state", state, "--projectors", f"{p1},{p2}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        matrix = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(2, 2)
        assert np.allclose(matrix, np.diag([0.5, 0.5]))


class TestDefinettiVerifyCommand:
    def test_small_grid_reports_and_passes(self, capsys):
        code = cli.main(
            ["definetti-verify", "--measure", "flat", "--nmax", "2", "--samples", "40000", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in out if line.startswith("{")]
        assert len(rows) == 6  # (n,k) pairs with n <= 2
        assert all(row["pass"] for row in rows)
        assert out[-1].endswith("passed at 4 sigma")

    def test_csv_format(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = cli.main(
            ["definetti-verify", "--measure", "pure", "--nmax", "1", "--samples", "20000", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "measure,n,k,exact,estimate,stderr,z,pass"
        assert len(lines) == 5  # header + 3 rows + summary comment


class TestQuantumBookCommand:
    def test_fair_book_averages_to_zero(self, tmp_path, mixed_state, capsys):
        book = write_json(
            tmp_path / "qbook.json",
            {
                "dim": 2,
                "bets": [
                    {"target": UP, "condition": PLUS, "quotient": 0.5, "stake": 2.0},
                    {"target": DOWN, "condition": None, "stake": -1.0},
                ],
            },
        )
        assert cli.main(["quantum-book", "--state", mixed_state, "--book", book]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value) < 1e-12
        assert "total |stake| = 3" in out


    def test_integer_quotient_and_stake_are_numbers(self, tmp_path, mixed_state, capsys):
        bet = {"target": UP, "condition": None, "quotient": 1, "stake": 2}
        book = write_json(tmp_path / "qbook.json", {"dim": 2, "bets": [bet]})
        assert cli.main(["quantum-book", "--state", mixed_state, "--book", book]) == 0
        # the bet wins nothing and loses 2 * (1 - 1/2)
        assert float(capsys.readouterr().out.splitlines()[0].split("=")[1]) == -1.0


class TestArgumentHandling:
    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["succession", "--nope", "1"]) == 2
        assert capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert capsys.readouterr().err

    def test_failed_parse_leaves_the_cached_parser_intact(self, capsys):
        argv = ["succession", "--measure", "bures", "--n", "1,3", "--k", "1"]
        cli._build_parser.cache_clear()
        fresh = cli.main(argv), capsys.readouterr().out
        cli._build_parser.cache_clear()
        assert cli.main(["succession"]) == 2
        capsys.readouterr()
        assert (cli.main(argv), capsys.readouterr().out) == fresh
        assert cli._build_parser.cache_info().misses == 1


class TestMalformedInputs:
    """Each malformed input exits 2 with one line on stderr and no traceback."""

    def _run(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")
        return captured

    def test_bare_list_of_non_objects(self, tmp_path, capsys):
        path = write_json(tmp_path / "bare.json", [1, 2])
        captured = self._run(["coherence-check", path], capsys)
        assert "bet #0 is not an object" in captured.err

    def test_nan_state(self, tmp_path, capsys):
        nan_state = [[float("nan"), 0], [0, 0], [0, 0], [0.5, 0]]
        state = write_json(tmp_path / "nan.json", {"dim": 2, "entries": nan_state})
        proj = write_json(tmp_path / "up.json", {"dim": 2, "entries": UP})
        captured = self._run(["luders", "--state", state, "--projector", proj], capsys)
        assert captured.out == ""

    def test_infinite_stake(self, tmp_path, mixed_state, capsys):
        book = write_json(
            tmp_path / "inf.json",
            {"dim": 2, "bets": [{"target": UP, "condition": None, "stake": float("inf")}]},
        )
        captured = self._run(["quantum-book", "--state", mixed_state, "--book", book], capsys)
        assert captured.out == ""
        assert "stake must be finite" in captured.err

    def test_overflowing_total_stake(self, tmp_path, mixed_state, capsys):
        bet = {"target": UP, "condition": None, "stake": 1e308}
        book = write_json(tmp_path / "big.json", {"dim": 2, "bets": [bet, bet]})
        captured = self._run(["quantum-book", "--state", mixed_state, "--book", book], capsys)
        assert captured.out == ""
        assert "total |stake|" in captured.err

    def test_overflowing_average_payoff(self, tmp_path, capsys):
        # the total |stake| is finite; only the payoff sum overflows
        state = write_json(tmp_path / "up_state.json", {"dim": 2, "entries": UP})
        bet = {"target": UP, "condition": None, "quotient": 1e300, "stake": 1e10}
        book = write_json(tmp_path / "huge.json", {"dim": 2, "bets": [bet]})
        captured = self._run(["quantum-book", "--state", state, "--book", book], capsys)
        assert captured.out == ""
        assert "average payoff" in captured.err

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("luders", {"dim": 2.7, "entries": UP}, '"dim" 2.7 is not a JSON integer'),
            ("luders", {"dim": "2", "entries": UP}, """"dim" '2' is not a JSON integer"""),
            ("luders", {"dim": 2, "entries": [[True, 0], *UP[1:]]}, "entries must be JSON numbers"),
            ("quantum-book", {"dim": 2.0, "bets": []}, '"dim" 2.0 is not a JSON integer'),
            ("quantum-book", {"dim": 2, "bets": [{"target": UP, "quotient": "0.25"}]},
             "quotient '0.25' is not a JSON number"),
            ("quantum-book", {"dim": 2, "bets": [{"target": UP, "stake": "5"}]},
             "stake '5' is not a JSON number"),
            ("quantum-book", {"dim": 2, "bets": [{"target": UP, "stake": False}]},
             "stake False is not a JSON number"),
            # refused before numpy's reshape sees a negative size
            ("luders", {"dim": -2, "entries": UP}, '"dim" -2 lies outside [2, 16]'),
            # refused although an empty book never builds an operator
            ("quantum-book", {"dim": -3, "bets": []}, '"dim" -3 lies outside [2, 16]'),
            ("quantum-book", {"dim": 17, "bets": []}, '"dim" 17 lies outside [2, 16]'),
        ],
    )
    def test_wrong_json_types_in_quantum_files(self, tmp_path, mixed_state, command, doc, message, capsys):
        path = write_json(tmp_path / "doc.json", doc)
        flag = "--projector" if command == "luders" else "--book"
        captured = self._run([command, "--state", mixed_state, flag, path], capsys)
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("nmax", ["-1", "301", "2001"])
    def test_nmax_out_of_range(self, nmax, capsys):
        # rejected before any sampling, so the cap case returns at once
        captured = self._run(["definetti-verify", "--nmax", nmax], capsys)
        assert captured.out == ""
        assert "--nmax" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nmax", "1", "--samples", "99999999999999999999"],
            ["--measure", "flat", "--nmax", "300", "--samples", "100000"],
        ],
    )
    def test_too_many_draws(self, argv, capsys):
        # rejected before any sampling, so an enormous request returns at once
        captured = self._run(["definetti-verify", *argv], capsys)
        assert captured.out == ""
        assert "draws requested" in captured.err

    def test_deep_nesting(self, tmp_path, mixed_state, capsys):
        deep_json = tmp_path / "deep.json"
        deep_json.write_text("[" * 100_000 + "]" * 100_000)
        self._run(["coherence-check", str(deep_json)], capsys)
        self._run(["luders", "--state", str(deep_json), "--projector", mixed_state], capsys)
        bet = {"target": "!" * 5_000 + "a", "quotient": "1/2"}
        deep_expr = write_json(tmp_path / "expr.json", {"atoms": ["a"], "bets": [bet]})
        self._run(["coherence-check", deep_expr], capsys)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "x"])
    def test_non_finite_or_negative_tolerance(self, tmp_path, mixed_state, tol, capsys):
        book = write_json(
            tmp_path / "bad.json",
            {"dim": 2, "bets": [{"target": [[2.0, 0], [0, 0], [0, 0], [0, 0]], "stake": 1.0}]},
        )
        argv = ["quantum-book", "--state", mixed_state, "--book", book, f"--tol={tol}"]
        assert cli.main(argv) == 2
        assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["qdutch", "qdutch.cli"])
def test_runs_as_a_module(module):
    out = fresh_python("-m", module, "succession", "--measure", "flat", "--n", "10", "--k", "3")
    assert out == "2759/6792 0.406213191991\n"


# --- the lazy package surface -------------------------------------------------

LAYERS = ["books", "coherence", "errors", "exchangeable", "feasibility", "montecarlo", "quantum", "rationals"]


def test_bare_import_loads_no_layer_and_cli_loads_every_layer_but_no_numpy():
    out = fresh_python(
        "-c",
        "import sys\n"
        "def loaded():\n"
        "    print(' '.join(sorted(m for m in sys.modules if m.startswith('qdutch'))))\n"
        "import qdutch\n"
        "loaded()\n"
        "from qdutch import cli\n"
        "loaded()\n"
        "print('numpy' in sys.modules)\n"
    )
    bare, with_cli, numpy_loaded = out.splitlines()
    assert bare.split() == ["qdutch"]
    # The bench's cache reset and tracer find these in sys.modules after `from qdutch import cli`.
    assert with_cli.split() == [
        "qdutch", "qdutch.books", "qdutch.cli", "qdutch.coherence", "qdutch.errors",
        "qdutch.exchangeable", "qdutch.feasibility", "qdutch.montecarlo", "qdutch.quantum",
        "qdutch.rationals",
    ]
    assert numpy_loaded == "False"


def test_every_public_name_resolves_after_a_bare_import():
    """Each exported name is the very object of every layer that binds it."""
    out = fresh_python(
        "-c",
        "import sys, qdutch\n"
        f"layers = {LAYERS!r}\n"
        "values = {name: getattr(qdutch, name) for name in qdutch.__all__ + layers}\n"
        "mods = [sys.modules['qdutch.' + layer] for layer in layers]\n"
        "assert all(values[layer] is mod for layer, mod in zip(layers, mods))\n"
        "for name in qdutch.__all__:\n"
        "    owners = [mod for mod in mods if name in vars(mod)]\n"
        "    assert owners and all(vars(mod)[name] is values[name] for mod in owners), name\n"
        "print(len(qdutch.__all__), len(values))\n"
    )
    assert out == "61 69\n"


def test_dir_lists_every_public_name_and_layer():
    import qdutch

    assert set(qdutch.__all__) | set(LAYERS) <= set(dir(qdutch))


def test_unknown_name_raises_attribute_error():
    import qdutch

    with pytest.raises(AttributeError, match="no_such_name"):
        qdutch.no_such_name
    assert not hasattr(qdutch, "no_such_name")


def test_star_import_binds_every_public_name():
    out = fresh_python(
        "-c",
        "from qdutch import *\n"
        "import qdutch\n"
        "print(sorted(set(qdutch.__all__) - set(globals())), len(qdutch.__all__))\n"
    )
    assert out == "[] 61\n"


def test_layer_attribute_works_after_a_bare_import():
    out = fresh_python(
        "-c",
        "import qdutch\n"
        "print(qdutch.exchangeable.succession(qdutch.Measure.FLAT, qdutch.RunSpec(10, 3)))\n"
    )
    assert out == "2759/6792\n"


# --- numpy stays out of the exact layers ------------------------------------

def test_exact_commands_run_without_numpy(overround_book):
    script = (
        "import contextlib, io, sys\n"
        "from qdutch import cli\n"
        "book = sys.argv[1]\n"
        "for argv in (['succession', '--measure', 'bures', '--n', '10', '--k', '3'],\n"
        "             ['figure1', '--measure', 'flat', '--n', '10,20', '--kfrac', '1/2'],\n"
        "             ['coherence-check', book], ['axioms-check', book]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh_python("-c", script, overround_book) == "False\n"


def test_first_numpy_use_from_threads_at_once():
    """numpy, and each layer the package loads on first access, is first
    imported by whichever thread gets there first; the others must wait for
    the whole module, not see it half initialized."""
    script = (
        "import sys, threading\n"
        "import qdutch\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(4)\n"
        "errors = []\n"
        "def touch(i):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        qdutch.quantum.DensityOperator.maximally_mixed(2)\n"
        "        qdutch.draw_samples(qdutch.SampleConfig(qdutch.Measure.BURES, seed=i, samples=10))\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=touch, args=(i,)) for i in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(sum(t.is_alive() for t in threads), errors)\n"
    )
    assert fresh_python("-c", script) == "0 []\n"


# --- fuzzing the file loaders through main() -------------------------------

_json_leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_number = st.integers() | st.floats()
_entries = st.sampled_from([UP, DOWN, PLUS]) | st.lists(
    st.lists(_number, min_size=2, max_size=2), max_size=5
) | _json
_operator = st.fixed_dictionaries({"dim": st.integers(-1, 3) | _json, "entries": _entries}) | _json

_expression = st.sampled_from(["a", "b", "!a", "a & b", "a | !b", "(a", "TRUE", "FALSE", "c", "a $"])
_rational = st.sampled_from(["1/2", "3/5", "-1/3", "2", "1/0", "0.5", ""])
_bet = st.fixed_dictionaries(
    {"target": _expression | _json, "quotient": _rational | _json},
    optional={"condition": _expression | _json, "stake": _rational | _json},
)
_book = (
    st.lists(_bet | _json, max_size=5)
    | st.fixed_dictionaries({"atoms": st.just(["a", "b"]) | _json, "bets": st.lists(_bet, max_size=5) | _json})
    | _json
)
_quantum_bet = st.fixed_dictionaries(
    {"target": _entries},
    optional={"condition": st.none() | _entries, "quotient": st.none() | _number | _json,
              "stake": _number | _json},
)
_quantum_book = (
    st.fixed_dictionaries({"dim": st.just(2) | _json, "bets": st.lists(_quantum_bet, max_size=4) | _json})
    | _json
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_json(directory / "state.json", {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]})
    write_json(directory / "proj.json", {"dim": 2, "entries": PLUS})
    return directory


def _fuzz_main(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")


class TestLoaderFuzz:
    """Arbitrary JSON files never make main() raise or return another code."""

    @given(doc=_book, command=st.sampled_from(["coherence-check", "axioms-check"]))
    @settings(max_examples=150, deadline=None)
    def test_classical_book(self, fuzz_dir, doc, command):
        path = write_json(fuzz_dir / "book.json", doc)
        _fuzz_main([command, path])

    @given(doc=_quantum_book)
    @settings(max_examples=150, deadline=None)
    def test_quantum_book(self, fuzz_dir, doc):
        path = write_json(fuzz_dir / "qbook.json", doc)
        _fuzz_main(["quantum-book", "--state", str(fuzz_dir / "state.json"), "--book", path])

    @given(doc=_operator, fuzz_state=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_luders(self, fuzz_dir, doc, fuzz_state):
        path = write_json(fuzz_dir / "op.json", doc)
        state, proj = str(fuzz_dir / "state.json"), str(fuzz_dir / "proj.json")
        if fuzz_state:
            state = path
        else:
            proj = path
        _fuzz_main(["luders", "--state", state, "--projector", proj])
