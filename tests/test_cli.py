"""Command-line interface: subcommands, config handling, exit codes."""

import argparse
import concurrent.futures
import contextlib
import csv
import errno
import inspect
import io
import math
import os
import subprocess
import sys
import types
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cropguard
import cropguard.optimal_control as optimal_control
from cropguard import bifurcation, cli, integrate
from cropguard.bifurcation import SweepSpec
from cropguard.cli import main
from cropguard.integrate import TimeGrid, rk4_model
from cropguard.model import DEFAULT_STATE, ModelParams, ObjectiveWeights
from cropguard.optimal_control import SweepOptions, solve


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulate:
    def test_default_initial_state_and_grid(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--tf", "1", "--dt", "0.1", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["t", "X", "S", "I", "A"]
        assert len(rows) == 11
        assert [float(v) for v in rows[0]] == [0.0, 0.2, 0.07, 0.05, 0.5]
        assert float(rows[-1][0]) == 1.0
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_initial_state_flags(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli("simulate", "--tf", "0.5", "--dt", "0.1", "--X0", "0.9", "--out", str(out))
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.9

    def test_stdout_output(self, capsys):
        assert run_cli("simulate", "--tf", "0.2", "--dt", "0.1", "--out", "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,X,S,I,A")
        assert len(lines) == 4

    def test_blowup_exits_3(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--r", "8", "--tf", "100", "--dt", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "integration blow-up" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("simulate", "--tf", "1", "--dt", "0.1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}: No such file or directory" in err, err


CHUNK = integrate._CHUNK_STEPS


class TestSimulateBlocks:
    """``simulate`` formats its rows in blocks of ``_CHUNK_STEPS``, one
    ``%`` per block, to the bytes of a cell-by-cell ``%.12g``."""

    @pytest.mark.parametrize("n_steps", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_rows_equal_a_cell_by_cell_reference(self, n_steps, to_file, tmp_path, capsys):
        out = tmp_path / "x.csv" if to_file else None
        assert run_cli("simulate", "--tf", repr(n_steps * 0.05), "--dt", "0.05",
                       "--out", str(out) if out else "-") == 0
        got = out.read_text() if out else capsys.readouterr().out
        run = rk4_model(ModelParams(), DEFAULT_STATE, TimeGrid(0.0, n_steps * 0.05, n_steps))
        rows = zip(run.times().tolist(), *run.states.T.tolist())
        assert got == reference_csv(("t", "X", "S", "I", "A"), rows)

    def test_a_reader_closing_mid_write_exits_1(self, tmp_path, monkeypatch):
        """Unbuffered (python -u), stdout hands each write to the file
        as it is.  This one takes 64 KiB, as a pipe whose reader leaves
        would: that write comes back short without an error, and only the
        next one fails.  Each run's rows (~66 KB for simulate, ~142 KB
        for optimize) are one block, which in one write would exit 0."""
        class Pipe(io.FileIO):
            taken = 0

            def write(self, data):
                if self.taken == 65536:
                    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
                n = min(len(data), 65536 - self.taken)
                self.taken += n
                return super().write(data[:n])

        for argv in (("simulate", "--tf", "50", "--dt", "0.05"),
                     ("optimize", "--tf", "10", "--dt", "0.01")):
            with io.TextIOWrapper(Pipe(tmp_path / "pipe", "w"), write_through=True) as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert run_cli(*argv, "--out", "-") == 1, argv
                monkeypatch.undo()

    def test_a_blowup_in_a_later_chunk_exits_3_and_keeps_the_out_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\n")
        # RK4 just outside its stability interval on A's decay: the run
        # blows up at step 8586, past the first chunk
        assert run_cli("simulate", "--eta", "10", "--dt", "0.284", "--tf", "3000",
                       "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "integration blow-up: state became non-finite at t = 2438.51\n")
        assert out.read_bytes() == b"kept\n"


class TestOptimizeBlocks:
    """``optimize`` formats its solution and its history in blocks of
    ``_CHUNK_STEPS`` rows too, to the bytes of a cell-by-cell ``%.12g`` of
    a direct ``solve``, whether each goes to a file or to stdout."""

    @pytest.mark.parametrize("n_steps", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_both_csvs_equal_a_cell_by_cell_reference(self, n_steps, tmp_path, capsys):
        grid = TimeGrid(0.0, n_steps * 0.05, n_steps)
        sol = solve(ModelParams(), ObjectiveWeights(), DEFAULT_STATE, SweepOptions(grid=grid))
        run = sol.states
        expected = [
            reference_csv(("t", "X", "S", "I", "A", "u1", "u2", "p1", "p2", "p3", "p4"), zip(
                run.times().tolist(), *run.states.T.tolist(), *run.controls.T.tolist(),
                *run.costates.T.tolist())),
            reference_csv(("iter", "J", "control_change"), zip(
                range(1, sol.iterations_used + 1), sol.objective_history, sol.change_history)),
        ]
        out, hist = tmp_path / "opt.csv", tmp_path / "hist.csv"
        for targets in ((out, hist), ("-", hist), (out, "-")):
            out.unlink(missing_ok=True)
            hist.unlink(missing_ok=True)
            code = run_cli("optimize", "--tf", repr(n_steps * 0.05), "--dt", "0.05",
                           "--out", str(targets[0]), "--history-out", str(targets[1]))
            assert code in (0, 4)  # a sweep that stops short still writes its result
            printed = capsys.readouterr().out
            got = [printed if t == "-" else t.read_bytes().decode() for t in targets]
            assert got == expected


class TestFailingRunKeepsTheOutFile:
    """Every command computes its rows before it opens ``--out``: a run
    that blows up (exit 3) or whose values the library rejects (exit 2)
    leaves an existing file as it was.  ``TestSimulateBlocks`` and
    ``TestOverflowingAttackRate`` hold the other three commands' cases."""

    @pytest.mark.parametrize("argv, code", [
        (("optimize", "--r", "8", "--tf", "100", "--dt", "2"), 3),
        (("bifurcate", "--parameter", "alpha", "--from", "0.3", "--to", "1.2",
          "--steps", "2", "--transient", "2"), 2),
    ])
    def test_the_out_file_is_untouched(self, argv, code, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\n")
        assert run_cli(*argv, "--out", str(out)) == code
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == b"kept\n"


class TestClosedStdout:
    def test_reader_closing_early_exits_1_without_a_traceback(self):
        # 20k rows, about 1.5 MB: far more than a pipe buffer holds, so the
        # writer is still writing when the reader goes away
        env = dict(os.environ, PYTHONPATH=str(Path(cropguard.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from cropguard.cli import main; sys.exit(main())",
             "simulate", "--tf", "200", "--dt", "0.01", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"t,X,S,I,A\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, err
        assert "Traceback" not in err, err

    def test_the_module_entry_point_exits_1_without_a_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cropguard.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cropguard.cli", "simulate", "--tf", "200", "--dt", "0.01",
             "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"t,X,S,I,A\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, err
        assert "Traceback" not in err, err


def reference_csv(header, rows):
    """The CSV text of ``_emit_csv``, formatted one cell at a time."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else "%.12g" % c for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


_numbers = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e300]),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.floats().map(np.float64),
)
_cell_values = st.one_of(_numbers, st.text(), st.just(""))
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]


@st.composite
def _csv_tables(draw):
    """A header and mixed rows: tuples of one number per column, rows of
    strings and numbers of any length, and lists of numbers."""
    header = draw(st.lists(st.text("tXSIA_", min_size=1), min_size=1, max_size=12))
    width = len(header)
    rows = draw(st.lists(st.one_of(
        st.tuples(*[_numbers] * width),
        st.lists(_cell_values, max_size=width + 2).map(tuple),
        st.lists(_numbers, min_size=width, max_size=width),
    ), max_size=8))
    return header, rows


@st.composite
def _float_columns(draw):
    """Columns of floats of one length, 1-D or (n, k), drawn from a pool
    that always holds nan, +-inf, -0.0, 5e-324 and 1e300; the length sits
    at and around the block size ``_CHUNK_STEPS``."""
    n = draw(st.sampled_from([0, 1, 5, CHUNK - 1, CHUNK, CHUNK + 1]))
    pool = np.array(_SPECIAL + draw(st.lists(st.floats(), max_size=10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.sampled_from([None, 1, 2, 4]), min_size=1, max_size=4))
    return [rng.choice(pool, n if k is None else (n, k)) for k in widths]


def _assert_emitted(header, body, expected):
    """``_emit_csv`` of ``header`` and ``body()`` writes ``expected`` to a
    file and to stdout."""
    expected = expected.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        cli._emit_csv(path, header, body())
        assert Path(path).read_bytes() == expected
    for target in (None, "-"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli._emit_csv(target, header, body())
        assert buffer.getvalue().encode("utf-8") == expected


class TestCsvWriter:
    """``_emit_csv`` writes the same bytes as the per-cell reference, to a
    file and to stdout, from either formatter: ``_cells`` for mixed rows,
    ``_numbers`` for float columns formatted in blocks."""

    EQUILIBRIA_HEADER = ("kind", "X", "S", "I", "A", "residual", "verdict",
                         "max_real_eig", "R0", "reason")

    @settings(max_examples=200, deadline=None)
    @given(_csv_tables())
    @example((EQUILIBRIA_HEADER, [
        ("PestFree", 1.0, 0.0, 0.0, 0.2, 0.0, "Stable", -0.01, 0.5833333333333334, ""),
        ("Coexistence", "", "", "", "", "", "Nonexistent", "", "", "no positive root"),
    ]))
    @example((("t", "X", "S", "I", "A"), [(0.0, 0.2, 0.07, 0.05, 0.5), (0.05, 1e300, -0.0,
                                                                       5e-324, math.nan)]))
    def test_bytes_match_the_per_cell_reference(self, table):
        header, rows = table
        _assert_emitted(header, lambda: cli._cells(iter(rows)), reference_csv(header, rows))

    @settings(max_examples=60, deadline=None)
    @given(_float_columns())
    def test_numbers_match_the_per_cell_reference(self, columns):
        rows = [tuple(np.hstack([c[i] for c in columns])) for i in range(len(columns[0]))]
        header = [f"c{j}" for j in range(sum(1 if c.ndim == 1 else c.shape[1] for c in columns))]
        _assert_emitted(header, lambda: cli._numbers(*columns), reference_csv(header, rows))

    @pytest.mark.parametrize("n_rows", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_numbers_at_the_block_edges(self, n_rows):
        times = np.arange(n_rows) * 0.05
        states = np.resize(np.array(_SPECIAL + [0.1, -2.5]), (n_rows, 4))
        rows = [(t, *s) for t, s in zip(times, states)]
        header = ("t", "X", "S", "I", "A")
        _assert_emitted(header, lambda: cli._numbers(times, states), reference_csv(header, rows))


class TestConfig:
    def test_file_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.06\nlambda = 0.1\n# comment line\n\n")
        run_cli("simulate", "--config", str(cfg), "--alpha", "0.07", "--dump-config")
        dumped = dict(
            line.split(" = ")
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(dumped["alpha"]) == 0.07  # flag beats file
        assert float(dumped["lambda"]) == 0.1  # file beats default
        assert float(dumped["r"]) == 0.1  # untouched default

    def test_dump_config_round_trips(self, tmp_path, capsys):
        run_cli("simulate", "--dump-config")
        first = capsys.readouterr().out
        cfg = tmp_path / "dumped.cfg"
        cfg.write_text(first)
        run_cli("simulate", "--config", str(cfg), "--dump-config")
        assert capsys.readouterr().out == first

    def test_dump_config_suppresses_the_run(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run_cli("simulate", "--dump-config", "--out", str(out)) == 0
        assert not out.exists()

    def test_per_command_horizon_defaults(self, capsys):
        run_cli("simulate", "--dump-config")
        sim = capsys.readouterr().out
        assert "tf = 2000.0" in sim and "dt = 0.05" in sim
        run_cli("optimize", "--dump-config")
        opt = capsys.readouterr().out
        assert "tf = 100.0" in opt and "dt = 0.01" in opt

    def test_unknown_key_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.06\nbogus = 1\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{cfg}:2" in err
        assert "bogus" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha 0.06\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2

    def test_bad_number_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = fast\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2

    def test_invalid_parameter_value_exits_2(self, capsys):
        assert run_cli("simulate", "--phi", "1.5") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        assert run_cli("simulate", "--config", "/no/such/file.cfg") == 2


class TestEquilibria:
    def test_default_table(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert run_cli("equilibria", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == [
            "kind", "X", "S", "I", "A", "residual",
            "verdict", "max_real_eig", "R0", "reason",
        ]
        table = {row[0]: row for row in rows}
        assert list(table) == ["Axial", "PestFree", "SusceptibleFree", "Coexistence"]

        ax = table["Axial"]
        assert [float(ax[i]) for i in (1, 2, 3)] == [0.0, 0.0, 0.0]
        assert float(ax[4]) == pytest.approx(0.2)
        assert ax[6] == "Unstable"
        assert float(ax[7]) == pytest.approx(0.1)
        assert ax[8] == ""  # invasion number only reported on the pest-free row

        pf = table["PestFree"]
        assert float(pf[1]) == 1.0
        assert pf[6] == "Stable"
        assert float(pf[8]) == pytest.approx(7.0 / 12.0, abs=1e-9)

        for kind in ("SusceptibleFree", "Coexistence"):
            row = table[kind]
            assert row[6] == "Nonexistent"
            assert row[1] == "" and row[7] == ""
            assert row[9] != ""

    def test_consumption_override_adds_interior_row(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_cli("equilibria", "--alpha", "0.06", "--out", str(out))
        _, rows = read_csv(out)
        interior = [r for r in rows if r[0] == "Coexistence" and r[6] != "Nonexistent"]
        assert len(interior) == 1
        assert float(interior[0][4]) == pytest.approx(0.52527274625, rel=1e-9)
        assert float(interior[0][5]) < 1e-10

    def test_constant_denominator_adds_interior_row(self, capsys):
        # alpha m1 == lam + d at the default m1: den(A) is constant
        argv = ("equilibria", "--alpha", "0.5", "--lam", "0.375", "--d", "0.025", "--out", "-")
        assert run_cli(*argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        (interior,) = [r for r in rows if r[0] == "Coexistence"]
        assert interior[6] != "Nonexistent"
        assert float(interior[5]) < 1e-16

    def test_an_underflowing_x_star_denominator_leaves_no_coexistence_point(self, capsys):
        # a root of P there has den(A) > 0 but den(A)^2 = 0, which S* and I* divide by
        assert run_cli("equilibria", "--r", "1e-300", "--a", "1e-200", "--out", "-") == 0
        rows = {row[0]: row for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert rows["Coexistence"][6] == "Nonexistent"

    def test_an_unclassifiable_point_still_exits_2(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        assert run_cli("equilibria", "--c", "1e-200", "--out", str(out)) == 2
        assert "matrix entries must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestStability:
    def test_margin_columns(self, tmp_path):
        out = tmp_path / "st.csv"
        assert run_cli("stability", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == [
            "kind", "X", "S", "I", "A", "verdict", "max_real_eig",
            "pure_imaginary", "rh_stable", "C1", "C2", "C3", "C4", "H1", "H2",
        ]
        assert [r[0] for r in rows] == ["Axial", "PestFree"]
        ax, pf = rows
        assert ax[5] == "Unstable" and ax[8] == "false"
        assert pf[5] == "Stable" and pf[8] == "true"
        assert float(ax[9]) == pytest.approx(0.0421428571429, rel=1e-9)
        assert ax[7] == "false" and pf[7] == "false"
        assert all(float(pf[i]) > 0.0 for i in range(9, 15))

    def test_one_stacked_pass_makes_two_eigvals_calls(self, monkeypatch, capsys):
        # one for the coexistence quartic, one for the three points' Jacobians
        shapes = []
        eigvals = np.linalg.eigvals

        def counted(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        assert run_cli("stability", "--alpha", "0.9", "--out", "-") == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert shapes == [(1, 4, 4), (3, 4, 4)]


class TestOverflowingAttackRate:
    """From alpha ~ 1e155 at the defaults the coexistence reduction
    overflows: equilibria and stability exit 2 with one line, and a sweep
    row there is a failed row without coexistence verdicts."""

    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_exits_2_with_one_line(self, command, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(command, "--alpha", "1e200", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "configuration error: the coexistence reduction overflows at alpha = 1e+200\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_below_it_answers_without_a_warning(self, command, capsys):
        # the char-poly recursion overflows at 1e120; its margins read nan,
        # and the verdicts come from eigvals of the finite Jacobians
        assert run_cli(command, "--alpha", "1e120", "--out", "-") == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        verdict = header.index("verdict")
        assert [(row[0], row[verdict]) for row in rows] == [
            ("Axial", "Unstable"), ("PestFree", "Unstable"),
            ("SusceptibleFree", "Unstable"), ("Coexistence", "Marginal")]
        if command == "stability":
            assert rows[1][header.index("H2")] == "nan"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_sweep_row_there_fails_without_a_traceback(self, capsys):
        # the pest-free point's char-poly overflows there too, silently
        assert run_cli("bifurcate", "--parameter", "alpha", "--from", "1e200",
                       "--to", "1e200", "--steps", "1", "--out", "-") == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, captured.err
        (row,) = list(csv.reader(io.StringIO(captured.out)))[1:]
        assert row[0] == "1e+200" and row[9] == "true" and row[11] == ""


class TestAlphaAtTheEdgesOfExistence:
    """At alpha = 0 no pest-carrying point exists; at the susceptible-free
    threshold (d+delta)/(m2 phi) that point does not, but a stable
    coexistence point does.  Both commands answer."""

    @pytest.mark.parametrize("alpha, reason, coexistence", [
        ("0", "0.11 >= 0", "Nonexistent"),
        ("0.6111111111111112", "0.11 >= 0.055", "Stable"),
    ])
    def test_equilibria(self, alpha, reason, coexistence, capsys):
        assert run_cli("equilibria", "--alpha", alpha, "--out", "-") == 0
        rows = {row[0]: row for row in csv.reader(io.StringIO(capsys.readouterr().out))}
        assert rows["SusceptibleFree"][6] == "Nonexistent"
        assert rows["SusceptibleFree"][9].endswith(f": {reason}"), rows["SusceptibleFree"]
        assert rows["Coexistence"][6] == coexistence

    @pytest.mark.parametrize("alpha, verdicts", [
        ("0", [("Axial", "Unstable"), ("PestFree", "Stable")]),
        ("0.6111111111111112",
         [("Axial", "Unstable"), ("PestFree", "Unstable"), ("Coexistence", "Stable")]),
    ])
    def test_stability(self, alpha, verdicts, capsys):
        assert run_cli("stability", "--alpha", alpha, "--out", "-") == 0
        _, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert [(row[0], row[5]) for row in rows] == verdicts


class TestBifurcate:
    def test_sweep_grid_and_columns(self, tmp_path):
        out = tmp_path / "bif.csv"
        code = run_cli(
            "bifurcate", "--parameter", "alpha",
            "--from", "0.06", "--to", "0.10", "--steps", "3",
            "--tf", "20", "--dt", "0.1", "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "value", "X_min", "X_max", "S_min", "S_max", "I_min", "I_max",
            "A_min", "A_max", "failed", "pest_free", "coexistence",
        ]
        assert [float(r[0]) for r in rows] == pytest.approx([0.06, 0.08, 0.10])
        for row in rows:
            assert row[9] == "false"
            assert row[10] in ("Stable", "Unstable", "Marginal")
            assert row[11] != ""
            for lo_i, hi_i in ((1, 2), (3, 4), (5, 6), (7, 8)):
                assert float(row[lo_i]) <= float(row[hi_i])

    def test_lambda_is_a_sweepable_name(self, tmp_path):
        out = tmp_path / "bif.csv"
        code = run_cli(
            "bifurcate", "--parameter", "lambda",
            "--from", "0.02", "--to", "0.03", "--steps", "2",
            "--tf", "10", "--dt", "0.1", "--out", str(out),
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_failed_row_is_reported_not_fatal(self, tmp_path):
        out = tmp_path / "bif.csv"
        code = run_cli(
            "bifurcate", "--parameter", "r", "--from", "8", "--to", "8",
            "--steps", "1", "--tf", "100", "--dt", "2", "--out", str(out),
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0][9] == "true"
        assert rows[0][1] == "nan"

    def test_an_unclassifiable_value_keeps_the_other_rows(self, tmp_path):
        # at c = 1e-200, (c + X)^2 underflows to 0 at the coexistence point,
        # so its Jacobian is not finite: that row is integrated with empty
        # verdicts, and no warning (an error under this suite) escapes
        out = tmp_path / "bif.csv"
        code = run_cli(
            "bifurcate", "--parameter", "c", "--from", "1e-200", "--to", "0.3",
            "--steps", "3", "--tf", "10", "--out", str(out),
        )
        assert code == 0
        _, rows = read_csv(out)
        assert [row[9] for row in rows] == ["false"] * 3
        assert rows[0][10:] == ["", ""]
        assert [row[10:] for row in rows[1:]] == [["Unstable", "Stable"], ["Stable", ""]]


class TestOptimize:
    def test_solution_columns_and_certificates(self, tmp_path):
        out = tmp_path / "opt.csv"
        hist = tmp_path / "hist.csv"
        code = run_cli(
            "optimize", "--tf", "2", "--dt", "0.1",
            "--out", str(out), "--history-out", str(hist),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "X", "S", "I", "A", "u1", "u2", "p1", "p2", "p3", "p4"]
        assert len(rows) == 21
        u = np.array([[float(r[5]), float(r[6])] for r in rows])
        assert u.min() >= 0.0 and u.max() <= 1.0
        assert [float(v) for v in rows[-1][7:]] == [0.0, 0.0, 0.0, 0.0]

        h_header, h_rows = read_csv(hist)
        assert h_header == ["iter", "J", "control_change"]
        assert len(h_rows) >= 1
        assert [int(r[0]) for r in h_rows] == list(range(1, len(h_rows) + 1))

    def test_freeze_flag_zeroes_the_column(self, tmp_path):
        out = tmp_path / "opt.csv"
        run_cli("optimize", "--tf", "2", "--dt", "0.1", "--freeze-u1", "--out", str(out))
        _, rows = read_csv(out)
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_budget_exhaustion_exits_4_but_writes_output(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = run_cli(
            "optimize", "--tf", "2", "--dt", "0.1",
            "--max-iterations", "2", "--out", str(out),
        )
        assert code == 4
        assert "2 iteration" in capsys.readouterr().err
        _, rows = read_csv(out)
        assert len(rows) == 21

    def test_unwritable_history_out_exits_2(self, tmp_path, capsys):
        hist = tmp_path / "missing" / "hist.csv"
        code = run_cli(
            "optimize", "--tf", "2", "--dt", "0.1",
            "--out", str(tmp_path / "opt.csv"), "--history-out", str(hist),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {hist}: No such file or directory" in err, err


class TestOptimizeStopsAndOutputs:
    def test_unwritable_history_out_leaves_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        hist = tmp_path / "missing" / "hist.csv"
        code = run_cli(
            "optimize", "--tf", "2", "--dt", "0.1",
            "--out", str(out), "--history-out", str(hist),
        )
        assert code == 2
        assert f"cannot write {hist}: No such file or directory" in capsys.readouterr().err
        assert not out.exists()

    def test_stall_exits_4_and_says_why(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(5)

        def random_phi(states, costates, params, w, ceiling):
            return rng.uniform(0.0, 1.0, size=(len(states), 2)) * ceiling

        monkeypatch.setattr(optimal_control, "_candidates", random_phi)
        out = tmp_path / "opt.csv"
        hist = tmp_path / "hist.csv"
        code = run_cli(
            "optimize", "--tf", "2", "--dt", "0.1",
            "--out", str(out), "--history-out", str(hist),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "sweep stalled after" in err and "stopped improving" in err, err
        assert "did not converge within" not in err
        _, rows = read_csv(out)
        assert len(rows) == 21
        h_header, h_rows = read_csv(hist)
        assert h_header == ["iter", "J", "control_change"]
        assert 1 < len(h_rows) < 5000

    def test_stall_after_a_converged_coarse_stage_reports_the_fine_residual(
        self, capsys, monkeypatch
    ):
        # Phi as usual on the coarse grid (51 nodes), random on the fine one
        # (501 nodes): the coarse residuals fall below 1e-2, the fine ones
        # stay near 1, and the message must quote the fine stage's best
        rng = np.random.default_rng(5)
        real_phi = optimal_control._candidates

        def phi(states, costates, params, w, ceiling):
            if len(states) == 51:
                return real_phi(states, costates, params, w, ceiling)
            return rng.uniform(0.0, 1.0, size=(len(states), 2)) * ceiling

        monkeypatch.setattr(optimal_control, "_candidates", phi)
        assert run_cli("optimize", "--tf", "5", "--dt", "0.01") == 4
        err = capsys.readouterr().err
        best = float(err.split("|Phi(u) - u| (")[1].split(")")[0])
        assert best > 0.5, err


class TestRejectedInputs:
    """Values the library refuses are configuration errors: exit 2, the
    reason on stderr, no traceback and no output file."""

    @pytest.mark.parametrize("argv, reason", [
        (("optimize", "--tolerance", "0"), "tolerance must be positive"),
        (("optimize", "--max-iterations", "0"), "max_iterations must be an integer of at least 1"),
        (("bifurcate", "--parameter", "alpha", "--from", "0.1", "--to", "inf",
          "--steps", "2"), "sweep values must be finite"),
        (("bifurcate", "--parameter", "alpha", "--from", "0.1", "--to", "0.2",
          "--steps", "2", "--transient", "1.5"), "transient_fraction must lie in [0, 1)"),
        (("simulate", "--X0", "-1"), "state has negative component"),
        (("optimize", "--X0", "-1"), "state has negative component"),
        (("simulate", "--tf", "inf"), "(tf - t0)/dt must be a finite step count"),
        (("optimize", "--tf", "inf"), "(tf - t0)/dt must be a finite step count"),
        (("simulate", "--dt", "1e-300"), "fit in physical memory; got 1e+300"),
        (("bifurcate", "--parameter", "alpha", "--from", "0.1", "--to", "0.2",
          "--steps", "2", "--tf", "inf"), "(tf - t0)/dt must be a finite step count"),
        (("simulate", "--tf", "-1"), "need tf > t0, got [0.0, -1.0]"),
        (("simulate", "--dt", "5"), "dt must lie in (0, tf], got 5.0"),
        (("bifurcate", "--parameter", "alpha", "--from", "0.1", "--to", "0.2",
          "--steps", "0"), "--steps must be an integer of at least 1, got 0"),
        (("simulate", "--tf", "1e12"), "fit in physical memory; got 1e+13"),
    ])
    def test_rejected_option_exits_2(self, argv, reason, tmp_path, capsys):
        out = tmp_path / "x.csv"
        command, *flags = argv  # a flag in argv overrides the short default run
        assert run_cli(command, "--tf", "1", "--dt", "0.1", *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and reason in err, err
        assert not out.exists()

    @pytest.mark.parametrize("tf, reason", [
        ("inf", "(tf - t0)/dt must be a finite step count, got inf"),
        ("-1", "need tf > t0, got [0.0, -1.0]"),
    ])
    def test_every_command_refuses_a_bad_horizon_alike(self, tf, reason, tmp_path, capsys):
        out = tmp_path / "x.csv"
        sweep = ("--parameter", "alpha", "--from", "0.3", "--to", "1", "--steps", "2")
        errors = set()
        for command in cli._DISPATCH:
            extra = sweep if command == "bifurcate" else ()
            assert run_cli(command, "--tf", tf, *extra, "--out", str(out)) == 2, command
            errors.add(capsys.readouterr().err)
        assert errors == {f"configuration error: {reason}\n"}
        assert not out.exists()

    def test_bifurcate_refuses_a_grid_too_large_for_memory_before_any_work(
        self, one_mib_of_memory, tmp_path, capsys, monkeypatch
    ):
        """With 1 MiB of physical memory a model run holds 4096 steps: a
        10,000-step sweep exits 2 before it deals a row or starts a worker."""
        work = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: work.append("pool"))
        monkeypatch.setattr(bifurcation, "_rows", lambda *args: work.append("rows"))
        out = tmp_path / "x.csv"
        assert run_cli("bifurcate", "--parameter", "alpha", "--from", "0.3", "--to", "1",
                       "--steps", "2", "--tf", "1000", "--dt", "0.1", "--out", str(out)) == 2
        assert "fit in physical memory; got 10000" in capsys.readouterr().err
        assert work == [] and not out.exists()

    def test_optimize_bounds_its_grid_by_the_sweeps_memory(self, tmp_path, capsys, monkeypatch):
        """With 1 MiB of physical memory, 2000 steps fit a model run (256 B
        a node) but not the sweep (``SOLVE_NODE_BYTES`` a node)."""
        sysconf = os.sysconf
        small = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", lambda name: small.get(name) or sysconf(name))
        out = tmp_path / "x.csv"
        assert run_cli("optimize", "--tf", "20", "--dt", "0.01", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "fit in physical memory; got 2000" in err, err
        assert not out.exists()
        assert run_cli("simulate", "--tf", "20", "--dt", "0.01", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2002

    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    @pytest.mark.parametrize("flags, reason", [
        (("--sigma", "0"), "the coexistence reduction needs sigma > 0"),
        (("--d", "0"), "long-run bounds are undefined when d = 0"),
        (("--d", "1e-300", "--eta", "1e-300"), "long-run bounds are undefined when d = 0"),
    ], ids=lambda v: "".join(v[::2]) if isinstance(v, tuple) else None)  # a row's flag names
    def test_degenerate_parameters_exit_2_and_write_nothing(
        self, command, flags, reason, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        assert run_cli(command, *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and reason in err, err
        assert not out.exists()


@st.composite
def _scaled_rates(draw):
    """Each of the 14 rates at its default times 10^U(-300, 300), by CLI
    key, with phi capped below 1 and m2 kept below m1."""
    defaults = vars(ModelParams())
    rates = {key: defaults[field] * 10.0 ** draw(st.floats(-300.0, 300.0))
             for key, field in cli._PARAM_KEYS.items()}
    rates["phi"] = min(rates["phi"], 0.999)
    rates["m2"] = min(rates["m2"], 0.5 * rates["m1"])
    return rates


class TestRatesFarFromTheDefaults:
    """However far the rates are from their defaults, the analysis path
    answers or refuses them: equilibria and stability exit 0 or 2 with no
    traceback and no RuntimeWarning (an error in this suite), and a Hopf
    scan returns a list."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_scaled_rates())
    def test_the_analysis_path_answers_or_refuses(self, rates):
        flags = [f for key, value in rates.items() for f in (f"--{key}", repr(value))]
        with tempfile.TemporaryDirectory() as tmp:
            for command in ("equilibria", "stability"):
                assert run_cli(command, *flags, "--out", os.path.join(tmp, "x.csv")) in (0, 2)
        params = ModelParams(**{cli._PARAM_KEYS[key]: value for key, value in rates.items()})
        assert isinstance(cropguard.hopf_scan(params, (0.3, 1.2)), list)


class TestLibraryDefaults:
    """A sweep option left unset takes the library's default, and a given
    one reaches the library unchanged."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []

        def spy(real):
            def call(*args):
                seen.append(args[-1])  # the SweepOptions or the SweepSpec
                return real(*args)
            return call

        monkeypatch.setattr(cli, "solve", spy(cli.solve))
        monkeypatch.setattr(cli, "run_sweep", spy(cli.run_sweep))
        return seen

    @pytest.mark.parametrize("flags, given", [
        ((), {}),
        (("--max-iterations", "400"), dict(max_iterations=400)),
        (("--tolerance", "1e-7"), dict(tolerance=1e-7)),
    ])
    def test_optimize(self, flags, given, seen, capsys):
        assert run_cli("optimize", "--tf", "2", "--dt", "0.1", *flags) == 0
        grid = TimeGrid.from_step(0.0, 2.0, 0.1)
        assert seen == [SweepOptions(grid=grid, **given)]

    @pytest.mark.parametrize("flags, transient", [
        ((), SweepSpec(parameter_name="alpha", values=(0.1,)).transient_fraction),
        (("--transient", "0.25"), 0.25),
    ])
    def test_bifurcate(self, flags, transient, seen, capsys):
        assert run_cli("bifurcate", "--parameter", "alpha", "--from", "0.1", "--to", "0.2",
                       "--steps", "1", "--tf", "1", "--dt", "0.1", *flags) == 0
        (spec,) = seen
        assert spec.transient_fraction == transient


class TestOutputPreflight:
    def test_history_out_naming_a_directory_exits_2_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = run_cli(
            "optimize", "--tf", "1", "--dt", "0.1",
            "--out", str(out), "--history-out", str(tmp_path),
        )
        assert code == 2
        assert f"cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("history", ["opt.csv", "./sub/../opt.csv", "link.csv"])
    def test_history_out_naming_the_out_file_exits_2_before_the_run(
        self, history, tmp_path, capsys, monkeypatch
    ):
        # the history would overwrite the trajectory: the same path, another
        # spelling of it, or a symlink to it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "opt.csv")
        code = run_cli("optimize", "--tf", "1", "--dt", "0.1",
                       "--out", "opt.csv", "--history-out", history)
        assert code == 2
        err = capsys.readouterr().err
        opt = os.path.realpath(tmp_path / "opt.csv")
        assert err == f"configuration error: --history-out and --out both name {opt}\n"
        assert not (tmp_path / "opt.csv").exists()

    @pytest.mark.parametrize("out", [(), ("--out", "-")])
    def test_history_out_and_out_both_on_stdout_exit_2(self, out, capsys):
        assert run_cli("optimize", "--tf", "1", "--dt", "0.1", *out, "--history-out", "-") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: --history-out and --out both name stdout\n"

    def test_empty_out_exits_2_before_the_run(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("simulate ran despite an empty --out")

        monkeypatch.setattr(cli, "rk4_model", never)
        assert run_cli("simulate", "--tf", "1", "--dt", "0.1", "--out", "") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: cannot write : No such file or directory\n"

    def test_empty_history_out_exits_2_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run_cli("optimize", "--tf", "1", "--dt", "0.1",
                       "--out", str(out), "--history-out", "")
        assert code == 2
        assert "cannot write : No such file or directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._DISPATCH))
    def test_out_naming_a_directory_is_rejected_before_dispatch(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def never(cfg, args):
            raise AssertionError(f"{command} ran despite an unwritable --out")

        monkeypatch.setitem(cli._DISPATCH, command, never)
        extra = ("--parameter", "alpha", "--from", "0.3", "--to", "1", "--steps", "2")
        argv = [command, "--tf", "1", "--dt", "0.1", "--out", str(tmp_path)]
        assert run_cli(*argv, *(extra if command == "bifurcate" else ())) == 2
        assert f"cannot write {tmp_path}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("module, name, stand_in, out, reason", [
        # an --out that passes the preflight but cannot be opened
        (cli, "_check_outputs", lambda args: None, "missing/x.csv", "No such file or directory"),
        (os, "access", lambda path, mode: False, "x.csv", "Permission denied"),
    ])
    def test_an_out_that_cannot_be_written_exits_2(
        self, module, name, stand_in, out, reason, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(module, name, stand_in)
        path = tmp_path / out
        assert run_cli("simulate", "--tf", "1", "--dt", "0.1", "--out", str(path)) == 2
        assert capsys.readouterr().err == f"configuration error: cannot write {path}: {reason}\n"
        assert not path.exists()


class TestParser:
    def test_the_mixing_weight_is_no_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            run_cli("optimize", "--theta", "0.5", "--out", str(out))
        assert info.value.code == 2
        assert "unrecognized arguments: --theta 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--help")
        assert info.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("frobnicate")
        assert info.value.code == 2

    def test_dispatch_table_matches_the_subcommands(self):
        # the benchmark times and traces each command by swapping the plain
        # functions held as values of this flat table
        (subcommands,) = (
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(cli._DISPATCH) == list(subcommands.choices)
        for command in cli._DISPATCH.values():
            assert isinstance(command, types.FunctionType)
            assert list(inspect.signature(command).parameters) == ["cfg", "args"]
