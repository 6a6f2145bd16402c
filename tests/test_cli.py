"""CLI tests through `main` in process: config parsing, artifacts, exit
codes.  tests/test_console.py runs the command line in fresh processes."""

import csv
import math
import platform
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from risksched import (
    GridSpec,
    LogValueTable,
    PolicyTable,
    always_transmit_policy,
    extract_thresholds,
    rollout,
    value_iterate,
)
from risksched import cli, oracle, sim
from risksched.cli import (
    _BLOCK_ROWS,
    _KEYS,
    ConfigError,
    _header_lines,
    _write_csv,
    cmd_solve,
    load_threshold_csv,
    main,
    parse_config,
)
from risksched.policy import NonThresholdPolicyError
from risksched.sim import CHUNK_SIZE
from risksched.solver import auto_delta_max

from conftest import _run_fresh

BASE = {
    "a": "0.9",
    "sigma2": "1.0",
    "lambda": "1.0",
    "gamma": "0.05",
    "T": "3",
    "p01": "0.3",
    "p10": "0.2",
}


# the trapezoid cross-check grid: T = 2 on it is the model that
# tests/test_console.py runs
TRAPEZOID = dict(n_points=201, quad_rule="trapezoid-on-grid")
# grid sizes that the checks at the ends of the float range run at: the
# default, and that of the end-to-end models in tests/test_console.py
GRIDS = (401, 201)


def write_config(path, **overrides):
    kv = dict(BASE)
    kv.update({k: str(v) for k, v in overrides.items()})
    lines = ["# test configuration", ""]
    lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def folded_view(pol):
    """The delta >= 0 half of an original-space policy table, as a folded table."""
    mid = pol.grid.n_points // 2
    return PolicyTable(
        u_star=pol.u_star[:, :, mid:], q_margin=pol.q_margin[:, :, mid:], grid=pol.grid, space="folded"
    )


def read_csv(path):
    header = []
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                header.append(line.rstrip("\n"))
            else:
                rows.append(line)
    return header, list(csv.DictReader(rows))


class TestParseConfig:
    def test_defaults_resolved(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg"))
        assert cfg.params.gamma == 0.05
        assert cfg.params.horizon == 3
        assert cfg.delta_max is None  # auto
        assert cfg.n_points == 401
        assert cfg.quad.rule == "gauss-hermite-centered"
        assert cfg.quad.n_nodes == 64
        assert cfg.n_rollouts == 100000

    def test_overrides_and_comments(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", delta_max="6.5", n_points=81, seed=9)
        path.write_text(path.read_text() + "# trailing comment\n\n")
        cfg = parse_config(path)
        assert cfg.delta_max == 6.5
        assert cfg.n_points == 81
        assert cfg.seed == 9

    @pytest.mark.parametrize(
        "mutation",
        [
            "bogus_key = 3",
            "gamma = 0.1",  # duplicate (gamma already in BASE)
            "delta_max = wide",
            "n_points = 80",  # must be odd
            "delta_max = 1e-300",  # the squared grid spacing underflows
            "delta_max = 1.4e154",  # delta_max^2 overflows
            "quad_rule = simpson",
            "no equals sign here",
        ],
    )
    def test_rejects_bad_lines(self, tmp_path, mutation):
        path = write_config(tmp_path / "c.cfg")
        path.write_text(path.read_text() + mutation + "\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "key,kind",
        [(k, "a number") for k in ("a", "sigma2", "lambda", "gamma", "p01", "p10", "delta_max")]
        + [(k, "an integer") for k in ("T", "n_points", "quad_nodes", "seed", "n_rollouts")],
    )
    def test_rejects_non_numeric_value(self, tmp_path, key, kind):
        path = write_config(tmp_path / "c.cfg", **{key: "x1"})
        with pytest.raises(ConfigError, match=f"key '{key}' must be {kind}, got 'x1'"):
            parse_config(path)

    def test_rejects_missing_required_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 0.9\nsigma2 = 1.0\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as an editor saves it: the mark sits on the first key
        plain = tmp_path / "plain.cfg"
        plain.write_text("".join(f"{k} = {v}\n" for k, v in BASE.items()))
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(bom) == parse_config(plain)

    def test_undecodable_file_is_refused(self, tmp_path):
        path = write_config(tmp_path / "c.cfg")
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config file .*utf-8"):
            parse_config(path)


class TestCheck:
    def test_feasible_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg")
        assert main(["check", "--config", str(cfg)]) == 0
        assert "feasible: yes" in capsys.readouterr().out

    def test_infeasible_exit_2_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
        assert "feasible: no" in capsys.readouterr().out
        header, rows = read_csv(out / "feasibility.csv")
        assert "# feasible = 0" in header
        assert rows[1]["ok"] == "0"  # beta_1 = 0.6 already violates

    def test_out_cells_are_numbers(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")  # nan cells past the violation
        out = tmp_path / "out"
        main(["check", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "feasibility.csv")
        assert rows
        for row in rows:
            for cell in row.values():
                float(cell)

    @pytest.mark.parametrize("key,value", [("a", "nan"), ("a", "inf"), ("sigma2", "inf")])
    def test_non_finite_parameter_exit_1(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        assert main(["check", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert f"{key} must be finite" in captured.err
        assert "feasible" not in captured.out


def assert_error_exit_1(code, capsys):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def assert_infeasible_exit_2(code, capsys):
    # the beta trace, then exactly one error line naming the stage
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "t=0: beta=0 2*sigma2*beta=0 ok=True"
    assert [line for line in lines if line.startswith("error:")] == [lines[-1]]
    assert lines[-1].startswith("error: infeasible at stage 1")


# a thresholds.csv header and a first row, for the bad rows that follow
_THR_HEAD = "# comment\nwall_stage,stages_to_go,c,threshold\n0,3,1,1.5\n"


class TestBadInputs:
    def test_sweep_non_numeric_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2)
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--axis", "gamma", "--values", "abc"]
        )
        assert_error_exit_1(code, capsys)

    def test_sweep_out_of_range_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2)
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--axis", "lambda", "--values", "1.0,-1.0"]
        )
        assert_error_exit_1(code, capsys)
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_oracle_even_n_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2)
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "4"])
        assert_error_exit_1(code, capsys)

    @pytest.mark.parametrize("n_delta", ["-11", "1", "4"])
    def test_oracle_bad_n_delta_past_the_budget(self, tmp_path, capsys, n_delta):
        # at T = 20 no n_delta fits the budget, but a bad one is a usage error
        # first, as quantize would report it
        for overrides in (dict(gamma="0.01"), dict(n_points=201)):
            cfg = write_config(tmp_path / "c.cfg", T=20, **overrides)
            code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", n_delta])
            assert code == 1
            assert capsys.readouterr().err == f"error: n_delta must be odd and >= 3, got {n_delta}\n"

    @pytest.mark.parametrize(
        "delta_q",
        [
            "-1",
            "inf",
            "1e308",  # the ladder spans 2e308, past the float range
            "5e-324",  # the ladder's magnitudes round together
        ],
    )
    def test_oracle_bad_delta_q(self, tmp_path, capsys, delta_q):
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", T=2, n_points=n_points)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(
                    ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "9",
                     "--delta-q", delta_q]
                )
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: delta_q") and err.count("\n") == 1
            assert not (tmp_path / "o" / "oracle_report.csv").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param(None, "cannot read threshold file", id="None"),  # missing file
            # each bad row follows a good header and row, and is the test's id
            *(
                pytest.param(_THR_HEAD + row, message, id=row)
                for row, message in (
                    ("0,3,x,1.0", "unreadable threshold row"),  # non-numeric cell
                    ("0,3", "unreadable threshold row"),  # short row
                    ("0,3,1,-0.5", "threshold >= 0"),  # negative threshold
                    ("0,3,2,1.0", "c in {0, 1}"),  # channel state outside {0, 1}
                    ("0,-1,1,1.0", "stages_to_go >= 0"),  # negative stages_to_go
                )
            ),
            pytest.param("stages_to_go,c\n0,1", "missing threshold columns", id="no-threshold-column"),
            pytest.param("# comment\nwall_stage,stages_to_go,c,threshold", "no threshold rows", id="header-only"),
            # a complete schedule for T = 1, two stages short of the config's T = 3
            pytest.param(
                "stages_to_go,c,threshold\n0,0,0.0\n0,1,0.0\n1,0,inf\n1,1,1.0",
                "threshold file covers 1 stages, config needs 3",
                id="short-horizon",
            ),
        ],
    )
    def test_bad_threshold_file(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "c.cfg", n_rollouts=100)
        thr = tmp_path / "thresholds.csv"
        if text is not None:
            thr.write_text(text + "\n")
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "threshold-file", "--threshold-file", str(thr)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_undecodable_threshold_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", n_rollouts=100)
        thr = tmp_path / "thresholds.csv"
        thr.write_bytes(_THR_HEAD.encode() + b"0,3,0,caf\xe9\n")
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "threshold-file", "--threshold-file", str(thr)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", ["one-row", "drop", "duplicate", "untouched"])
    def test_threshold_file_names_every_pair_once(self, tmp_path, capsys, edit):
        # each (stages_to_go, c) pair up to the largest stages_to_go, once
        cfg = write_config(tmp_path / "c.cfg", n_points=81, delta_max="6.0", n_rollouts=100)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-plot-data"]) == 0
        thr = out / "thresholds.csv"
        lines = thr.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line[0].isdigit()) + 3  # j = T - 1, c = 1
        if edit == "one-row":
            lines = ["wall_stage,stages_to_go,c,threshold\n", "0,3,1,1.5\n"]
        elif edit == "drop":
            del lines[row]
        elif edit == "duplicate":
            lines.insert(row, lines[row])
        thr.write_text("".join(lines))
        capsys.readouterr()
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--policy-source", "threshold-file", "--threshold-file", str(thr)]
        )
        if edit == "untouched":
            assert code == 0
        else:
            assert_error_exit_1(code, capsys)

    def test_threshold_file_byte_order_mark_is_skipped(self, tmp_path):
        # as a spreadsheet saves it: the mark sits on the first column the
        # file needs (wall_stage dropped, so stages_to_go leads the header)
        cfg = write_config(tmp_path / "c.cfg", n_points=81, delta_max="6.0", n_rollouts=100)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-plot-data"]) == 0
        plain = out / "thresholds.csv"
        bom = tmp_path / "bom.csv"
        rows = [line.split(",", 1)[1] for line in plain.read_text().splitlines(keepends=True) if line[0] != "#"]
        assert rows[0] == "stages_to_go,c,threshold\n"
        bom.write_bytes(b"\xef\xbb\xbf" + "".join(rows).encode())
        metrics = []
        for thr in (plain, bom):
            sim_out = tmp_path / thr.stem
            code = main(
                ["simulate", "--config", str(cfg), "--out", str(sim_out),
                 "--policy-source", "threshold-file", "--threshold-file", str(thr)]
            )
            assert code == 0
            metrics.append((sim_out / "metrics.csv").read_text())
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize("command", [["check"], ["solve"]])
    def test_out_names_existing_file(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.cfg", n_points=81, delta_max="6.0")
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main([*command, "--config", str(cfg), "--out", str(out)])
        assert_error_exit_1(code, capsys)
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("delta0", ["nan", "inf"])
    def test_non_finite_delta0(self, tmp_path, capsys, delta0):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_rollouts=100)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "builtin:idle", "--delta0", delta0]
        )
        assert_error_exit_1(code, capsys)

    def test_zero_rollouts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_rollouts=0)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "builtin:idle"]
        )
        assert_error_exit_1(code, capsys)

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, seed=-1, n_rollouts=100)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "builtin:idle"]
        )
        assert_error_exit_1(code, capsys)

    @pytest.mark.parametrize(
        "command", [["solve"], ["simulate"], ["sweep", "--axis", "gamma", "--values", "0.05"]]
    )
    def test_non_threshold_solve_exit_1(self, tmp_path, capsys, monkeypatch, command):
        # a solved transmit set that is not an up-set: no model known to the
        # solver gives one, so threshold extraction is made to refuse
        def refuse(policy, grid):
            raise NonThresholdPolicyError(1, 1, 20)

        monkeypatch.setattr("risksched.cli.extract_thresholds", refuse)
        cfg = write_config(tmp_path / "c.cfg", T=1, n_points=41)
        code = main([command[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *command[1:]])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: transmit set is not an up-set at stages_to_go=1, c=1, node=20\n"
        )

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--axis", "gamma", "--values", "0.05"]])
    def test_unallocatable_grid_exit_1(self, tmp_path, capsys, command):
        # numpy refuses the 35.5 PiB node array at once: nothing is allocated
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=10**16 + 1)
        code = main([command[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *command[1:]])
        assert_error_exit_1(code, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["solve"],
            ["simulate"],
            ["sweep", "--axis", "gamma", "--values", "0.05"],
            ["oracle", "--n-delta", "9"],
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gain_exit_2(self, tmp_path, capsys, command):
        # a^2 overflows a float, and beta_2 with it: infeasible at stage 2
        for grid in ({}, dict(n_points=201), TRAPEZOID):
            cfg = write_config(tmp_path / "c.cfg", a="1e200", T=2, **grid)
            code = main([command[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *command[1:]])
            assert code == 2
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            assert "infeasible at stage 2" in captured.out + captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", ["builtin:always", "builtin:idle"])
    def test_overflowing_rollout_cost_exit_2(self, tmp_path, capsys, source):
        # a = 1e200 at T = 3 solves nothing here: delta(2) overflows to inf,
        # and on a delivered stage (1 - u*c) * delta**2 is 0 * inf = nan, so
        # the estimate would be nan or inf; numpy's RuntimeWarning would raise.
        # One chunk of rollouts, and the default 100000 in two
        for overrides in (dict(n_rollouts=1000), dict(n_points=201)):
            cfg = write_config(tmp_path / "c.cfg", a="1e200", T=3, **overrides)
            out = tmp_path / "o"
            code = main(["simulate", "--config", str(cfg), "--out", str(out), "--policy-source", source])
            assert code == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]
            assert not (out / "metrics.csv").exists()
            assert not (out / "trace.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gain_solves_at_one_stage(self, tmp_path):
        # beta_1 = gamma for every a, so T = 1 is feasible: the drift centers
        # a*delta square to inf, and the lerp across the all-zero W_0 stays 0;
        # numpy's RuntimeWarning would raise here
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", a="1e200", T=1, n_points=n_points)
            out = tmp_path / f"o{n_points}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            header, rows = read_csv(out / "thresholds.csv")
            assert "# delta_max = 6.5" in header
            thr = [float(r["threshold"]) for r in rows if (r["stages_to_go"], r["c"]) == ("1", "1")]
            assert len(thr) == 1 and 1.0 < thr[0] <= 1.0 + 2 * 6.5 / (n_points - 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gain_past_the_float_range_at_one_stage(self, tmp_path, capsys):
        # a * delta leaves the float range: Hermite extrapolates the all-zero
        # W_0, the trapezoid kernel lies off the grid, and the chain's drift
        # snaps to the ladder ends; none may raise a RuntimeWarning
        runs = [
            ("gauss-hermite-centered", ["solve"], 0),
            ("trapezoid-on-grid", ["solve"], 2),
            ("gauss-hermite-centered", ["oracle", "--n-delta", "9"], 0),
        ]
        for n_points in GRIDS:
            for rule, command, want in runs:
                cfg = write_config(tmp_path / "c.cfg", a="1.7e308", T=1, quad_rule=rule, n_points=n_points)
                out = tmp_path / "o"
                assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == want
                assert "Traceback" not in capsys.readouterr().err

    def test_unwritable_trace_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_rollouts=100)
        out = tmp_path / "o"
        (out / "trace.csv").mkdir(parents=True)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--policy-source", "builtin:idle"]
        )
        assert_error_exit_1(code, capsys)


def test_runtime_needs_no_scipy(tmp_path):
    """Every command runs with scipy unimportable: the runtime is numpy-only."""
    cfg = write_config(tmp_path / "c.cfg", T=2, n_points=81, n_rollouts=1000)
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from risksched.cli import main
        cfg, out = {str(cfg)!r}, {str(tmp_path / "out")!r}
        commands = [
            ["check"],
            ["solve"],
            ["simulate", "--policy-source", "solved"],
            ["sweep", "--axis", "gamma", "--values", "0.02,0.05"],
            ["oracle", "--n-delta", "5"],
        ]
        codes = [main([c[0], "--config", cfg, "--out", out, *c[1:]]) for c in commands]
        print("codes", codes)
        """
    )
    proc = _run_fresh([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert "codes [0, 0, 0, 0, 0]" in proc.stdout, proc.stdout + proc.stderr


def test_thread_pool_loads_only_for_several_chunks(tmp_path):
    """concurrent.futures pulls in logging: importing the CLI and a one-chunk
    simulate must not load it, so neither pays for it at start-up."""
    cfg = write_config(tmp_path / "c.cfg", T=2, n_points=401, n_rollouts=20000)
    script = textwrap.dedent(
        f"""
        import risksched.cli, sys
        from risksched import idle_policy, sim
        loaded = ["concurrent.futures" in sys.modules]
        cfg, out = {str(cfg)!r}, {str(tmp_path / "out")!r}
        code = risksched.cli.main(["simulate", "--config", cfg, "--out", out, "--policy-source", "solved"])
        loaded.append("concurrent.futures" in sys.modules)
        sim._usable_cpus = lambda: 2  # the probe sees a pool whatever the host
        params = risksched.cli.parse_config(cfg).params
        sim.estimate_risk_objective(params, idle_policy(), 2 * sim.CHUNK_SIZE, seed=0)
        loaded.append("concurrent.futures" in sys.modules)
        print("code", code, "loaded", loaded)
        """
    )
    proc = _run_fresh([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert "code 0 loaded [False, False, True]" in proc.stdout, proc.stdout + proc.stderr


def test_oracle_and_sim_load_only_for_their_commands(tmp_path):
    """Importing the CLI, and check, solve and sweep, neither compile nor
    load the oracle and sim modules; oracle and simulate load their own."""
    cfg = write_config(tmp_path / "c.cfg", T=2, n_points=81, n_rollouts=1000)
    script = textwrap.dedent(
        f"""
        import risksched.cli, sys
        cfg, out = {str(cfg)!r}, {str(tmp_path / "out")!r}
        def loaded():
            return [name in sys.modules for name in ("risksched.oracle", "risksched.sim")]
        seen = [loaded()]
        commands = [
            ["check"],
            ["solve"],
            ["sweep", "--axis", "gamma", "--values", "0.02,0.05"],
            ["simulate", "--policy-source", "builtin:idle"],
            ["oracle", "--n-delta", "5"],
        ]
        for c in commands:
            assert risksched.cli.main([c[0], "--config", cfg, "--out", out, *c[1:]]) == 0
            seen.append(loaded())
        print("loaded", seen)
        """
    )
    proc = _run_fresh([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    want = [[False, False]] * 4 + [[False, True], [True, True]]
    assert f"loaded {want}" in proc.stdout, proc.stdout + proc.stderr


def test_oracle_leaves_numpy_ma_unloaded(tmp_path):
    """np.unique imports numpy.ma on its first call, about 15 ms that the
    oracle's threshold cuts do without: on the verify benchmark's config,
    `oracle` must not load it."""
    cfg = write_config(tmp_path / "c.cfg", T=2, n_points=2001, quad_rule="trapezoid-on-grid")
    script = textwrap.dedent(
        f"""
        import sys
        from risksched.cli import main
        code = main(["oracle", "--n-delta", "17", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "o")!r}])
        print("code", code, "loaded", "numpy.ma" in sys.modules)
        """
    )
    proc = _run_fresh([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert "code 0 loaded False" in proc.stdout, proc.stdout + proc.stderr


class TestSolve:
    def test_artifacts_and_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.cfg", n_points=201)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("thresholds.csv", "policy.csv", "values.csv", "feasibility.csv"):
            assert (out / name).exists()

        header, rows = read_csv(out / "thresholds.csv")
        assert len(rows) == 2 * (3 + 1)
        assert any(h.startswith("# delta_max = ") for h in header)

        # thresholds round-trip and match a direct solve
        cfg = parse_config(cfg_path)
        grid = GridSpec(auto_delta_max(cfg.params, cfg.quad), cfg.n_points)
        _, pol = value_iterate(cfg.params, grid, cfg.quad)
        expected = extract_thresholds(folded_view(pol), grid)
        loaded = load_threshold_csv(out / "thresholds.csv")
        assert np.array_equal(loaded.threshold, expected.threshold)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_horizon_solves_on_the_four_sigma_radius(self, tmp_path):
        # at T = 0 no stage is integrated, so auto_delta_max takes 4 sigma,
        # rounded to 0.01 and at least 0.01 (4 sigma rounds to 0.0 at sigma2 =
        # 1e-6): nothing is ever transmitted and every value is V_0 = 1, W = 0
        for sigma2, radius in (("1.0", "4.0"), ("1e-6", "0.01")):
            cfg = write_config(tmp_path / "c.cfg", T=0, n_points=201, sigma2=sigma2)
            out = tmp_path / f"out-{sigma2}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            header, thresholds = read_csv(out / "thresholds.csv")
            assert f"# delta_max = {radius}" in header
            assert [(r["stages_to_go"], r["c"], r["threshold"]) for r in thresholds] == [
                ("0", "0", "inf"),
                ("0", "1", "inf"),
            ]
            _, values = read_csv(out / "values.csv")
            assert len(values) == 2 * 201
            assert {float(r["w"]) for r in values} == {0.0}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--axis", "gamma", "--values", "0.05"], ["oracle"]]
    )
    def test_zero_horizon_grid_is_never_empty(self, tmp_path, command):
        # every command that resolves the grid: at sigma2 = 1e-6 and T = 0
        # the auto radius is 0.01, not 4 sigma rounded to 0.0
        cfg = write_config(tmp_path / "c.cfg", T=0, sigma2="1e-6", n_rollouts=100)
        assert main([command[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *command[1:]]) == 0

    def test_feasibility_header_values_are_numbers(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_points=81, delta_max="6.0")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-plot-data"]) == 0
        config_lines, _ = read_csv(out / "thresholds.csv")
        header, _ = read_csv(out / "feasibility.csv")
        assert header[: len(config_lines)] == config_lines
        extra = [line.split(" = ") for line in header[len(config_lines) :]]
        assert [key for key, _ in extra] == [
            "# feasible", "# tilted_std", "# coverage_tail", "# gh_cap_active",
        ]
        for _, value in extra:
            float(value)

    def test_feasibility_csv_matches_check(self, tmp_path):
        """check --out and solve write one feasibility.csv table: the same
        column names and data rows (their headers differ in delta_max)."""
        for T, overrides in ((3, dict(n_points=81)), (2, TRAPEZOID)):
            cfg = write_config(tmp_path / "c.cfg", T=T, **overrides)
            checked, solved = tmp_path / f"check-{T}", tmp_path / f"solve-{T}"
            assert main(["check", "--config", str(cfg), "--out", str(checked)]) == 0
            assert main(["solve", "--config", str(cfg), "--out", str(solved)]) == 0
            tables = []
            for out in (checked, solved):
                with open(out / "feasibility.csv", newline="") as fh:
                    tables.append([line for line in fh if not line.startswith("#")])
            assert tables[0][0] == "t,beta,two_sigma2_beta,ok\r\n"
            assert len(tables[0]) == 1 + (T + 1)  # column names, then T + 1 rows
            assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "shape, n_rows",
        [
            (dict(T=1, n_points=11, delta_max="3.0"), 2 * 2 * 11),
            (dict(T=3, n_points=2049), _BLOCK_ROWS + 8),  # 2 * 4 * 2049 rows
            (dict(T=2, n_points=201), 2 * 3 * 201),
        ],
        ids=["small", "past-block", "two-stage"],
    )
    @pytest.mark.parametrize("rule", ["gauss-hermite-centered", "trapezoid-on-grid"])
    def test_output_bytes(self, tmp_path, rule, shape, n_rows):
        """Rows end in CRLF; floats are written by repr, actions as ints.  The
        reference mirrors the folded tables onto the full grid and writes them
        row by row, and --no-plot-data writes the same policy.csv."""
        cfg_path = write_config(tmp_path / "c.cfg", quad_rule=rule, **shape)
        out, no_plot = tmp_path / "out", tmp_path / "no-plot"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        argv = ["solve", "--config", str(cfg_path), "--out", str(no_plot), "--no-plot-data"]
        assert main(argv) == 0
        cfg = parse_config(cfg_path)
        grid = GridSpec(cfg.delta_max or auto_delta_max(cfg.params, cfg.quad), cfg.n_points)
        table, pol = value_iterate(cfg.params, grid, cfg.quad, space="folded")
        nodes = grid.nodes().tolist()
        u, q, w = (grid.unfold(a).tolist() for a in (pol.u_star, pol.q_margin, table.w))
        T = cfg.params.horizon
        cells = [(j, c, i) for j in range(T + 1) for c in (0, 1) for i in range(grid.n_points)]
        assert len(cells) == n_rows
        header = "".join(line + "\n" for line in _header_lines(cfg, grid))
        policy = "".join(
            f"{j},{c},{nodes[i]!r},{u[j][c][i]},{q[j][c][i]!r}\r\n" for j, c, i in cells
        )
        values = "".join(f"{j},{c},{nodes[i]!r},{w[j][c][i]!r}\r\n" for j, c, i in cells)
        with open(out / "policy.csv", newline="") as fh:
            assert fh.read() == header + "stages_to_go,c,delta,u,q_margin\r\n" + policy
        with open(out / "values.csv", newline="") as fh:
            assert fh.read() == header + "stages_to_go,c,delta,w\r\n" + values
        assert (no_plot / "policy.csv").read_bytes() == (out / "policy.csv").read_bytes()
        assert not (no_plot / "values.csv").exists()

    def test_solve_fine_peak_allocation(self, tmp_path):
        """The solve-fine benchmark solve (T = 20, n_points = 4001) writes its
        12 MB of CSV one (stages_to_go, c) group at a time: the whole command
        stays within the solve's own peak plus a few row groups of text."""
        cfg = parse_config(write_config(tmp_path / "c.cfg", a=0.8, gamma=0.02, T=20, n_points=4001))
        tracemalloc.start()
        try:
            assert cmd_solve(cfg, tmp_path / "out", plot_data=True) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out" / "values.csv").stat().st_size > 5e6
        assert peak <= 7 * 2**20

    @pytest.mark.parametrize("rule", ["gauss-hermite-centered", "trapezoid-on-grid"])
    def test_folded_solve_matches_original(self, tmp_path, rule):
        """solve runs in folded space and mirrors its tables: rows at +delta and
        -delta read the same, and the tables agree with an original-space solve."""
        cfg_path = write_config(tmp_path / "c.cfg", T=5, n_points=201, quad_rule=rule)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = parse_config(cfg_path)
        grid = GridSpec(auto_delta_max(cfg.params, cfg.quad), cfg.n_points)
        table, pol = value_iterate(cfg.params, grid, cfg.quad, space="original")
        shape = pol.u_star.shape
        right = slice(grid.n_points // 2 + 1, None)

        for name in ("policy.csv", "values.csv"):
            with open(out / name, newline="") as fh:
                lines = [line for line in fh if not line.startswith("#")][1:]
            rows = np.array([line.split(",") for line in lines]).reshape(*shape, -1)
            mirror = rows[:, :, ::-1]
            # every cell but delta (column 2) reads the same at +delta and -delta
            assert np.array_equal(np.delete(rows, 2, axis=-1), np.delete(mirror, 2, axis=-1))
            assert np.array_equal(np.char.add("-", rows[:, :, right, 2]), mirror[:, :, right, 2])

        _, policy = read_csv(out / "policy.csv")
        u = np.array([int(r["u"]) for r in policy]).reshape(shape)
        q = np.array([float(r["q_margin"]) for r in policy]).reshape(shape)
        _, values = read_csv(out / "values.csv")
        w = np.array([float(r["w"]) for r in values]).reshape(shape)
        assert np.array_equal(u, pol.u_star)
        np.testing.assert_allclose(q, pol.q_margin, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w, table.w, rtol=0, atol=1e-12)
        expected = extract_thresholds(folded_view(pol), grid).threshold
        assert np.array_equal(load_threshold_csv(out / "thresholds.csv").threshold, expected)

    def test_underflowing_gain_solves(self, tmp_path, capsys):
        # the Hermite cap's denominator underflows to 0: no cap, as at a = 0
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", a="1e-300", gamma="1e-300", T=2, n_points=n_points)
            out = tmp_path / f"out{n_points}"
            assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-plot-data"]) == 0
            assert capsys.readouterr().out.startswith("solved: delta_max=6.5 ")

    def test_infeasible_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_infeasible_exit_2(code, capsys)
        assert not (tmp_path / "o").exists()

    def test_infeasible_fixed_delta_max_exit_2(self, tmp_path, capsys):
        # with a fixed delta_max the solver itself, not auto_delta_max, refuses
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6", delta_max="6.0")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_infeasible_exit_2(code, capsys)


class TestSimulate:
    def test_idle_metrics_match_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", T=2, gamma="0.1", n_rollouts=40000, seed=5
        )
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--policy-source", "builtin:idle", "--delta0", "0"]
        )
        assert code == 0
        _, rows = read_csv(out / "metrics.csv")
        row = rows[0]
        anchor = -0.5 * math.log(1.0 - 2.0 * 0.1 * 1.0)  # E[e^{g*w^2}]
        assert abs(float(row["log_objective"]) - anchor) <= 4.0 * float(row["se_log"])
        assert row["tail_ok"] == "1"
        _, trace_rows = read_csv(out / "trace.csv")
        assert len(trace_rows) == 2

    def test_trace_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.cfg", T=4, seed=13, n_rollouts=100)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out),
             "--policy-source", "builtin:always"]
        )
        assert code == 0
        tr = rollout(parse_config(cfg_path).params, always_transmit_policy(), seed=13)
        header, rows = read_csv(out / "trace.csv")
        metrics_header, _ = read_csv(out / "metrics.csv")
        assert header == metrics_header
        assert "# seed = 13" in header
        assert len(rows) == 4
        # repr round-trips floats exactly
        assert [float(r["delta"]) for r in rows] == tr.delta.tolist()
        assert [float(r["cost"]) for r in rows] == tr.stage_cost.tolist()
        assert [int(r["u"]) for r in rows] == tr.u.tolist()

    @pytest.mark.parametrize("delta_max", ["auto", "6.5"])
    def test_header_reads_back_as_config(self, tmp_path, delta_max):
        # builtin policies resolve no grid, so delta_max is written as configured
        cfg_path = write_config(tmp_path / "c.cfg", T=2, n_rollouts=100, delta_max=delta_max)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out),
             "--policy-source", "builtin:idle"]
        )
        assert code == 0
        header, _ = read_csv(out / "metrics.csv")
        assert f"# delta_max = {delta_max}" in header
        config_lines = [h[2:] for h in header if h[2:].split(" = ")[0] in _KEYS]
        again = tmp_path / "again.cfg"
        again.write_text("\n".join(config_lines) + "\n")
        assert parse_config(again) == parse_config(cfg_path)

    def test_threshold_file_source(self, tmp_path):
        # the solved thresholds simulated: T trace rows and a resolved tail
        runs = [(3, dict(n_points=201, n_rollouts=2000), ["--c0", "1"]), (2, TRAPEZOID, [])]
        for T, overrides, args in runs:
            cfg = write_config(tmp_path / "c.cfg", T=T, **overrides)
            out = tmp_path / f"out{T}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            code = main(
                ["simulate", "--config", str(cfg), "--out", str(out),
                 "--policy-source", "threshold-file",
                 "--threshold-file", str(out / "thresholds.csv"), *args]
            )
            assert code == 0
            _, trace = read_csv(out / "trace.csv")
            _, metrics = read_csv(out / "metrics.csv")
            assert len(trace) == T
            assert [m["tail_ok"] for m in metrics] == ["1"]

    def test_threshold_file_source_requires_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "threshold-file"]
        )
        assert code == 1

    def test_bad_c0_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_rollouts=100)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "builtin:idle", "--c0", "maybe"]
        )
        assert code == 1

    def test_each_rollout_simulated_once(self, tmp_path, monkeypatch):
        n = CHUNK_SIZE + 7
        calls = []
        real = sim._simulate_chunk

        def counting(params, policy, m, *args):
            calls.append(m)
            return real(params, policy, m, *args)

        monkeypatch.setattr(sim, "_simulate_chunk", counting)
        cfg = write_config(tmp_path / "c.cfg", T=2, n_rollouts=n)
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policy-source", "builtin:idle"]
        )
        assert code == 0
        assert len(calls) == len(sim._chunk_sizes(n)) == 2
        assert sum(calls) == n

    def test_solved_source_infeasible_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_infeasible_exit_2(code, capsys)


class TestOracle:
    def test_infeasible_exit_2(self, tmp_path, capsys):
        # the quantized chain stays finite, so only the solve can refuse
        cfg = write_config(tmp_path / "c.cfg", T=2, gamma="0.6")
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_infeasible_exit_2(code, capsys)
        assert not (tmp_path / "o" / "oracle_report.csv").exists()

    def test_report_all_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=201)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "oracle_report.csv")
        assert len(rows) == 6
        assert all(r["pass"] == "1" for r in rows)
        assert any(h.startswith("# noise_values") for h in header)
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("rule", ["gauss-hermite-centered", "trapezoid-on-grid"])
    @pytest.mark.parametrize("a", ["0.9", "0.5", "0", "1.2"])
    def test_report_all_pass_at_one_stage(self, tmp_path, capsys, rule, a):
        # with one stage to go the solver and both chains are exact, so the
        # refinement check sees rounding errors alone and must not fail on them
        cfg = write_config(tmp_path / "c.cfg", a=a, T=1, quad_rule=rule)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "oracle_report.csv")
        assert [r["check"] for r in rows if r["pass"] != "1"] == []
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n_delta,refined",
        [
            # the 5-state ladder's refinement moves away from the solver
            ("5", "0,coarse=1.035e-02 fine=1.331e-02"),
            ("9", "1,coarse=1.035e-02 fine=6.905e-03"),
        ],
        ids=["5", "9"],
    )
    def test_report_rows(self, tmp_path, capsys, n_delta, refined):
        # the standard model at T = 2 on the default grid
        cfg = write_config(tmp_path / "c.cfg", T=2)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out), "--n-delta", n_delta]) == 0
        rows = [
            "check,pass,detail",
            "enumeration_matches_backward_induction,1,rel_gap=0.000e+00",
            "exact_policy_cost_matches_certified_optimum,1,rel_gap=0.000e+00",
            "bad_channel_column_all_idle,1,transmit_count=0",
            "optimal_policy_even,1,u(delta)=u(-delta)",
            "optimal_policy_threshold_structure,1,up-set in |delta|",
            f"refinement_decreases_solver_discrepancy,{refined}",
        ]
        text = (out / "oracle_report.csv").read_bytes().decode()
        data = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
        assert data == [row + "\r\n" for row in rows]
        lines = []
        for row in rows[1:]:
            name, ok, detail = row.split(",")
            lines.append(f"{'PASS' if ok == '1' else 'FAIL'} {name} ({detail})")
        assert capsys.readouterr().out.splitlines() == lines

    def test_inexact_ladder_step_fits_budget(self, tmp_path, capsys):
        # a 7-state ladder on [-4, 4] has an inexact step; its refinement has
        # 7 magnitudes, so 8**6 threshold policies, within the budget
        cfg = write_config(tmp_path / "c.cfg", T=3, n_points=201)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out), "--n-delta", "7"]) == 0
        _, rows = read_csv(out / "oracle_report.csv")
        assert len(rows) == 6
        assert all(r["pass"] == "1" for r in rows)
        assert capsys.readouterr().out.count("PASS") == 6

    def test_budget_message_names_largest_fitting_n_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=5)  # the README example config
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "9"])
        assert code == 3
        err = capsys.readouterr().err
        assert "requested chain (n_delta=9) needs 6**10 policies" in err
        assert "the largest n_delta that fits is 5" in err

    def test_largest_fitting_n_delta_passes(self, tmp_path, capsys):
        # at T = 5, 4**10 policies on the 5-state chain; its 9-state
        # refinement chain is solved by backward induction alone, so it needs
        # no budget of its own.  At T = 1, 1448**2 policies on 1447
        # magnitudes, whose certified table is evaluated once, not per start
        runs = [(5, 401, "5", 4**10), (5, 201, "5", 4**10), (1, 201, "2893", 1448**2)]
        for T, n_points, n_delta, n_enumerated in runs:
            cfg = write_config(tmp_path / "c.cfg", T=T, n_points=n_points)
            out = tmp_path / "out"
            assert main(["oracle", "--config", str(cfg), "--out", str(out), "--n-delta", n_delta]) == 0
            header, rows = read_csv(out / "oracle_report.csv")
            assert f"# n_enumerated = {n_enumerated}" in header
            assert [r["pass"] for r in rows] == ["1"] * 6
            assert capsys.readouterr().out.count("PASS") == 6

    def test_budget_message_when_nothing_fits(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=20, gamma="0.01")
        code = main(
            ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "3"]
        )
        assert code == 3
        assert "no odd n_delta >= 3 fits" in capsys.readouterr().err

    def test_budget_exit_3_builds_no_chain(self, tmp_path, monkeypatch, capsys):
        # the budget is checked from n_delta and T alone: a 200001-state
        # ladder is never quantized
        def refuse(*args, **kwargs):
            raise AssertionError("quantize called past the budget")

        monkeypatch.setattr(cli, "quantize", refuse)
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", T=1, n_points=n_points)
            code = main(
                ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "200001"]
            )
            assert code == 3
            assert "the largest n_delta that fits is 2893" in capsys.readouterr().err

    def test_one_stage_report_header(self, tmp_path, capsys):
        # the threshold family at T = 1, n_delta = 9: 6 cuts per channel
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", T=1, n_points=n_points)
            out = tmp_path / "out"
            assert main(["oracle", "--config", str(cfg), "--out", str(out), "--n-delta", "9"]) == 0
            header, rows = read_csv(out / "oracle_report.csv")
            assert "# n_enumerated = 36" in header
            assert not any(h.startswith("# enum_mode") for h in header)
            assert [r["pass"] for r in rows] == ["1"] * 6
            assert capsys.readouterr().out.count("PASS") == 6

    def test_evaluation_does_not_scale_with_the_ladder(self, tmp_path, monkeypatch):
        # one chain stage per stage to go, each for enumeration, the coarse
        # and fine backward inductions and the evaluation of the certified
        # table: not one evaluation per (state, channel) start
        calls = []
        stage = oracle._stage

        def counted(*args):
            calls.append(1)
            return stage(*args)

        monkeypatch.setattr(oracle, "_stage", counted)
        cfg = write_config(tmp_path / "c.cfg", T=2)
        counts = []
        for n_delta in ("5", "17"):
            calls.clear()
            out = tmp_path / f"o{n_delta}"
            assert main(["oracle", "--config", str(cfg), "--out", str(out), "--n-delta", n_delta]) == 0
            counts.append(len(calls))
        assert counts == [4 * 2, 4 * 2]

    def test_mode_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=1)
        with pytest.raises(SystemExit) as ei:
            main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mode", "threshold"])
        assert ei.value.code == 1
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,args",
        [
            # exp(gamma * lam) = e^800: every transmit value overflows
            (dict(T=2, **{"lambda": "2e4", "gamma": "0.04"}), []),
            (dict(T=2), ["--delta-q", "1e3"]),  # exp(gamma * delta^2) overflows
            (dict(T=2), ["--delta-q", "1e200"]),  # delta^2 itself overflows
        ],
    )
    def test_overflowing_chain_values_pass(self, tmp_path, capsys, overrides, args):
        for n_points in GRIDS:
            cfg = write_config(tmp_path / "c.cfg", n_points=n_points, **overrides)
            out = tmp_path / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["oracle", "--config", str(cfg), "--out", str(out), *args]) == 0
            _, rows = read_csv(out / "oracle_report.csv")
            assert [r["pass"] for r in rows] == ["1"] * 6
            assert capsys.readouterr().out.count("PASS") == 6


def _numpy_on_openblas_x86():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas.lower()


_NEEDS_OPENBLAS_X86 = pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS, x86_64")


class TestSweep:
    @pytest.mark.parametrize(
        "overrides, variable, value",
        [
            pytest.param(TRAPEZOID, "OPENBLAS_CORETYPE", "Prescott", marks=_NEEDS_OPENBLAS_X86, id="trapezoid"),
            pytest.param({}, "OPENBLAS_CORETYPE", "Prescott", marks=_NEEDS_OPENBLAS_X86, id="default"),
            pytest.param(TRAPEZOID, "OPENBLAS_NUM_THREADS", "1", id="trapezoid-threads"),
        ],
    )
    def test_bytes_do_not_follow_the_blas_kernel(self, tmp_path, overrides, variable, value):
        # OPENBLAS_CORETYPE picks the BLAS kernel that OpenBLAS would pick
        # on another CPU, and OPENBLAS_NUM_THREADS=1 its one-thread path.  A
        # channel mix taken as a matrix product wrote other rn_value_at_zero
        # bits under each CORETYPE, on both configs: on the trapezoid one
        # 0.85480353833945 against 0.8548035383394501.  The sweep and the
        # solve must write the same bytes with the variable unset and set
        cfg = write_config(tmp_path / "c.cfg", T=2, **overrides)
        written = []
        for setting in (None, value):
            out = tmp_path / f"out-{setting}"
            sweep, solve = (
                [command, "--config", str(cfg), "--out", str(out), *args]
                for command, args in (("sweep", ["--axis", "gamma", "--values", "0.02,0.05"]), ("solve", []))
            )
            script = f"from risksched.cli import main; raise SystemExit(main({sweep!r}) or main({solve!r}))"
            proc = _run_fresh([sys.executable, "-c", script], **{variable: setting})
            assert proc.returncode == 0, proc.stderr
            names = ("sweep.csv", "thresholds.csv", "values.csv", "policy.csv")
            written.append({name: (out / name).read_bytes() for name in names})
        assert written[0] == written[1]

    def test_gamma_axis_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=161)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--axis", "gamma", "--values", "0.05,0.1"]
        )
        assert code == 0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 * (2 + 1) * 2
        assert {r["value"] for r in rows} == {"0.05", "0.1"}

    def test_empty_values_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--axis", "gamma", "--values", ""]
        )
        assert code == 1

    def test_infeasible_value_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=161)
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--axis", "gamma", "--values", "0.05,0.6"]
        )
        assert code == 2

    def test_infeasible_value_gets_nan_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=161)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--axis", "gamma", "--values", "0.05,0.6,0.1"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        # the T + 1 = 3 lines of the infeasible value's beta trace, then its message
        trace_at = err.index("t=0: beta=0 2*sigma2*beta=0 ok=True")
        assert err[trace_at + 3 :][:1] == ["gamma = 0.6: infeasible at stage 1"]
        _, rows = read_csv(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["0.05"] * 6 + ["0.6"] * 6 + ["0.1"] * 6
        for r in rows[6:12]:
            assert (r["threshold"], r["w_at_zero"], r["rn_value_at_zero"]) == ("nan", "nan", "nan")
        feasible_out = tmp_path / "feasible"
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(feasible_out),
             "--axis", "gamma", "--values", "0.05,0.1"]
        ) == 0
        _, feasible_rows = read_csv(feasible_out / "sweep.csv")
        assert rows[:6] + rows[12:] == feasible_rows

    def test_unknown_axis_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")
        with pytest.raises(SystemExit) as ei:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--axis", "sigma2", "--values", "1.0"])
        assert ei.value.code == 1


def reference_csv(path, header_lines, columns):
    """_write_csv's format written the plain way: csv.writer on every row,
    floats by repr and every other cell by str, one cell at a time."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        writer = csv.writer(fh)
        writer.writerow(columns)
        cells = [
            [repr(v) if isinstance(v, float) else str(v) for v in np.asarray(col).tolist()]
            for col in columns.values()
        ]
        writer.writerows(zip(*cells))


class TestWriteCsv:
    N_ROWS = _BLOCK_ROWS + 37  # two blocks, the second partial

    def numeric_columns(self):
        rng = np.random.default_rng(7)
        specials = np.array(
            [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2, 1.0]
        )
        return {
            "special": rng.choice(specials, self.N_ROWS),  # each value repeated in a block
            "normal": rng.standard_normal(self.N_ROWS),
            "small": rng.integers(-128, 128, self.N_ROWS).astype(np.int8),
            "big": rng.integers(-(2**62), 2**62, self.N_ROWS),
            "flag": rng.random(self.N_ROWS) < 0.5,
            # a seed header cell reaches past int64
            "seed": rng.choice(np.array([2**63 - 1, 2**63, 2**64 - 1], np.uint64), self.N_ROWS),
            "constant": np.full(self.N_ROWS, -7),  # one value on both sides of the block boundary
        }

    def assert_same_bytes(self, tmp_path, columns):
        header = ["# a = 1", "# b = x"]
        _write_csv(tmp_path / "got.csv", header, columns)
        reference_csv(tmp_path / "want.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_numeric_columns(self, tmp_path):
        self.assert_same_bytes(tmp_path, self.numeric_columns())

    def test_text_columns_need_no_quoting(self, tmp_path):
        # the text cells the commands write: oracle check names and details,
        # policy sources and sweep axes; none holds ',', '"' or a line break,
        # so csv.writer quotes none of them either
        texts = [
            "optimal_policy_threshold_structure",
            "rel_gap=1.234e-15",
            "transmit_count=0",
            "u(delta)=u(-delta)",
            "up-set in |delta|",
            "coarse=3.210e-03 fine=1.234e-03",
            "builtin:idle",
            "threshold-file",
            "lambda",
        ]
        columns = {
            **self.numeric_columns(),
            "text": [texts[k % len(texts)] for k in range(self.N_ROWS)],
            "mixed": [[None, 1.5, "solved", 2][k % 4] for k in range(self.N_ROWS)],
        }
        self.assert_same_bytes(tmp_path, columns)

    @staticmethod
    def assert_solve_tables(out, cfg, grid, table, pol):
        """policy.csv and values.csv as reference_csv writes the folded tables
        mirrored onto the full grid, one row per (stages_to_go, c, node)."""
        n_blocks = 2 * (pol.horizon + 1)
        index = {
            "stages_to_go": np.repeat(np.arange(pol.horizon + 1), 2 * grid.n_points),
            "c": np.tile(np.repeat([0, 1], grid.n_points), pol.horizon + 1),
            "delta": np.tile(grid.nodes(), n_blocks),
        }
        header = _header_lines(cfg, grid)
        tables = {
            "policy.csv": {"u": pol.u_star, "q_margin": pol.q_margin},
            "values.csv": {"w": table.w},
        }
        for name, columns in tables.items():
            full = {key: grid.unfold(a).ravel() for key, a in columns.items()}
            reference_csv(out / f"want-{name}", header, {**index, **full})
            assert (out / name).read_bytes() == (out / f"want-{name}").read_bytes(), name

    @pytest.mark.parametrize("n_points", [3, 5, 21])
    def test_solve_tables(self, tmp_path, n_points):
        cfg = parse_config(write_config(tmp_path / "c.cfg", T=2, n_points=n_points))
        assert cmd_solve(cfg, tmp_path, plot_data=True) == 0
        grid = GridSpec(auto_delta_max(cfg.params, cfg.quad), n_points)
        table, pol = value_iterate(cfg.params, grid, cfg.quad, space="folded")
        self.assert_solve_tables(tmp_path, cfg, grid, table, pol)

    @pytest.mark.parametrize("n_points", [3, 5, 7, 11, 41])
    def test_hand_built_solve_tables(self, tmp_path, monkeypatch, n_points):
        """Folded tables of special floats in runs of equal bits, the first
        run of each row starting at delta = 0 so that its mirror crosses the
        grid's center, and actions that are up-sets, as extract_thresholds
        needs: all idle, all transmit, or a threshold in between."""
        T = 3
        grid = GridSpec(3.0, n_points)
        m = grid.n_folded
        rng = np.random.default_rng(n_points)
        specials = np.array(
            [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2, 1.0]
        )

        def runs(shape):
            rows = []
            for _ in range(math.prod(shape[:-1])):
                lengths = rng.integers(1, 4, m)
                rows.append(np.repeat(rng.choice(specials, m), lengths)[:m])
            return np.reshape(rows, shape)

        shape = (T + 1, 2, m)
        first = rng.integers(0, m + 1, shape[:-1])  # m: never transmit
        u_star = (np.arange(m) >= first[..., None]).astype(np.int8)
        u_star[0] = 0
        u_star[1, 1] = 1  # a run of ones across the center
        pol = PolicyTable(u_star=u_star, q_margin=runs(shape), grid=grid, space="folded")
        table = LogValueTable(w=runs(shape), grid=grid, space="folded")
        monkeypatch.setattr(cli, "_solve", lambda cfg: (grid, table, pol))
        cfg = parse_config(write_config(tmp_path / "c.cfg", T=T, n_points=n_points, delta_max="3.0"))
        assert cmd_solve(cfg, tmp_path, plot_data=True) == 0
        self.assert_solve_tables(tmp_path, cfg, grid, table, pol)


class TestParser:
    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1
