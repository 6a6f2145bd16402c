"""End-to-end CLI tests: config parsing, artifacts, exit codes."""

import csv
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import risksched
from risksched import GridSpec, ModelParams, QuadratureSpec, extract_thresholds, value_iterate
from risksched import sim
from risksched.cli import ConfigError, load_threshold_csv, main, parse_config
from risksched.sim import CHUNK_SIZE

BASE = {
    "a": "0.9",
    "sigma2": "1.0",
    "lambda": "1.0",
    "gamma": "0.05",
    "T": "3",
    "p01": "0.3",
    "p10": "0.2",
}


def write_config(path, **overrides):
    kv = dict(BASE)
    kv.update({k: str(v) for k, v in overrides.items()})
    lines = ["# test configuration", ""]
    lines += [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


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
            "quad_rule = simpson",
            "no equals sign here",
        ],
    )
    def test_rejects_bad_lines(self, tmp_path, mutation):
        path = write_config(tmp_path / "c.cfg")
        path.write_text(path.read_text() + mutation + "\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_rejects_missing_required_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 0.9\nsigma2 = 1.0\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 1


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

    @pytest.mark.parametrize("delta_q", ["-1", "inf"])
    def test_oracle_bad_delta_q(self, tmp_path, capsys, delta_q):
        cfg = write_config(tmp_path / "c.cfg", T=2)
        code = main(
            ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "5",
             "--delta-q", delta_q]
        )
        assert_error_exit_1(code, capsys)

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
    src = os.path.dirname(os.path.dirname(risksched.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "codes [0, 0, 0, 0, 0]" in proc.stdout, proc.stdout + proc.stderr


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
        from risksched.solver import auto_delta_max

        grid = GridSpec(auto_delta_max(cfg.params, cfg.quad), cfg.n_points)
        _, pol = value_iterate(cfg.params, grid, cfg.quad)
        expected = extract_thresholds(pol, grid)
        loaded = load_threshold_csv(out / "thresholds.csv")
        assert np.array_equal(loaded.threshold, expected.threshold)

    def test_plot_data_toggle(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_points=81, delta_max="6.0")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-plot-data"]) == 0
        assert not (out / "values.csv").exists()

    def test_infeasible_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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

    def test_threshold_file_source(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_points=201, n_rollouts=2000)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--policy-source", "threshold-file",
             "--threshold-file", str(out / "thresholds.csv"), "--c0", "1"]
        )
        assert code == 0

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

    def test_solved_source_infeasible_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", gamma="0.6")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2


class TestOracle:
    def test_report_all_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=2, n_points=201)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "oracle_report.csv")
        assert len(rows) == 6
        assert all(r["pass"] == "1" for r in rows)
        assert any(h.startswith("# noise_values") for h in header)
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n_delta,chain", [("9", "requested chain (n_delta=9)"), ("5", "refinement chain (n_delta=9)")]
    )
    def test_budget_message_names_largest_fitting_n_delta(self, tmp_path, capsys, n_delta, chain):
        cfg = write_config(tmp_path / "c.cfg", T=5)  # the README example config
        code = main(
            ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", n_delta]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert chain in err
        assert "the largest n_delta that fits is 3" in err

    def test_budget_message_when_nothing_fits(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", T=20, gamma="0.01")
        code = main(
            ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--n-delta", "3"]
        )
        assert code == 3
        assert "no odd n_delta >= 3 fits" in capsys.readouterr().err

    def test_budget_exit_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg")  # T=3
        code = main(
            ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mode", "full"]
        )
        assert code == 3


class TestSweep:
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
        assert "beta[0]" in capsys.readouterr().err
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


class TestParser:
    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1
