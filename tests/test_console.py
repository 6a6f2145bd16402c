"""The command line end to end: each test runs its commands in fresh processes.

By default a command runs as `python -m risksched.cli` with this checkout's
src on PYTHONPATH.  Where the environment variable RISKSCHED_CLI names an
executable, such as an installed `risksched`, each command runs that program
instead, with src kept off PYTHONPATH, so the installed package and its entry
point are what the tests exercise:

    RISKSCHED_CLI=risksched python -m pytest -q tests/test_console.py

Every command must exit with the code its test expects and print no
Traceback.  The module imports no risksched itself.
"""

import csv
import os
import sys

import pytest

from conftest import _run_fresh

CLI = os.environ.get("RISKSCHED_CLI")

# the standard model at T = 2 on the trapezoid cross-check grid
MODEL = {
    "a": "0.9",
    "sigma2": "1.0",
    "lambda": "1.0",
    "gamma": "0.05",
    "T": "2",
    "p01": "0.3",
    "p10": "0.2",
    "n_points": "201",
    "quad_rule": "trapezoid-on-grid",
}

# the same model under the default Hermite rule
HERMITE = {**MODEL, "quad_rule": None}

# the Monte Carlo model of 200000 rollouts, four chunks, at T = 20
MC20 = {
    "a": "0.8",
    "sigma2": "1.0",
    "lambda": "1.0",
    "gamma": "0.02",
    "T": "20",
    "p01": "0.3",
    "p10": "0.2",
    "n_rollouts": "200000",
}


def write_config(path, base=MODEL, **overrides):
    """Write base with overrides as a config file; a key set to None is left out."""
    kv = {**base, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items() if v is not None))
    return path


def cli(want, *args, warnings_as_errors=False, cpu=None):
    """Run the command line on args in a fresh process, pinned to one CPU where
    cpu is given; assert exit code want and no Traceback on stderr."""
    program = [CLI] if CLI else [sys.executable, "-m", "risksched.cli"]
    env = {"PYTHONWARNINGS": "error::RuntimeWarning"} if warnings_as_errors else {}
    proc = _run_fresh([*program, *map(str, args)], src=CLI is None, cpu=cpu, **env)
    assert proc.returncode == want, f"exit {proc.returncode}, expected {want}:\n{proc.stderr}"
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def read_csv(path):
    """(header as a dict of the `# key = value` lines, data rows as dicts)."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    header = dict(line[2:].strip().split(" = ", 1) for line in lines if line.startswith("#"))
    return header, list(csv.DictReader(line for line in lines if not line.startswith("#")))


def test_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.cfg")
    proc = cli(0, "check", "--config", cfg, "--out", tmp_path / "o")
    assert "feasible: yes" in proc.stdout


@pytest.mark.parametrize("noise_points", [None, "2", "5"], ids=["default", "2", "5"])
def test_oracle_noise_points(tmp_path, noise_points):
    cfg = write_config(tmp_path / "c.cfg")
    args = [] if noise_points is None else ["--noise-points", noise_points]
    proc = cli(0, "oracle", "--n-delta", "9", *args, "--config", cfg, "--out", tmp_path / "o")
    assert "FAIL" not in proc.stdout


def test_boundary_model_solves(tmp_path):
    # a = 0, 2 sigma2 beta = 0.997: the trapezoid kernel spans e^-6780 of
    # the grid, and must still solve
    model = {"a": "0", "sigma2": "87.6", "lambda": "41.5", "gamma": "0.00569", "n_points": "401"}
    cfg = write_config(tmp_path / "c.cfg", **model)
    cli(0, "solve", "--config", cfg, "--out", tmp_path / "o")


def test_overflowing_trapezoid_table_exit_2(tmp_path):
    # a = 1e200 at T = 1: the trapezoid value table overflows at stage 1
    cfg = write_config(tmp_path / "c.cfg", a="1e200", T="1")
    cli(2, "solve", "--config", cfg, "--out", tmp_path / "o", warnings_as_errors=True)


def test_too_fine_grid_exit_1(tmp_path):
    # the squared spacing of a 1e-300 radius underflows: refused, not a
    # division by zero in the Hermite stencil
    cfg = write_config(tmp_path / "c.cfg", base=HERMITE, n_points="401", delta_max="1e-300")
    proc = cli(1, "solve", "--config", cfg, "--out", tmp_path / "o", warnings_as_errors=True)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not (tmp_path / "o").exists()


def test_auto_radius_whose_square_overflows_exit_1(tmp_path):
    # the auto radius of this feasible model is 2.06e154, whose square
    # overflows: each command that solves refuses it before any stage runs
    model = {"sigma2": "1e307", "gamma": "1e-310", "T": "1", "n_points": None, "quad_rule": None}
    cfg = write_config(tmp_path / "c.cfg", **model)
    commands = (
        ["solve"],
        ["simulate", "--policy-source", "solved"],
        ["sweep", "--axis", "gamma", "--values", "1e-310"],
        ["oracle"],
    )
    for command in commands:
        out = tmp_path / command[0]
        proc = cli(1, *command, "--config", cfg, "--out", out, warnings_as_errors=True)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: auto delta_max"), proc.stderr
        assert "2.055" in lines[0] and not out.exists()


def test_hermite_threshold_and_evenness(tmp_path):
    # transmitting pays exactly when delta^2 > lambda with one stage to go,
    # so threshold(j=1, c=1) lies in (1, 1 + one grid step]; and every
    # values.csv and policy.csv row at -delta equals the row at +delta
    cfg = write_config(tmp_path / "c.cfg", base=HERMITE)
    out = tmp_path / "o"
    cli(0, "solve", "--config", cfg, "--out", out)
    header, thresholds = read_csv(out / "thresholds.csv")
    step = 2.0 * float(header["delta_max"]) / (int(header["n_points"]) - 1)
    thr = [float(r["threshold"]) for r in thresholds if (r["stages_to_go"], r["c"]) == ("1", "1")]
    assert len(thr) == 1 and 1.0 < thr[0] <= 1.0 + step
    for name, cols in (("values.csv", ["w"]), ("policy.csv", ["u", "q_margin"])):
        _, rows = read_csv(out / name)
        cells = {(r["stages_to_go"], r["c"], float(r["delta"])): [r[k] for k in cols] for r in rows}
        assert [k for k, v in cells.items() if cells[k[0], k[1], -k[2]] != v] == [], name


@pytest.mark.parametrize(
    "base, overrides",
    [
        (MODEL, {"n_rollouts": "200000"}),
        (MC20, {}),
        # 2 * 65536 + 16385 rollouts: the last chunk is one full step block
        # of 16384 rollouts and a one-row one
        (MC20, {"n_rollouts": "147457"}),
    ],
    ids=["trapezoid", "t20", "t20-partial-block"],
)
def test_simulate_bytes_do_not_follow_the_core_count(tmp_path, base, overrides):
    # on every CPU this process may use, then on one alone (no thread pool):
    # the lowest of them stands in for the CPU 0 of `taskset -c 0`
    cfg = write_config(tmp_path / "c.cfg", base=base, **overrides)
    for out, cpu in (("all", None), ("one", min(os.sched_getaffinity(0)))):
        cli(0, "simulate", "--config", cfg, "--out", tmp_path / out, cpu=cpu)
    for name in ("metrics.csv", "trace.csv"):
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


@pytest.mark.parametrize("base", [MODEL, HERMITE], ids=["trapezoid", "hermite"])
def test_risk_neutral_table_past_the_float_range_exit_2(tmp_path, base):
    # delta^2 at the outer nodes is 1.69e308: a sweep point's risk-neutral
    # table overflows at its second stage, where the log-domain table of
    # `solve` stays finite
    cfg = write_config(tmp_path / "c.cfg", base=base, n_points="101", delta_max="1.3e154")
    for axis, value in (("gamma", "0.05"), ("lambda", "1.0")):
        out = tmp_path / axis
        args = ["sweep", "--axis", axis, "--values", value, "--config", cfg, "--out", out]
        proc = cli(2, *args, warnings_as_errors=True)
        assert f"{axis} = {value}: value table overflowed at stage 2" in proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
    proc = cli(0, "solve", "--config", cfg, "--out", tmp_path / "solve", warnings_as_errors=True)
    assert "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("n_rollouts", ["2000", "70000"])
def test_spread_of_the_cost_past_the_float_range(tmp_path, n_rollouts):
    # sigma2 = 1e200: S ~ 1e200, whose spread leaves the float range, while
    # gamma * S ~ 0.1 keeps the risk objective finite
    model = {"sigma2": "1e200", "gamma": "1e-201", "n_rollouts": n_rollouts}
    cfg = write_config(tmp_path / "c.cfg", base=HERMITE, n_points=None, **model)
    for source in ("solved", "builtin:idle"):
        out = tmp_path / source.replace(":", "-")
        args = ["simulate", "--policy-source", source, "--config", cfg, "--out", out]
        proc = cli(0, *args, warnings_as_errors=True)
        assert "Warning" not in proc.stderr, proc.stderr
        _, rows = read_csv(out / "metrics.csv")
        assert rows[0]["var_cost"] == "inf"


def test_subnormal_gain_simulates(tmp_path):
    # x_hat = (x - delta0) / a is past the float range at a = 1e-310
    cfg = write_config(tmp_path / "c.cfg", base=HERMITE, a="1e-310", n_points=None)
    out = tmp_path / "o"
    proc = cli(0, "simulate", "--config", cfg, "--out", out, warnings_as_errors=True)
    assert "Warning" not in proc.stderr, proc.stderr
    _, rows = read_csv(out / "trace.csv")
    assert rows[0]["x_hat"] == "inf"


@pytest.mark.parametrize(
    "model, stage",
    [
        # a^2 beta_2 = 1e308 * 1e8 overflows: beta_3 is +inf
        ({"a": "1e154", "sigma2": "1e-10", "gamma": "1e-300", "T": "3"}, 3),
        # beta_1 = 1e10 is finite, and 2 sigma2 beta_1 = 2e310 is not
        ({"sigma2": "1e300", "gamma": "1e10"}, 1),
    ],
    ids=["beta", "two-sigma2-beta"],
)
def test_feasibility_past_the_float_range_exit_2(tmp_path, model, stage):
    cfg = write_config(tmp_path / "c.cfg", **model)
    proc = cli(2, "check", "--config", cfg, warnings_as_errors=True)
    assert proc.stdout.endswith(f"feasible: no — infeasible at stage {stage}\n")
    assert "Warning" not in proc.stderr, proc.stderr
