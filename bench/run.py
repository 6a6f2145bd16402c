"""risksched benchmark: CLI workloads timed end to end, outputs checked
against exact or pinned references, and a traced run for per-layer numbers.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of ``risksched`` commands (one *cycle*)
on a config generated from the workload and ``--seed``.  One client runs
cycles in a closed loop: every command is a fresh interpreter started
only after the previous one exits, so the two cores are never
oversubscribed.  Every output file of every command is parsed and checked;
a command fails on a non-zero exit, a missing or unparsable output, a FAIL
row in oracle_report.csv, or an accuracy figure outside its tolerance.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
commands.  --trace 1 reports its per-layer metrics: traced cycles run the
commands under bench/traced_cli.py, interleaved with untraced cycles whose
median gives trace.overhead_s.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENTRY = "import sys; from risksched.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
# Commands get only the time left before this, so a run ends inside its
# 180 s limit; a command cut short fails.
RUN_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MC_Z_TOL = 5.0  # |MC - reference| in standard errors
RN_TOL = 2e-2  # risk-neutral V_2(0, c); the Hermite rule is off by 7e-3 at baseline


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict  # a, gamma, T; the rest comes from refs.BASE
    options: dict  # optional config keys
    commands: tuple  # CLI argument lists; Runner adds --config and --out
    w_ref: tuple  # W_T(0, c) reference, c = 0, 1
    w_tol: float


def _t2_ref(model):
    return refs.closed_form_t2(
        refs.BASE["sigma2"], refs.BASE["lambda"], model["gamma"], refs.BASE["p01"], refs.BASE["p10"]
    )


STARTUP = {"a": 0.9, "gamma": 0.05, "T": 2}
T20 = refs.PINNED["T20"]["model"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "startup",
            STARTUP,
            {"n_points": 401, "n_rollouts": 20000},
            (
                ["check"],
                ["solve"],
                ["simulate", "--policy-source", "solved"],
                ["sweep", "--axis", "gamma", "--values", "0.02,0.05,0.08"],
            ),
            _t2_ref(STARTUP),
            1e-3,  # Hermite-64 floor: 3.6e-4 at every n
        ),
        Workload(
            "solve-fine",
            T20,
            {"n_points": 4001},
            (["solve"],),
            refs.PINNED["T20"]["w0"],
            3e-3,  # Hermite-64 error at T=20 is 4.4e-4 on this grid
        ),
        Workload(
            "mc-rollouts",
            T20,
            {"n_points": 401, "n_rollouts": 1000000},
            (["solve"], ["simulate", "--policy-source", "solved"]),
            refs.PINNED["T20"]["w0"],
            3e-3,  # Hermite-64 error at T=20 is 6e-4
        ),
        Workload(
            "verify",
            STARTUP,
            {"n_points": 2001, "quad_rule": "trapezoid-on-grid"},
            (["solve"], ["oracle", "--n-delta", "17"]),
            _t2_ref(STARTUP),
            1e-6,  # trapezoid at n_points=2001 is off by 1.1e-7
        ),
    )
}


class CheckFailed(Exception):
    pass


def iter_rows(path: Path):
    """Data rows of a CLI output CSV as dicts, streamed; '#' lines skipped."""
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, newline="") as fh:
        yield from csv.DictReader(line for line in fh if not line.startswith("#"))


def read_csv(path: Path) -> tuple[dict, list[dict]]:
    """(header comments as key -> value, rows) of a small output CSV."""
    rows = list(iter_rows(path))
    if not rows:
        raise CheckFailed(f"{path.name} has no rows")
    header = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
    return header, rows


def count_rows(path: Path) -> int:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path) as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def _num(row: dict, key: str, path: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{path}: bad {key!r} in row {row}") from exc


def _within(name: str, err: float, tol: float) -> float:
    if not err <= tol:
        raise CheckFailed(f"{name} = {err:.3e} exceeds tolerance {tol:.1e}")
    return err


def beta_trace(model: dict) -> list[float]:
    s2, a, g = refs.BASE["sigma2"], model["a"], model["gamma"]
    beta = [0.0]
    for _ in range(model["T"]):
        beta.append(g + a * a * beta[-1] / (1.0 - 2.0 * s2 * beta[-1]))
    return beta


class Checker:
    """Per-command output checks; each returns the accuracy figures it took."""

    def __init__(self, wl: Workload, n_rollouts: int):
        self.wl = wl
        self.T = wl.model["T"]
        self.n_rollouts = n_rollouts

    def _beta(self, out: Path) -> None:
        _, rows = read_csv(out / "feasibility.csv")
        want = beta_trace(self.wl.model)
        got = [_num(r, "beta", "feasibility.csv") for r in rows]
        if len(got) != len(want) or any(abs(g - w) > 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
            raise CheckFailed(f"feasibility.csv: beta trace {got} != {want}")

    def check(self, out: Path, stdout: str) -> dict:
        lines = stdout.splitlines()
        want = beta_trace(self.wl.model)
        stages = [ln for ln in lines if ln.startswith("t=")]
        if lines[-1:] != ["feasible: yes"] or len(stages) != len(want):
            raise CheckFailed(f"check printed {len(stages)} stages, last line {lines[-1:]}")
        for ln, w in zip(stages, want):
            fields = dict(f.split("=", 1) for f in ln.split())
            # printed with 6 significant digits
            if fields["ok"] != "True" or abs(float(fields["beta"]) - w) > 1e-5 * max(1.0, w):
                raise CheckFailed(f"check line {ln!r}, want beta={w:.6g}")
        return {}

    def solve(self, out: Path, stdout: str) -> dict:
        T, lam = self.T, refs.BASE["lambda"]
        header, rows = read_csv(out / "thresholds.csv")
        thr = {(int(r["stages_to_go"]), int(r["c"])): _num(r, "threshold", "thresholds.csv") for r in rows}
        if len(thr) != 2 * (T + 1):
            raise CheckFailed(f"thresholds.csv has {len(thr)} rows, want {2 * (T + 1)}")
        if any(math.isfinite(thr[j, 0]) for j in range(T + 1)) or math.isfinite(thr[0, 1]):
            raise CheckFailed("thresholds.csv transmits on a bad channel or with no stage to go")
        n = int(header["n_points"])
        spacing = 2.0 * float(header["delta_max"]) / (n - 1)
        # First transmitting node above sqrt(lambda): never closer than 0
        # (ties idle), never more than one grid step away.
        thr1_err = thr[1, 1] - refs.threshold_j1(lam)
        if not 0.0 < thr1_err <= spacing * (1.0 + 1e-9):
            raise CheckFailed(f"threshold(j=1, c=1) = {thr[1, 1]!r}, want within one step above 1")
        w0 = {}
        n_values = 0
        for r in iter_rows(out / "values.csv"):
            n_values += 1
            if r["stages_to_go"] == str(T) and float(r["delta"]) == 0.0:
                w0[int(r["c"])] = _num(r, "w", "values.csv")
        if n_values != 2 * (T + 1) * n or sorted(w0) != [0, 1]:
            raise CheckFailed(f"values.csv has {n_values} rows or lacks W_T(0, c)")
        if count_rows(out / "policy.csv") != 2 * (T + 1) * n:
            raise CheckFailed("policy.csv row count")
        self._beta(out)
        w_err = max(abs(w0[c] - self.wl.w_ref[c]) for c in (0, 1))
        return {"thr1_err": thr1_err, "w_err": _within("w_err", w_err, self.wl.w_tol)}

    def simulate(self, out: Path, stdout: str) -> dict:
        _, rows = read_csv(out / "metrics.csv")
        r = rows[0]
        if int(r["n"]) != self.n_rollouts or r["tail_ok"] != "1":
            raise CheckFailed(f"metrics.csv: n={r['n']} tail_ok={r['tail_ok']}")
        ref = refs.stationary_log_mix(self.wl.w_ref, refs.BASE["p01"], refs.BASE["p10"])
        se = _num(r, "se_log", "metrics.csv")
        if not se > 0:
            raise CheckFailed(f"metrics.csv: se_log = {se}")
        gap = abs(_num(r, "log_objective", "metrics.csv") - ref) / se
        if count_rows(out / "trace.csv") != self.T:
            raise CheckFailed("trace.csv row count")
        return {"mc_gap_se": _within("mc_gap_se", gap, MC_Z_TOL)}

    def sweep(self, out: Path, stdout: str) -> dict:
        if self.T != 2:
            raise CheckFailed("sweep references exist for T = 2 only")
        s2, lam, p01, p10 = (refs.BASE[k] for k in ("sigma2", "lambda", "p01", "p10"))
        _, rows = read_csv(out / "sweep.csv")
        values = sorted({r["value"] for r in rows})
        if len(rows) != len(values) * 2 * (self.T + 1):
            raise CheckFailed("sweep.csv row count")
        rn_ref = refs.risk_neutral_t2(s2, lam, p01, p10)
        for r in rows:
            j, c, g = int(r["stages_to_go"]), int(r["c"]), float(r["value"])
            if j == 2:
                w_ref = refs.closed_form_t2(s2, lam, g, p01, p10)[c]
                _within("sweep w_err", abs(_num(r, "w_at_zero", "sweep.csv") - w_ref), self.wl.w_tol)
                _within("sweep rn_err", abs(_num(r, "rn_value_at_zero", "sweep.csv") - rn_ref[c]), RN_TOL)
            if j == 1 and c == 1:
                # sweep.csv does not record delta_max; one step of a 401-point
                # grid stays below 0.1 while delta_max < 20
                err = _num(r, "threshold", "sweep.csv") - refs.threshold_j1(lam)
                if not 0.0 < err <= 0.1:
                    raise CheckFailed(f"sweep threshold(j=1, c=1) off by {err}")
        return {}

    def oracle(self, out: Path, stdout: str) -> dict:
        _, rows = read_csv(out / "oracle_report.csv")
        failed = [r["check"] for r in rows if r["pass"] != "1"]
        if failed or len(rows) < 6:
            raise CheckFailed(f"oracle_report.csv: {len(rows)} checks, failing {failed}")
        return {}


@dataclass
class Invocation:
    command: str
    wall_s: float
    ok: bool
    reason: str = ""
    accuracy: dict = field(default_factory=dict)
    bytes_written: int = 0
    spans: dict | None = None


class Runner:
    """Runs commands in fresh interpreters, one at a time."""

    def __init__(self, wl: Workload, seed: int, run_dir: Path, started: float):
        self.wl = wl
        self.run_dir = run_dir
        self.started = started
        self.env = child_env()
        options = dict(wl.options, seed=seed)
        cfg = dict(refs.BASE, **wl.model, **options)
        self.cfg_path = run_dir / "model.cfg"
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        self.checker = Checker(wl, int(options.get("n_rollouts", 100000)))
        self.n_invocations = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def import_once(self) -> float:
        code = "import risksched.cli, sys; sys.stdout.write(risksched.cli.__file__)"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True, text=True)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or not Path(proc.stdout).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: import risksched.cli from {SRC} failed: {proc.stderr.strip()}")
        return dt

    def invoke(self, index: int, args: list, traced: bool) -> Invocation:
        out = self.run_dir / f"out{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        # `check --out` writes np.float64(...) reprs into feasibility.csv under
        # numpy 2 (a baseline defect), so check is run without --out and its
        # stdout is checked instead.
        out_args = [] if args[0] == "check" else ["--out", str(out)]
        cli_args = [args[0], "--config", str(self.cfg_path), *out_args, *args[1:]]
        invocation = f"{self.n_invocations}:{args[0]}"
        self.n_invocations += 1
        spans_path = self.run_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), invocation, *cli_args]
        else:
            argv = [sys.executable, "-c", ENTRY, *cli_args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, env=self.env, capture_output=True, text=True, timeout=max(1.0, self.time_left())
            )
        except subprocess.TimeoutExpired:
            return Invocation(args[0], time.perf_counter() - t0, False, "timed out")
        wall = time.perf_counter() - t0
        inv = Invocation(args[0], wall, True)
        inv.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        try:
            if proc.returncode != 0:
                raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            inv.accuracy = getattr(self.checker, args[0])(out, proc.stdout)
            if traced:
                inv.spans = json.loads(spans_path.read_text())
                spans_path.unlink()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            inv.ok, inv.reason = False, f"{type(exc).__name__}: {exc}"
        return inv

    def cycle(self, traced: bool) -> list[Invocation]:
        return [self.invoke(i, args, traced) for i, args in enumerate(self.wl.commands)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"  # single-threaded BLAS/OpenMP: one client on nproc cores
    return env


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    except OSError:
        pass

    def cache_bytes(level):
        try:
            proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True)
            return int(proc.stdout)
        except (OSError, ValueError):
            return None

    env = child_env()
    return {
        "commit": commit,  # None in a checkout that is not a git repository
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "thread_env": {k: env[k] for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def _self_times(spans: list) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(cycle: list[Invocation]) -> dict:
    """Per-layer figures of one traced cycle (times summed over its commands)."""
    t: dict[str, float] = {}
    counts: dict[str, int] = {}
    peaks: dict[str, int] = {}
    solves = []
    for inv in cycle:
        sp = inv.spans
        for s, own in zip(sp["spans"], _self_times(sp["spans"])):
            t[s[0]] = t.get(s[0], 0.0) + s[2] - s[1]
            layer = s[0].split(".")[0]
            t[layer + ".self"] = t.get(layer + ".self", 0.0) + own
        for k, v in sp["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in sp["peak_alloc"].items():
            peaks[k] = max(peaks.get(k, 0), v)
        solves += sp["solves"]
    g = lambda name: t.get(name, 0.0)  # noqa: E731
    # Seed-algorithm integrand evaluations per stage: both next-channel
    # tables at every drift center plus the reset center, times the rule's
    # abscissae.  Computed from the arguments, not counted inside the solver.
    evals = working_set = stages = 0
    for s in solves:
        n_centers = s["n_points"] if s["space"] == "original" else (s["n_points"] + 1) // 2
        n_int = s["quad_nodes"] if s["rule"] == "gauss-hermite-centered" else s["n_points"]
        evals += s["T"] * 2 * (n_centers + 1) * n_int
        working_set = max(working_set, 8 * 2 * n_centers * n_int)
        stages += s["T"]
    sim_s = g("sim.estimate_risk_objective") + g("sim.estimate_mean_variance") + g("sim.rollout")
    simulated = counts.get("sim.rollouts_simulated", 0)
    enumerated = counts.get("oracle.policies_enumerated", 0)
    mc = [inv.accuracy["mc_gap_se"] for inv in cycle if "mc_gap_se" in inv.accuracy]
    return {
        "import.numpy_s": g("import.numpy"),
        "import.scipy_s": g("import.scipy"),
        "import.risksched_s": g("import.risksched"),
        "import.self_s": g("import.self"),
        "cli.self_s": g("cli.self"),
        "cli.bytes_written": sum(inv.bytes_written for inv in cycle),
        "solver.self_s": g("solver.self"),
        "solver.value_iterate_s": g("solver.value_iterate"),
        "solver.value_iterate_calls": len(solves),
        "solver.stage_s": g("solver.value_iterate") / stages if stages else 0.0,
        "solver.kernel_evals": evals,
        "solver.bytes_computed": working_set,
        "solver.peak_alloc_mb": peaks.get("solver.value_iterate", 0) / 2**20,
        "solver.risk_neutral_s": g("solver.risk_neutral_value_iterate"),
        "solver.auto_delta_max_s": g("solver.auto_delta_max"),
        "solver.check_feasibility_s": g("solver.check_feasibility"),
        "policy.self_s": g("policy.self"),
        "policy.extract_thresholds_s": g("policy.extract_thresholds"),
        "policy.decide_s": g("policy.decide"),
        "policy.decisions": counts.get("policy.decisions", 0),
        "sim.self_s": g("sim.self"),
        "sim.estimate_risk_objective_s": g("sim.estimate_risk_objective"),
        "sim.estimate_mean_variance_s": g("sim.estimate_mean_variance"),
        "sim.rollout_s": g("sim.rollout"),
        "sim.rollouts_requested": counts.get("sim.rollouts_requested", 0),
        "sim.rollouts_simulated": simulated,
        "sim.useful_ratio": counts.get("sim.rollouts_requested", 0) / simulated if simulated else 0.0,
        "sim.rollouts_per_s": simulated / sim_s if sim_s else 0.0,
        "sim.mc_gap_se": max(mc) if mc else 0.0,
        "model.self_s": g("model.self"),
        "oracle.self_s": g("oracle.self"),
        "oracle.brute_force_optimal_s": g("oracle.brute_force_optimal"),
        "oracle.policies_enumerated": enumerated,
        "oracle.policies_per_s": enumerated / g("oracle.brute_force_optimal") if enumerated else 0.0,
        "oracle.exact_policy_cost_s": g("oracle.exact_policy_cost"),
        "oracle.quantize_s": g("oracle.quantize"),
        "oracle.peak_alloc_mb": peaks.get("oracle.brute_force_optimal", 0) / 2**20,
    }


# Per-layer figures that must repeat exactly from one traced cycle to the next.
EXACT_COUNTS = (
    "cli.bytes_written",
    "solver.value_iterate_calls",
    "solver.kernel_evals",
    "solver.bytes_computed",
    "policy.decisions",
    "sim.rollouts_requested",
    "sim.rollouts_simulated",
    "oracle.policies_enumerated",
)


def cycle_wall(cycle: list[Invocation]) -> float:
    return sum(inv.wall_s for inv in cycle)


def run(wl: Workload, seed: int, seconds: int, trace: bool, run_dir: Path, started: float):
    """Returns (metrics, invocations, problems, extra) for the result line."""
    runner = Runner(wl, seed, run_dir, started)
    # Traced runs interleave untraced cycles for the overhead figure and run
    # at least two traced cycles so the count self-check has a pair.
    plan = [True, False, True] if trace else [False]
    cycles: list[tuple[bool, list[Invocation]]] = []
    t_measure = time.perf_counter()
    setup = [runner.import_once()]  # also checks that risksched comes from SRC
    steps = []  # seconds per loop step: one cycle, its checks and one import
    while True:
        t_step = time.perf_counter()
        traced = plan.pop(0) if plan else (trace and not cycles[-1][0])
        cycles.append((traced, runner.cycle(traced)))
        if any(not inv.ok for inv in cycles[-1][1]) or runner.time_left() <= 0:
            break
        # Stop at the step boundary nearest to the end of --seconds, so a
        # run lasts --seconds on average rather than up to a cycle more.
        if not plan and time.perf_counter() - t_measure + statistics.median(steps or [0.0]) / 2 >= seconds:
            break
        if not trace:
            # Set-up samples are spread over the run like the cycles, so
            # drifts in the machine's speed weigh on both alike.
            setup.append(runner.import_once())
        steps.append(time.perf_counter() - t_step)
    if not trace:
        setup += [runner.import_once() for _ in range(SETUP_SAMPLES - len(setup))]
    invocations = [inv for _, c in cycles for inv in c]
    problems = [f"{inv.command}: {inv.reason}" for inv in invocations if not inv.ok]
    complete = not problems
    untraced = [c for traced, c in cycles if not traced]
    # Solve outputs are deterministic: every cycle must give the same figures.
    for key in ("thr1_err", "w_err"):
        vals = {inv.accuracy[key] for inv in invocations if key in inv.accuracy}
        if len(vals) > 1:
            problems.append(f"{key} differs between cycles: {sorted(vals)}")
    extra = {"setup_samples": setup, "cycles": len(untraced), "cycle_wall_s": [cycle_wall(c) for c in untraced]}
    if not complete:
        return {}, invocations, problems, extra
    if not trace:
        acc = {k: v for inv in untraced[0] for k, v in inv.accuracy.items()}
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(cycle_wall(c) for c in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "thr1_err": acc["thr1_err"],
            "w_err": acc["w_err"],
        }
        return metrics, invocations, problems, extra
    traced_cycles = [c for traced, c in cycles if traced]
    per_cycle = [layer_metrics(c) for c in traced_cycles]
    for key in EXACT_COUNTS:
        vals = {m[key] for m in per_cycle}
        if len(vals) > 1:
            problems.append(f"count {key} differs between traced cycles: {sorted(vals)}")
    metrics = {
        k: per_cycle[0][k] if k in EXACT_COUNTS else statistics.median(m[k] for m in per_cycle)
        for k in per_cycle[0]
    }
    metrics["trace.overhead_s"] = statistics.median(cycle_wall(c) for c in traced_cycles) - statistics.median(
        cycle_wall(c) for c in untraced
    )
    extra["traced_cycles"] = len(traced_cycles)
    extra["spans"] = [inv.spans for c in traced_cycles for inv in c]
    unwrapped = sorted({n for s in extra["spans"] for n in s["unwrapped"]})
    if unwrapped:
        print(f"note: not found, so not traced: {', '.join(unwrapped)}")
    return metrics, invocations, problems, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "risksched" / "cli.py").is_file():
        print(f"error: no risksched sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    prov = provenance(args.seed)
    try:
        metrics, invocations, problems, extra = run(wl, args.seed, args.seconds, bool(args.trace), run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(not inv.ok for inv in invocations)
    result = {
        "correct": not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted} if metrics else {},
    }
    record = {"provenance": prov, "workload": wl.name, "trace": args.trace, "problems": problems, **extra}
    record["invocations"] = [
        {"command": i.command, "wall_s": i.wall_s, "ok": i.ok, "reason": i.reason, "accuracy": i.accuracy}
        for i in invocations
    ]
    record["result"] = result
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("provenance " + json.dumps(prov))
    for p in problems:
        print(f"FAIL {p}")
    print(f"fail_frac {failed / max(1, len(invocations)):.4g} ({failed}/{len(invocations)} commands)")
    for name, m in result["metrics"].items():
        note = f" (median of {extra['cycles']} cycles)" if name == "wall_s" else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name:32s} {value} {m['unit']}{note}")
    if not args.trace:
        # Seed-dependent, so reported per layer as sim.mc_gap_se rather than bounded here.
        gaps = [i.accuracy["mc_gap_se"] for i in invocations if "mc_gap_se" in i.accuracy]
        print(f"{'mc_gap_se':32s} {max(gaps):.6g} se" if gaps else f"{'mc_gap_se':32s} n/a (no simulate)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
