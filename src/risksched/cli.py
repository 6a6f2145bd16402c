"""Command-line orchestration: solve, simulate, oracle, sweep, check.

Configuration is one flat key=value file ('#' starts a comment) whose keys
are the rows of _KEYS: the model constants a, sigma2, lambda, gamma, T, p01
and p10 are required; delta_max (auto), n_points, quad_rule, quad_nodes,
seed and n_rollouts have defaults.  Every output is a CSV from the one writer
_write_csv: '#' header lines with the fully resolved config ('\n'), then
comma-separated rows ('\r\n') whose floats are written by repr, so they
read back exactly, and every other cell by str.  Every command that solves
goes through _solve, which solves the folded MDP (the value is even in
delta); solve writes policy.csv and values.csv on the full grid one
(stages_to_go, c) group at a time: the delta column is formatted once per
command, each folded table row once per run of equal values, and each
folded node's value text is joined once and mirrored, so the files are
exactly even; a group's text is one join.  Exit codes: 0 ok, 1
usage/config error, 2 infeasible parameters, 3 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .model import ModelParams
from .policy import (
    NonThresholdPolicyError,
    ThresholdSchedule,
    always_transmit_policy,
    extract_thresholds,
    idle_policy,
    threshold_policy,
)
from .solver import (
    GridSpec,
    InfeasibleModelError,
    QuadratureSpec,
    auto_delta_max,
    check_feasibility,
    risk_neutral_value_iterate,
    truncation_report,
    value_iterate,
)

__all__ = ["main", "parse_config", "ConfigError", "load_threshold_csv"]

# The oracle and sim names the commands call.  Each module is imported by
# the one command that uses it, so check, solve and sweep do not compile or
# load them.  The commands look these names up as attributes of this module,
# so a name replaced here is the one called, as for every other name the
# module imports (bench/traced_cli.py times the commands so).
_DEFERRED = {
    "oracle": ("EnumerationBudgetError", "_check_budget", "brute_force_optimal", "certify", "quantize"),
    "sim": ("estimate_risk_objective", "rollout"),
}


def __getattr__(name: str):  # PEP 562: the _DEFERRED names, from their module
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class Config:
    params: ModelParams
    delta_max: float | None  # None means auto
    n_points: int
    quad: QuadratureSpec
    seed: int
    n_rollouts: int


# Every config key: its default text (None if the key is required), its
# parser and the Config attribute it sets, as a dotted path.
_KEYS = {
    "a": (None, float, "params.a"),
    "sigma2": (None, float, "params.sigma2"),
    "lambda": (None, float, "params.lam"),
    "gamma": (None, float, "params.gamma"),
    "T": (None, int, "params.horizon"),
    "p01": (None, float, "params.p01"),
    "p10": (None, float, "params.p10"),
    "delta_max": ("auto", lambda text: None if text == "auto" else float(text), "delta_max"),
    "n_points": ("401", int, "n_points"),
    "quad_rule": (QuadratureSpec.rule, str, "quad.rule"),
    "quad_nodes": (str(QuadratureSpec.n_nodes), int, "quad.n_nodes"),
    "seed": ("0", int, "seed"),
    "n_rollouts": ("100000", int, "n_rollouts"),
}


def parse_config(path: str | Path) -> Config:
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # skips a byte-order mark
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [k for k, (default, _, _) in _KEYS.items() if default is None and k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    # attributes by owner: "params", "quad" or "" for Config itself
    fields: dict[str, dict] = {"params": {}, "quad": {}, "": {}}
    for key, (default, parse, attr) in _KEYS.items():
        owner, _, name = attr.rpartition(".")
        value = raw.get(key, default)
        try:
            fields[owner][name] = parse(value)
        except ValueError as exc:
            kind = "an integer" if parse is int else "a number"
            raise ConfigError(f"{path}: key {key!r} must be {kind}, got {value!r}") from exc
    own = fields[""]
    try:
        params = ModelParams(**fields["params"])
        quad = QuadratureSpec(**fields["quad"])
        delta_max = own["delta_max"]
        GridSpec(delta_max=1.0 if delta_max is None else delta_max, n_points=own["n_points"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not 0 <= own["seed"] < 2**64:  # the Philox key is a uint64
        raise ConfigError(f"{path}: seed must be in [0, 2**64), got {own['seed']}")
    if own["n_rollouts"] < 1:
        raise ConfigError(f"{path}: n_rollouts must be >= 1, got {own['n_rollouts']}")
    return Config(params=params, quad=quad, **own)


def _config_values(cfg: Config) -> dict:
    """Every config key's value in cfg, in _KEYS order, as parse_config reads it back."""
    values = {key: operator.attrgetter(attr)(cfg) for key, (_, _, attr) in _KEYS.items()}
    if values["delta_max"] is None:
        values["delta_max"] = "auto"
    return values


def _solve(cfg: Config):
    """(grid, log-value table, policy) of the config: resolve delta_max (auto
    or fixed) and solve the folded MDP, as the value is even in delta."""
    dmax = cfg.delta_max if cfg.delta_max is not None else auto_delta_max(cfg.params, cfg.quad)
    try:
        grid = GridSpec(delta_max=dmax, n_points=cfg.n_points)
    except ValueError as exc:  # only an auto radius: parse_config checked a fixed one
        raise ConfigError(f"auto delta_max: {exc}") from exc
    return (grid, *value_iterate(cfg.params, grid, cfg.quad, space="folded"))


def _header_lines(cfg: Config, grid: GridSpec | None, extra: dict | None = None) -> list[str]:
    items = _config_values(cfg)
    if grid is not None:
        items["delta_max"] = grid.delta_max
    items.update(extra or {})
    return [f"# {k} = {_cells([v])[0]}" for k, v in items.items()]


def _cells(column) -> list[str]:
    """Cells of one column, as a list of str: tolist() turns numpy scalars
    into Python ones (repr of a numpy float is "np.float64(...)"), and repr
    of a Python float is an exact round trip.  Flags come as ints.

    A numeric column (bool, int, uint or float) is formatted once per run of
    equal values, a float one per run of equal bit patterns, so -0.0 and NaN
    keep their text: an action row holds a few long runs.  Any other column
    is formatted cell by cell, by str.
    """
    a = np.asarray(column)
    if a.dtype.kind not in "biuf":
        return list(map(str, a.tolist()))
    bits = a.view(f"u{a.itemsize}") if a.dtype.kind == "f" else a
    first = np.ones(len(a), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    text = list(map(repr, a[starts].tolist()))
    if len(text) == len(a):
        return text
    return np.repeat(np.array(text, dtype=object), np.diff(starts, append=len(a))).tolist()


def _rows(block: list) -> str:
    """The text of a block of rows.  Each entry of block is a column: a list
    of cells, or a str that every row repeats.  Cells are joined by ',' and
    rows end in '\r\n', by one "".join of a list whose strided slices hold
    the columns and the constant text between them, which outruns a join
    per row."""
    slots = [""]  # constant text and columns, alternating
    for k, col in enumerate(block):
        if isinstance(col, str):
            slots[-1] += col
        else:
            slots += [col, ""]
        slots[-1] += "," if k + 1 < len(block) else "\r\n"
    if slots[0] == "":
        del slots[0]
    n = next(len(slot) for slot in slots if not isinstance(slot, str))
    pieces = [None] * (n * len(slots))
    for k, slot in enumerate(slots):
        pieces[k :: len(slots)] = [slot] * n if isinstance(slot, str) else slot
    return "".join(pieces)


# Rows formatted at a time from whole columns.  A cell's text takes about
# 75 bytes as a str, so a block of a wide table stays near 8 MB; solve's two
# large tables come in their own blocks, one (stages_to_go, c) group each.
_BLOCK_ROWS = 1 << 14


def _write_csv(path: Path, header_lines: list[str], columns: dict | list, blocks=None) -> None:
    """The one CSV writer: '#' header lines, the column names, then rows
    whose cells are joined by ',' and ended by '\r\n', a block of rows at a
    time by _rows.  columns maps each name to a sequence or array of equal
    length, formatted by _cells in blocks of _BLOCK_ROWS rows; or, with
    blocks, columns holds the names alone and blocks yields _rows' blocks,
    whose rows hold one cell per name (an entry's text may hold several
    cells, joined by ',').  No cell is quoted: the text cells the commands
    write (column names, oracle check names and details, policy_source,
    axis) hold no ',', '"' or line break."""
    if blocks is None:
        arrays = [np.asarray(col) for col in columns.values()]
        n_rows = max(len(a) for a in arrays)
        blocks = (
            [_cells(a[start : start + _BLOCK_ROWS]) for a in arrays]
            for start in range(0, n_rows, _BLOCK_ROWS)
        )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.writelines(line + "\n" for line in header_lines)
            fh.write(",".join(columns) + "\r\n")
            for block in blocks:
                fh.write(_rows(block))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


@np.errstate(all="ignore")  # 2 sigma2 beta past the float range is inf, a violation
def _feasibility(params: ModelParams) -> tuple:
    """The beta recursion of params, run once, in the one form every command
    reports it: (report, feasibility.csv columns, one line per stage)."""
    rep = check_feasibility(params)
    beta = rep.beta
    two_s2_beta = np.where(np.isfinite(beta), 2.0 * params.sigma2 * beta, math.nan)
    ok = (two_s2_beta < 1.0).astype(int)
    columns = {"t": np.arange(len(beta)), "beta": beta, "two_sigma2_beta": two_s2_beta, "ok": ok}
    rows = enumerate(zip(beta, two_s2_beta, ok))
    lines = [f"t={t}: beta={b:.6g} 2*sigma2*beta={x:.6g} ok={bool(k)}" for t, (b, x, k) in rows]
    return rep, columns, lines


def cmd_check(cfg: Config, out: Path | None) -> int:
    rep, columns, lines = _feasibility(cfg.params)
    verdict = "yes" if rep.feasible else f"no — infeasible at stage {rep.first_violation_stage}"
    print("\n".join([*lines, f"feasible: {verdict}"]))
    if out is not None:
        header = _header_lines(cfg, None, {"feasible": int(rep.feasible)})
        _write_csv(out / "feasibility.csv", header, columns)
    return 0 if rep.feasible else 2


def _print_beta_trace(params: ModelParams) -> None:
    print("\n".join(_feasibility(params)[2]), file=sys.stderr)


def cmd_solve(cfg: Config, out: Path, plot_data: bool) -> int:
    grid, table, pol = _solve(cfg)
    header = _header_lines(cfg, grid)
    schedule = extract_thresholds(pol, grid)
    T = cfg.params.horizon

    j = np.arange(T, -1, -1).repeat(2)
    c = np.tile([0, 1], T + 1)
    _write_csv(
        out / "thresholds.csv",
        header,
        {"wall_stage": T - j, "stages_to_go": j, "c": c, "threshold": schedule.threshold[j, c]},
    )

    trunc = truncation_report(cfg.params, grid, cfg.quad)
    rep, columns, _ = _feasibility(cfg.params)
    trunc_items = {
        "feasible": int(rep.feasible),
        "tilted_std": trunc.tilted_std,
        "coverage_tail": trunc.coverage_tail,
        "gh_cap_active": int(trunc.gh_cap_active),
    }
    _write_csv(out / "feasibility.csv", _header_lines(cfg, grid, trunc_items), columns)

    # one row per (stages_to_go, c, node) of the full grid, in C order, one
    # block per (stages_to_go, c): each folded row's text is joined once and
    # mirrored onto the grid, as GridSpec.unfold mirrors, so every written
    # table is even
    delta = _cells(grid.nodes())

    def blocks(*tables):
        for j in range(T + 1):
            for c in (0, 1):
                cols = [_cells(t[j, c]) for t in tables]
                text = cols[0] if len(cols) == 1 else list(map(",".join, zip(*cols)))
                yield [str(j), str(c), delta, text[:0:-1] + text]

    index = ["stages_to_go", "c", "delta"]
    policy = blocks(pol.u_star, pol.q_margin)
    _write_csv(out / "policy.csv", header, [*index, "u", "q_margin"], policy)
    if plot_data:
        _write_csv(out / "values.csv", header, [*index, "w"], blocks(table.w))
    print(f"solved: delta_max={grid.delta_max} thresholds -> {out / 'thresholds.csv'}")
    return 0


def load_threshold_csv(path: str | Path) -> ThresholdSchedule:
    """Read a thresholds.csv produced by cmd_solve back into a schedule.

    The largest stages_to_go in the file sets the horizon T; every (j, c)
    pair with j = 0..T must appear exactly once.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            lines = [line for line in fh if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read threshold file {path}: {exc}") from exc
    reader = csv.reader(lines)
    header = next(reader, [])
    try:
        cols = [header.index(name) for name in ("stages_to_go", "c", "threshold")]
    except ValueError as exc:
        raise ConfigError(f"{path}: missing threshold columns") from exc
    rows = []
    for row in filter(None, reader):
        try:
            j, c, v = int(row[cols[0]]), int(row[cols[1]]), float(row[cols[2]])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}: unreadable threshold row {row!r}") from exc
        if j < 0 or c not in (0, 1) or not v >= 0:
            raise ConfigError(
                f"{path}: row {row!r} needs stages_to_go >= 0, c in {{0, 1}} and threshold >= 0"
            )
        rows.append((j, c, v))
    if not rows:
        raise ConfigError(f"{path}: no threshold rows")
    rows.sort()
    T = rows[-1][0]
    if [(j, c) for j, c, _ in rows] != [(j, c) for j in range(T + 1) for c in (0, 1)]:
        raise ConfigError(
            f"{path}: needs each (stages_to_go, c) pair for stages_to_go 0..{T} exactly once"
        )
    return ThresholdSchedule(threshold=np.array([v for _, _, v in rows]).reshape(T + 1, 2))


def _policy_from_source(cfg: Config, source: str, threshold_file: str | None):
    if source == "builtin:idle":
        return idle_policy(), None
    if source == "builtin:always":
        return always_transmit_policy(), None
    if source == "solved":
        grid, _, pol = _solve(cfg)
        return threshold_policy(extract_thresholds(pol, grid)), grid
    # "threshold-file", the one source left by the parser's choices
    if threshold_file is None:
        raise ConfigError("policy source 'threshold-file' needs --threshold-file")
    schedule = load_threshold_csv(threshold_file)
    if schedule.horizon < cfg.params.horizon:
        raise ConfigError(
            f"threshold file covers {schedule.horizon} stages, config needs {cfg.params.horizon}"
        )
    return threshold_policy(schedule), None


def cmd_simulate(
    cfg: Config, out: Path, source: str, threshold_file: str | None, delta0: float, c0: int | None
) -> int:
    this = sys.modules[__name__]  # sim's names, through __getattr__
    policy, grid = _policy_from_source(cfg, source, threshold_file)
    est = this.estimate_risk_objective(cfg.params, policy, cfg.n_rollouts, cfg.seed, delta0, c0)
    header = _header_lines(
        cfg, grid, {"policy_source": source, "delta0": delta0, "c0": "stationary" if c0 is None else c0}
    )
    metrics = {
        "policy_source": source,
        "n": est.n,
        "log_objective": est.log_estimate,
        "se_log": est.se_log,
        "mean_cost": est.mean_cost,
        "var_cost": est.var_cost,
        "tail_share": est.tail_share,
        "tail_ok": int(est.tail_ok),
    }
    _write_csv(out / "metrics.csv", header, {k: [v] for k, v in metrics.items()})
    trace = this.rollout(cfg.params, policy, cfg.seed, delta0, c0)
    _write_csv(
        out / "trace.csv",
        header,
        {
            "t": trace.t,
            "x": trace.x,
            "x_hat": trace.x_hat,
            "delta": trace.delta,
            "c": trace.c,
            "u": trace.u,
            "cost": trace.stage_cost,
        },
    )
    print(
        f"simulate[{source}]: log_objective={est.log_estimate:.6g} se={est.se_log:.3g} "
        f"mean={est.mean_cost:.6g} var={est.var_cost:.6g} tail_ok={est.tail_ok}"
    )
    return 0


def cmd_oracle(
    cfg: Config, out: Path, n_delta: int, noise_points: int, delta_q: float | None
) -> int:
    this = sys.modules[__name__]  # oracle's names, through __getattr__
    params = cfg.params
    try:
        # from n_delta and T alone, so a bad or oversized n_delta builds no chain
        this._check_budget(n_delta, params.horizon)
        chain = this.quantize(params, n_delta, noise_points, delta_q)
        fine = this.quantize(params, 2 * n_delta - 1, 5, delta_q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except this.EnumerationBudgetError as exc:  # exit 3, here as only oracle knows the class
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # an infeasible model exits 2 here: the chain's finite noise atoms keep
    # every enumerated value finite, so certify's checks cannot see it
    _, table, _ = _solve(cfg)
    w0 = table.w[params.horizon, :, 0]  # log V_T(0, c) for c = 0, 1
    result = this.brute_force_optimal(chain)
    checks = this.certify(chain, result, fine, w0)
    header = _header_lines(
        cfg,
        None,
        {
            "n_delta": n_delta,
            "noise_points": noise_points,
            "delta_q": chain.delta_states[-1],
            "noise_values": " ".join(_cells(chain.noise_values)),
            "noise_probs": " ".join(_cells(chain.noise_probs)),
            "noise_scheme": chain.noise_scheme,
            "n_enumerated": result.n_enumerated,
        },
    )
    names, passed, details = zip(*checks)
    _write_csv(
        out / "oracle_report.csv",
        header,
        {"check": names, "pass": np.array(passed, dtype=int), "detail": details},
    )
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return 0


def cmd_sweep(cfg: Config, out: Path, axis: str, values: list[float]) -> int:
    if not values:
        raise ConfigError("empty sweep value list")
    field = _KEYS[axis][2].rpartition(".")[2]
    try:
        points = [(v, dataclasses.replace(cfg.params, **{field: v})) for v in values]
    except ValueError as exc:
        raise ConfigError(f"sweep value: {exc}") from exc
    T = cfg.params.horizon
    # threshold, w_at_zero and rn_value_at_zero per (value, stages_to_go, c)
    table = np.full((3, len(values), T + 1, 2), math.nan)
    n_infeasible = 0
    for k, (v, params) in enumerate(points):
        sub = dataclasses.replace(cfg, params=params)
        try:
            grid, w_table, pol = _solve(sub)
            rn_table, _ = risk_neutral_value_iterate(params, grid, sub.quad, space="folded")
            threshold = extract_thresholds(pol, grid).threshold
            table[:, k] = threshold, w_table.w[:, :, 0], rn_table.v[:, :, 0]
        except InfeasibleModelError as exc:
            _print_beta_trace(params)
            print(f"{axis} = {v}: {exc}", file=sys.stderr)
            n_infeasible += 1
    k, j, c = np.indices(table.shape[1:]).reshape(3, -1)
    _write_csv(
        out / "sweep.csv",
        _header_lines(cfg, None, {"axis": axis, "values": ",".join(str(v) for v in values)}),
        {
            "axis": [axis] * len(k),
            "value": np.asarray(values)[k],
            "stages_to_go": j,
            "c": c,
            "threshold": table[0].ravel(),
            "w_at_zero": table[1].ravel(),
            "rn_value_at_zero": table[2].ravel(),
        },
    )
    print(f"sweep over {axis}: {len(values)} points -> {out / 'sweep.csv'}")
    if n_infeasible:
        print(f"{n_infeasible} of {len(values)} points infeasible (nan rows)", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="risksched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p_solve = sub.add_parser("solve", help="value iteration, thresholds, feasibility artifacts")
    common(p_solve)
    p_solve.add_argument(
        "--plot-data",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also write the long-format values.csv table",
    )

    p_sim = sub.add_parser("simulate", help="Monte Carlo metrics for a policy")
    common(p_sim)
    p_sim.add_argument(
        "--policy-source",
        default="solved",
        choices=["solved", "threshold-file", "builtin:idle", "builtin:always"],
    )
    p_sim.add_argument("--threshold-file", default=None)
    p_sim.add_argument("--delta0", type=float, default=0.0)
    p_sim.add_argument(
        "--c0", default="stationary", help="initial channel state: 0, 1 or 'stationary'"
    )

    p_oracle = sub.add_parser("oracle", help="quantized-chain certification report")
    common(p_oracle)
    p_oracle.add_argument("--n-delta", type=int, default=9)
    p_oracle.add_argument("--noise-points", type=int, default=3, choices=[2, 3, 5])
    p_oracle.add_argument("--delta-q", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="thresholds and values along a parameter axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=["gamma", "lambda"])
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")

    p_check = sub.add_parser("check", help="feasibility (beta recursion) only")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    return parser


# a non-threshold solve (a transmit set that is not an up-set, which the
# paper's structural result rules out, so a numerical fault) is a config
# error, and so is a grid too large to allocate (numpy raises a MemoryError
# subclass, so codes are looked up by isinstance); Monte Carlo costs that
# overflow exit as an infeasible model does.  cmd_oracle gives the oracle's
# budget error its exit 3 itself, as this table cannot name it unloaded.
_EXIT_CODES = {
    ConfigError: 1,
    NonThresholdPolicyError: 1,
    MemoryError: 1,
    InfeasibleModelError: 2,
    FloatingPointError: 2,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "check":
            return cmd_check(cfg, Path(args.out) if args.out else None)
        out = Path(args.out)
        if args.command == "solve":
            return cmd_solve(cfg, out, plot_data=args.plot_data)
        if args.command == "simulate":
            if args.c0 == "stationary":
                c0 = None
            elif args.c0 in ("0", "1"):
                c0 = int(args.c0)
            else:
                raise ConfigError(f"--c0 must be 0, 1 or 'stationary', got {args.c0!r}")
            if not math.isfinite(args.delta0):
                raise ConfigError(f"--delta0 must be finite, got {args.delta0}")
            return cmd_simulate(
                cfg, out, args.policy_source, args.threshold_file, args.delta0, c0
            )
        if args.command == "oracle":
            return cmd_oracle(cfg, out, args.n_delta, args.noise_points, args.delta_q)
        # "sweep", the one command left by the required subparser
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from exc
        return cmd_sweep(cfg, out, args.axis, values)
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, InfeasibleModelError):
            _print_beta_trace(cfg.params)
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
