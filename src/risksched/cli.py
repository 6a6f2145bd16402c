"""Command-line orchestration: solve, simulate, oracle, sweep, check.

Configuration is one flat key=value file (keys: a, sigma2, lambda, gamma,
T, p01, p10, delta_max, n_points, quad_rule, quad_nodes, seed, n_rollouts;
'#' starts a comment).  All outputs are CSV with the fully resolved config
in '#' header comments.  Exit codes: 0 ok, 1 usage/config error, 2
infeasible parameters, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .model import ModelParams
from .oracle import (
    ENUM_BUDGET,
    EnumerationBudgetError,
    brute_force_optimal,
    chain_policy,
    enumeration_size,
    exact_policy_cost,
    quantize,
)
from .policy import (
    ThresholdSchedule,
    always_transmit_policy,
    extract_thresholds,
    idle_policy,
    threshold_policy,
)
from .sim import estimate_risk_objective, rollout, write_trace_csv
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


class ConfigError(ValueError):
    pass


_MODEL_KEYS = ("a", "sigma2", "lambda", "gamma", "T", "p01", "p10")
_DEFAULTS = {
    "delta_max": "auto",
    "n_points": "401",
    "quad_rule": "gauss-hermite-centered",
    "quad_nodes": "64",
    "seed": "0",
    "n_rollouts": "100000",
}
_ALL_KEYS = _MODEL_KEYS + tuple(_DEFAULTS)


@dataclasses.dataclass
class Config:
    params: ModelParams
    delta_max: float | None  # None means auto
    n_points: int
    quad: QuadratureSpec
    seed: int
    n_rollouts: int


def parse_config(path: str | Path) -> Config:
    raw = dict(_DEFAULTS)
    seen = set()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        raw[key] = value
    missing = [k for k in _MODEL_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    def _float(key):
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} must be a number, got {raw[key]!r}") from exc

    def _int(key):
        try:
            return int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} must be an integer, got {raw[key]!r}") from exc

    try:
        params = ModelParams(
            a=_float("a"),
            sigma2=_float("sigma2"),
            lam=_float("lambda"),
            gamma=_float("gamma"),
            horizon=_int("T"),
            p01=_float("p01"),
            p10=_float("p10"),
        )
        delta_max = None if raw["delta_max"] == "auto" else _float("delta_max")
        quad = QuadratureSpec(rule=raw["quad_rule"], n_nodes=_int("quad_nodes"))
        n_points = _int("n_points")
        GridSpec(delta_max=1.0 if delta_max is None else delta_max, n_points=n_points)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    seed = _int("seed")
    if not 0 <= seed < 2**64:  # the Philox key is a uint64
        raise ConfigError(f"{path}: seed must be in [0, 2**64), got {seed}")
    n_rollouts = _int("n_rollouts")
    if n_rollouts < 1:
        raise ConfigError(f"{path}: n_rollouts must be >= 1, got {n_rollouts}")
    return Config(
        params=params,
        delta_max=delta_max,
        n_points=n_points,
        quad=quad,
        seed=seed,
        n_rollouts=n_rollouts,
    )


def _resolve_grid(cfg: Config) -> GridSpec:
    dmax = cfg.delta_max if cfg.delta_max is not None else auto_delta_max(cfg.params, cfg.quad)
    return GridSpec(delta_max=dmax, n_points=cfg.n_points)


def _header_lines(cfg: Config, grid: GridSpec | None, extra: dict | None = None) -> list[str]:
    p = cfg.params
    items = {
        "a": p.a,
        "sigma2": p.sigma2,
        "lambda": p.lam,
        "gamma": p.gamma,
        "T": p.horizon,
        "p01": p.p01,
        "p10": p.p10,
        "delta_max": (grid.delta_max if grid is not None else cfg.delta_max),
        "n_points": cfg.n_points,
        "quad_rule": cfg.quad.rule,
        "quad_nodes": cfg.quad.n_nodes,
        "seed": cfg.seed,
        "n_rollouts": cfg.n_rollouts,
    }
    if extra:
        items.update(extra)
    return [f"# {k} = {v}" for k, v in items.items()]


def _write_csv(path: Path, header_lines: list[str], columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(x) -> str:
    # repr of a numpy scalar is "np.float64(...)" under numpy 2, so go via float.
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def cmd_check(cfg: Config, out: Path | None) -> int:
    rep = check_feasibility(cfg.params)
    s2 = cfg.params.sigma2
    rows = []
    for t, b in enumerate(rep.beta):
        ok = bool(np.isfinite(b) and 2.0 * s2 * b < 1.0)
        rows.append((t, b, 2.0 * s2 * b if np.isfinite(b) else math.nan, int(ok)))
        print(f"t={t}: beta={b:.6g} 2*sigma2*beta={rows[-1][2]:.6g} ok={ok}")
    if rep.feasible:
        print("feasible: yes")
    else:
        print(f"feasible: no — infeasible at stage {rep.first_violation_stage}")
    if out is not None:
        _write_csv(
            out / "feasibility.csv",
            _header_lines(cfg, None, {"feasible": int(rep.feasible)}),
            ["t", "beta", "two_sigma2_beta", "ok"],
            [tuple(_fmt(v) for v in row) for row in rows],
        )
    return 0 if rep.feasible else 2


def _print_beta_trace(cfg: Config) -> None:
    rep = check_feasibility(cfg.params)
    for t, b in enumerate(rep.beta):
        print(f"  beta[{t}] = {b:.6g}", file=sys.stderr)
    print(f"infeasible at stage {rep.first_violation_stage}", file=sys.stderr)


def cmd_solve(cfg: Config, out: Path, plot_data: bool = True) -> int:
    rep = check_feasibility(cfg.params)
    if not rep.feasible:
        _print_beta_trace(cfg)
        return 2
    grid = _resolve_grid(cfg)
    header = _header_lines(cfg, grid)
    table, pol = value_iterate(cfg.params, grid, cfg.quad, space="original")
    schedule = extract_thresholds(pol, grid)
    T = cfg.params.horizon
    nodes = grid.nodes()

    rows = [
        (T - j, j, c, _fmt(float(schedule.threshold[j, c])))
        for j in range(T, -1, -1)
        for c in (0, 1)
    ]
    _write_csv(out / "thresholds.csv", header, ["wall_stage", "stages_to_go", "c", "threshold"], rows)

    trunc = truncation_report(cfg.params, grid, cfg.quad)
    feas_header = header + [
        f"# tilted_std = {trunc.tilted_std!r}",
        f"# coverage_tail = {trunc.coverage_tail!r}",
        f"# envelope_extrap_error = {trunc.envelope_extrap_error!r}",
        f"# truncation_ok = {int(trunc.ok)}",
        f"# gh_cap_active = {int(trunc.gh_cap_active)}",
    ]
    _write_csv(
        out / "feasibility.csv",
        feas_header,
        ["t", "beta"],
        [(t, _fmt(float(b))) for t, b in enumerate(rep.beta)],
    )

    _write_csv(
        out / "policy.csv",
        header,
        ["stages_to_go", "c", "delta", "u", "q_margin"],
        (
            (j, c, _fmt(float(nodes[i])), int(pol.u_star[j, c, i]), _fmt(float(pol.q_margin[j, c, i])))
            for j in range(T + 1)
            for c in (0, 1)
            for i in range(len(nodes))
        ),
    )
    if plot_data:
        _write_csv(
            out / "values.csv",
            header,
            ["stages_to_go", "c", "delta", "w"],
            (
                (j, c, _fmt(float(nodes[i])), _fmt(float(table.w[j, c, i])))
                for j in range(T + 1)
                for c in (0, 1)
                for i in range(len(nodes))
            ),
        )
    print(f"solved: delta_max={grid.delta_max} thresholds -> {out / 'thresholds.csv'}")
    return 0


def load_threshold_csv(path: str | Path) -> ThresholdSchedule:
    """Read a thresholds.csv produced by cmd_solve back into a schedule."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        try:
            j_col = header.index("stages_to_go")
            c_col = header.index("c")
            thr_col = header.index("threshold")
        except ValueError as exc:
            raise ConfigError(f"{path}: missing threshold columns") from exc
        for row in reader:
            if row:
                rows.append((int(row[j_col]), int(row[c_col]), float(row[thr_col])))
    if not rows:
        raise ConfigError(f"{path}: no threshold rows")
    T = max(r[0] for r in rows)
    thr = np.full((T + 1, 2), np.inf)
    for j, c, v in rows:
        thr[j, c] = v
    return ThresholdSchedule(threshold=thr)


def _policy_from_source(cfg: Config, source: str, threshold_file: str | None):
    if source == "builtin:idle":
        return idle_policy(), None
    if source == "builtin:always":
        return always_transmit_policy(), None
    if source == "solved":
        grid = _resolve_grid(cfg)
        _, pol = value_iterate(cfg.params, grid, cfg.quad, space="folded")
        return threshold_policy(extract_thresholds(pol, grid)), grid
    if source == "threshold-file":
        if threshold_file is None:
            raise ConfigError("policy source 'threshold-file' needs --threshold-file")
        schedule = load_threshold_csv(threshold_file)
        if schedule.horizon < cfg.params.horizon:
            raise ConfigError(
                f"threshold file covers {schedule.horizon} stages, config needs "
                f"{cfg.params.horizon}"
            )
        return threshold_policy(schedule), None
    raise ConfigError(f"unknown policy source {source!r}")


def cmd_simulate(
    cfg: Config,
    out: Path,
    source: str,
    threshold_file: str | None = None,
    delta0: float = 0.0,
    c0: int | None = None,
) -> int:
    if source == "solved" and not check_feasibility(cfg.params).feasible:
        _print_beta_trace(cfg)
        return 2
    policy, grid = _policy_from_source(cfg, source, threshold_file)
    est = estimate_risk_objective(cfg.params, policy, cfg.n_rollouts, cfg.seed, delta0, c0)
    header = _header_lines(
        cfg, grid, {"policy_source": source, "delta0": delta0, "c0": "stationary" if c0 is None else c0}
    )
    _write_csv(
        out / "metrics.csv",
        header,
        ["policy_source", "n", "log_objective", "se_log", "mean_cost", "var_cost", "tail_share", "tail_ok"],
        [
            (
                source,
                est.n,
                _fmt(est.log_estimate),
                _fmt(est.se_log),
                _fmt(est.mean_cost),
                _fmt(est.var_cost),
                _fmt(est.tail_share),
                int(est.tail_ok),
            )
        ],
    )
    trace = rollout(cfg.params, policy, cfg.seed, delta0, c0)
    write_trace_csv(trace, out / "trace.csv")
    print(
        f"simulate[{source}]: log_objective={est.log_estimate:.6g} se={est.se_log:.3g} "
        f"mean={est.mean_cost:.6g} var={est.var_cost:.6g} tail_ok={est.tail_ok}"
    )
    return 0


def _oracle_chains(params: ModelParams, n_delta: int, noise_points: int, delta_q, mode: str):
    """(label, chain, mode) of each enumeration cmd_oracle runs: the requested
    chain, then its 2*n_delta-1 refinement with 5 noise points."""
    return (
        ("requested", quantize(params, n_delta, noise_points, delta_q), mode),
        ("refinement", quantize(params, 2 * n_delta - 1, 5, delta_q), "threshold"),
    )


def _budget_overflow(chain, mode: str) -> str | None:
    """Why enumerating chain under mode overflows ENUM_BUDGET, or None if it fits."""
    mode, base, exponent = enumeration_size(chain, mode)
    if base**exponent <= ENUM_BUDGET:
        return None
    return f"needs {base}**{exponent} policies in {mode} mode (> {ENUM_BUDGET})"


def _largest_fitting_n_delta(
    params: ModelParams, noise_points: int, delta_q, mode: str
) -> int | None:
    """Largest odd n_delta whose oracle enumerations all fit ENUM_BUDGET, or None.

    Needs horizon >= 1, which holds whenever an enumeration overflows.
    """
    best = None
    n = 3
    # the refinement's 2n-1 states have at least n magnitudes, so n+1 cuts
    while (n + 1) ** (2 * params.horizon) <= ENUM_BUDGET:
        chains = _oracle_chains(params, n, noise_points, delta_q, mode)
        if not any(_budget_overflow(ch, m) for _, ch, m in chains):
            best = n
        n += 2
    return best


def cmd_oracle(
    cfg: Config,
    out: Path,
    n_delta: int = 9,
    noise_points: int = 3,
    delta_q: float | None = None,
    mode: str = "auto",
) -> int:
    params = cfg.params
    try:
        chains = _oracle_chains(params, n_delta, noise_points, delta_q, mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    (_, chain, _), (_, fine, _) = chains
    for label, ch, m in chains:
        overflow = _budget_overflow(ch, m)
        if overflow:
            best = _largest_fitting_n_delta(params, noise_points, delta_q, mode)
            hint = "no odd n_delta >= 3 fits" if best is None else f"the largest n_delta that fits is {best}"
            raise EnumerationBudgetError(
                f"{label} chain (n_delta={ch.n_states}) {overflow}; with --mode {mode}, {hint}"
            )
    result = brute_force_optimal(chain, mode=mode)
    checks: list[tuple[str, bool, str]] = []

    gap = float(np.max(np.abs(result.value - result.enum_value) / np.abs(result.value)))
    checks.append(("enumeration_matches_backward_induction", gap <= 1e-12, f"rel_gap={gap:.3e}"))

    pol_fn = chain_policy(result.policy, chain)
    eval_gap = 0.0
    for i, s in enumerate(chain.delta_states):
        for c in (0, 1):
            v = exact_policy_cost(chain, pol_fn, float(s), c)
            eval_gap = max(eval_gap, abs(v - result.value[i, c]) / result.value[i, c])
    checks.append(
        ("exact_policy_cost_matches_certified_optimum", eval_gap <= 1e-12, f"rel_gap={eval_gap:.3e}")
    )

    n_bad = int(result.policy[:, :, 0].sum())
    checks.append(("bad_channel_column_all_idle", n_bad == 0, f"transmit_count={n_bad}"))

    mirrored = result.policy[:, ::-1, :]
    checks.append(
        ("optimal_policy_even", bool(np.array_equal(result.policy, mirrored)), "u(delta)=u(-delta)")
    )

    # with evenness already checked, up-set in |delta| = non-decreasing
    # actions along the non-negative half of the ladder
    mid = chain.n_states // 2
    upset_ok = bool(
        np.all(np.diff(result.policy[1:, mid:, :].astype(int), axis=1) >= 0)
    )
    checks.append(("optimal_policy_threshold_structure", upset_ok, "up-set in |delta|"))

    try:
        rep = check_feasibility(params)
        if not rep.feasible:
            raise InfeasibleModelError(rep.first_violation_stage)
        grid = _resolve_grid(cfg)
        table, _ = value_iterate(params, grid, cfg.quad, space="folded")
        w0 = table.w[params.horizon, :, 0]  # log V_T(0, c) for c = 0, 1
        mid = chain.n_states // 2
        disc_coarse = float(np.max(np.abs(np.log(result.value[mid]) - w0)))
        fine_result = brute_force_optimal(fine, mode="threshold")
        disc_fine = float(
            np.max(np.abs(np.log(fine_result.value[fine.n_states // 2]) - w0))
        )
        checks.append(
            (
                "refinement_decreases_solver_discrepancy",
                disc_fine <= disc_coarse,
                f"coarse={disc_coarse:.3e} fine={disc_fine:.3e}",
            )
        )
    except InfeasibleModelError:
        checks.append(("refinement_decreases_solver_discrepancy", False, "infeasible params"))

    header = _header_lines(
        cfg,
        None,
        {
            "n_delta": n_delta,
            "noise_points": noise_points,
            "delta_q": chain.delta_states[-1],
            "noise_values": " ".join(repr(v) for v in chain.noise_values.tolist()),
            "noise_probs": " ".join(repr(v) for v in chain.noise_probs.tolist()),
            "noise_scheme": chain.noise_scheme,
            "enum_mode": result.enum_mode,
            "n_enumerated": result.n_enumerated,
        },
    )
    _write_csv(
        out / "oracle_report.csv",
        header,
        ["check", "pass", "detail"],
        [(name, int(ok), detail) for name, ok, detail in checks],
    )
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return 0


def cmd_sweep(cfg: Config, out: Path, axis: str, values: list[float]) -> int:
    if axis not in ("gamma", "lambda"):
        raise ConfigError(f"sweep axis must be 'gamma' or 'lambda', got {axis!r}")
    if not values:
        print("error: empty sweep value list", file=sys.stderr)
        return 1
    field = {"gamma": "gamma", "lambda": "lam"}[axis]
    try:
        points = [(v, dataclasses.replace(cfg.params, **{field: v})) for v in values]
    except ValueError as exc:
        raise ConfigError(f"sweep value: {exc}") from exc
    rows = []
    n_infeasible = 0
    for v, params in points:
        sub = dataclasses.replace(cfg, params=params)
        T = params.horizon
        if check_feasibility(params).feasible:
            grid = _resolve_grid(sub)
            table, pol = value_iterate(params, grid, sub.quad, space="folded")
            rn_table, _ = risk_neutral_value_iterate(params, grid, sub.quad, space="folded")
            threshold = extract_thresholds(pol, grid).threshold
            w, rn_v = table.w[:, :, 0], rn_table.v[:, :, 0]
        else:
            print(f"{axis} = {v}:", file=sys.stderr)
            _print_beta_trace(sub)
            n_infeasible += 1
            threshold = w = rn_v = np.full((T + 1, 2), math.nan)
        for j in range(T + 1):
            for c in (0, 1):
                rows.append(
                    (
                        axis,
                        _fmt(float(v)),
                        j,
                        c,
                        _fmt(float(threshold[j, c])),
                        _fmt(float(w[j, c])),
                        _fmt(float(rn_v[j, c])),
                    )
                )
    _write_csv(
        out / "sweep.csv",
        _header_lines(cfg, None, {"axis": axis, "values": ",".join(str(v) for v in values)}),
        ["axis", "value", "stages_to_go", "c", "threshold", "w_at_zero", "rn_value_at_zero"],
        rows,
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
    p_oracle.add_argument("--mode", default="auto", choices=["auto", "full", "threshold"])

    p_sweep = sub.add_parser("sweep", help="thresholds and values along a parameter axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=["gamma", "lambda"])
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")

    p_check = sub.add_parser("check", help="feasibility (beta recursion) only")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    return parser


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
            return cmd_oracle(cfg, out, args.n_delta, args.noise_points, args.delta_q, args.mode)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError as exc:
                raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from exc
            return cmd_sweep(cfg, out, args.axis, values)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
