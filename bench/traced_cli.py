"""Run one risksched CLI command with spans recorded at the layer boundaries.

Usage: python3 bench/traced_cli.py SPANS_JSON INVOCATION_ID CLI_ARG...

Times the imports of numpy, scipy.special and risksched.cli, then replaces
the public functions that ``risksched.cli`` and ``risksched.sim`` look up in
their module namespaces with timing wrappers, and wraps the decision
function that ``threshold_policy`` returns.  Nothing under ``src/`` changes.
Spans (name, start, end, parent index, invocation id) and counters are
kept in memory and written to SPANS_JSON when the command returns.  tracemalloc runs only
inside ``value_iterate`` and ``brute_force_optimal``, to read their peak
allocation without slowing the rest of the command.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# Functions cli.py calls through its own namespace, by layer.
CLI_NAMES = {
    "solver": (
        "check_feasibility",
        "auto_delta_max",
        "truncation_report",
        "value_iterate",
        "risk_neutral_value_iterate",
    ),
    "policy": ("extract_thresholds", "idle_policy", "always_transmit_policy"),
    "sim": ("estimate_risk_objective", "estimate_mean_variance", "rollout", "write_trace_csv"),
    "oracle": ("quantize", "brute_force_optimal", "chain_policy", "exact_policy_cost"),
}
# Model-layer step functions sim.py calls through its own namespace.
SIM_MODEL_NAMES = ("stage_cost", "step_error", "step_channel", "step_source", "update_estimate")
ALLOC_TRACED = ("solver.value_iterate", "oracle.brute_force_optimal")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.solves: list[dict] = []
        self.peak_alloc: dict[str, int] = {}
        self.unwrapped: list[str] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1])

    def wrap(self, name: str, fn, on_call=None):
        """Span around fn; on_call(args, kwargs, result) may count or re-wrap."""
        alloc = name in ALLOC_TRACED

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = [name, start, end, parent]
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            if on_call is not None:
                result = on_call(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_call=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.unwrapped.append(name)
            return
        setattr(module, attr, self.wrap(name, fn, on_call))

    # -- counters taken from arguments and results at the boundary ----------

    def _on_value_iterate(self, args, kwargs, result):
        params, grid, quad = args[:3]  # cli passes these positionally
        space = args[3] if len(args) > 3 else kwargs.get("space", "original")
        self.solves.append(
            {
                "T": params.horizon,
                "n_points": grid.n_points,
                "space": space,
                "rule": quad.rule,
                "quad_nodes": quad.n_nodes,
            }
        )
        return result

    def _on_brute_force(self, args, kwargs, result):
        self.add("oracle.policies_enumerated", result.n_enumerated)
        return result

    def _on_estimate(self, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n_rollouts"]
        self.add("sim.rollouts_requested", n)
        return result

    def _on_rollout(self, args, kwargs, result):
        self.add("sim.rollouts_requested", 1)
        return result

    def _on_threshold_policy(self, args, kwargs, rule):
        horizon = (args[0] if args else kwargs["schedule"]).horizon
        timed = self.wrap("policy.decide", rule)

        def decide(delta, c, t):
            n = getattr(delta, "size", 1)  # numpy array, or a float in rollout()
            self.add("policy.decisions", n)
            if t == horizon:  # first decision of a rollout
                self.add("sim.rollouts_simulated", n)
            return timed(delta, c, t)

        return decide

    def install(self, cli, sim) -> None:
        hooks = {
            "value_iterate": self._on_value_iterate,
            "brute_force_optimal": self._on_brute_force,
            "estimate_risk_objective": self._on_estimate,
            "rollout": self._on_rollout,
        }
        for layer, attrs in CLI_NAMES.items():
            for attr in attrs:
                self.patch(cli, attr, f"{layer}.{attr}", hooks.get(attr))
        self.patch(cli, "threshold_policy", "policy.threshold_policy", self._on_threshold_policy)
        for attr in SIM_MODEL_NAMES:
            self.patch(sim, attr, f"model.{attr}")

    def dump(self, path: str, invocation: str, exit_code) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "exit_code": exit_code,
                    "spans": [s + [invocation] for s in self.spans],
                    "counts": self.counts,
                    "solves": self.solves,
                    "peak_alloc": self.peak_alloc,
                    "unwrapped": self.unwrapped,
                },
                fh,
            )


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.special  # noqa: F401

    t2 = time.perf_counter()
    import risksched.cli as cli
    import risksched.sim as sim

    t3 = time.perf_counter()
    tracer.record("import.numpy", t0, t1)
    tracer.record("import.scipy", t1, t2)
    tracer.record("import.risksched", t2, t3)
    tracer.install(cli, sim)
    main_fn = tracer.wrap("cli.main", cli.main)
    code = None
    try:
        code = main_fn(argv)
    finally:
        tracer.dump(spans_path, invocation, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
