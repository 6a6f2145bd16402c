"""Reference values the benchmark checks the CLI's outputs against.

Two kinds of reference:

* exact: the j=1 transmit threshold is sqrt(lambda) for every model, and at
  T=2 the optimal log-value at delta=0 has the closed form of
  ``closed_form_t2``;
* pinned: for the T=20 model no closed form exists, so W_T(0, c)
  is pinned from ``trapezoid_reference``, a dense trapezoid-rule DP written
  here independently of the package (folded grid, linear domain, no
  interpolation, wide radius) at the finest of three steps h.

``python3 bench/refs.py`` (about a minute on 2 cores) recomputes every
pinned value, prints the refinement table with each row's difference to
the pinned numbers, and checks the reference DP against the T=2 closed
form.  numpy only.
"""

from __future__ import annotations

import math
import sys
import time

# Each model shares sigma2 = 1, lambda = 1, p01 = 0.3, p10 = 0.2.
BASE = {"sigma2": 1.0, "lambda": 1.0, "p01": 0.3, "p10": 0.2}

# W_T(0, c) for c = 0, 1: the h = 0.005 row of `python3 bench/refs.py`.
# Halving h from 0.02 moved W by at most 9.2e-7 and halving it again by at
# most 3.9e-7.  That ratio of 2.4 is not the 4 of a clean O(h^2) rule: the
# kink of min(q_idle, q_transmit) at each threshold gives an O(h^2) error
# whose constant depends on where the kink falls between nodes, so no
# Richardson step is taken and the finest row is pinned with an
# uncertainty of about 1e-6.
# Radius 40 (30 gives the same digits) leaves truncation below 1e-13.
PINNED = {
    "T20": {"model": {"a": 0.8, "gamma": 0.02, "T": 20}, "w0": (0.46696730396909913, 0.4345080270142887)},
}
PINNED_RADIUS = 40.0
PINNED_STEPS = (0.02, 0.01, 0.005)


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def channel(p01: float, p10: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Row-stochastic P[c][c_next]; state 1 delivers, 0 drops."""
    return ((1.0 - p01, p01), (p10, 1.0 - p10))


def threshold_j1(lam: float) -> float:
    """With one stage to go, transmit on a good channel iff delta^2 > lambda."""
    return math.sqrt(lam)


def closed_form_t2(sigma2, lam, gamma, p01, p10) -> tuple[float, float]:
    """Optimal W_2(0, c) = log(P[c][0] A + P[c][1] B), c = 0, 1.

    From delta = 0 idling is optimal and the next error is w ~ N(0, sigma2).
    With one stage left, W_1(x, 0) = gamma x^2 and W_1(x, 1) =
    min(gamma x^2, gamma lambda), so A = E[exp(gamma w^2)] =
    (1 - 2 sigma2 gamma)^(-1/2) and B = E[exp(W_1(w, 1))] =
    A (2 Phi(sqrt(lambda (1 - 2 sigma2 gamma) / sigma2)) - 1)
    + exp(gamma lambda) 2 Phi(-sqrt(lambda / sigma2)).
    """
    s = 1.0 - 2.0 * sigma2 * gamma
    A = s**-0.5
    B = A * (2.0 * _phi(math.sqrt(lam * s / sigma2)) - 1.0) + math.exp(gamma * lam) * 2.0 * _phi(
        -math.sqrt(lam / sigma2)
    )
    P = channel(p01, p10)
    return tuple(math.log(P[c][0] * A + P[c][1] * B) for c in (0, 1))


def risk_neutral_t2(sigma2, lam, p01, p10) -> tuple[float, float]:
    """Risk-neutral V_2(0, c) = P[c][0] sigma2 + P[c][1] E[min(w^2, lambda)]."""
    s = math.sqrt(sigma2)
    r = math.sqrt(lam) / s
    dens = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    # E[w^2; |w| < sqrt(lam)] + lam * P(|w| >= sqrt(lam))
    e_min = sigma2 * ((2.0 * _phi(r) - 1.0) - 2.0 * r * dens) + lam * 2.0 * _phi(-r)
    P = channel(p01, p10)
    return tuple(P[c][0] * sigma2 + P[c][1] * e_min for c in (0, 1))


def stationary_log_mix(w0: tuple[float, float], p01: float, p10: float) -> float:
    """log E[exp W_T(0, c0)] with c0 drawn from the stationary channel law."""
    pi1 = p01 / (p01 + p10)
    m = max(w0)
    return m + math.log((1.0 - pi1) * math.exp(w0[0] - m) + pi1 * math.exp(w0[1] - m))


def trapezoid_reference(a, sigma2, lam, gamma, T, p01, p10, radius, h, block=512):
    """W_T(0, c) by a dense trapezoid DP on the folded grid 0, h, ..., radius.

    Values are kept as exp(W - max W) so each stage is a matrix product of
    the folded Gaussian kernel (N(x; m) + N(-x; m), trapezoid weights) with
    the value table; the kernel is rebuilt in row blocks to bound memory.
    """
    import numpy as np

    n = int(round(radius / h))
    x = h * np.arange(n + 1)
    wts = np.full(n + 1, h)
    wts[-1] *= 0.5
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)

    def kernel(centers):
        k = np.exp(-np.square(x[None, :] - centers[:, None]) / (2.0 * sigma2))
        k[:, 1:] += np.exp(-np.square(x[None, 1:] + centers[:, None]) / (2.0 * sigma2))
        return k * (norm * wts)[None, :]

    P = np.array(channel(p01, p10))
    k_reset = kernel(np.zeros(1))[0]
    w = np.zeros((2, n + 1))
    for _ in range(T):
        shift = w.max()
        v = np.exp(w - shift)
        drift = np.empty((2, n + 1))
        for lo in range(0, n + 1, block):
            drift[:, lo : lo + block] = v @ kernel(a * x[lo : lo + block]).T
        q0 = gamma * x * x + np.log(P @ drift) + shift
        q1_good = gamma * lam + math.log(P[1] @ (v @ k_reset)) + shift
        w = np.stack([q0[0], np.minimum(q0[1], q1_good)])
    return float(w[0, 0]), float(w[1, 0])


def derive(model: dict, steps=PINNED_STEPS, radius=PINNED_RADIUS) -> list:
    """Refinement rows (h, (W_T(0, 0), W_T(0, 1)), seconds) for one model."""
    m = dict(BASE, **model)
    rows = []
    for h in steps:
        t0 = time.perf_counter()
        w = trapezoid_reference(
            m["a"], m["sigma2"], m["lambda"], m["gamma"], m["T"], m["p01"], m["p10"], radius, h
        )
        rows.append((h, w, time.perf_counter() - t0))
    return rows


def main() -> int:
    s2, lam, p01, p10 = (BASE[k] for k in ("sigma2", "lambda", "p01", "p10"))
    exact = closed_form_t2(s2, lam, 0.05, p01, p10)
    got = trapezoid_reference(0.9, s2, lam, 0.05, 2, p01, p10, radius=12.0, h=0.001)
    diff = max(abs(g - e) for g, e in zip(got, exact))
    print(f"T=2 closed form {exact} trapezoid h=0.001 {got} diff {diff:.1e}")
    for name, spec in PINNED.items():
        print(f"{name} {spec['model']}")
        for h, w, sec in derive(spec["model"]):
            diff = max(abs(g - p) for g, p in zip(w, spec["w0"]))
            print(f"  h={h:<6} w0={w[0]!r} w1={w[1]!r} pinned diff {diff:.1e} ({sec:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
