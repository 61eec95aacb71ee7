"""Figures of the quartic-floor analysis in notes/decisions.md.

Run from the repository root (about 25 s on one core):

    PYTHONPATH=src python3 notes/quartic_floor.py

Prints the floor coefficient C of the external-tangency Rosenbrock valley
(fval ~ C s^4 at geodesic distance s from the minimizer), the distance at
which the default gradient stop fires, the fval and gradient that
dist <= 1e-2 needs, and, for each outer loop from seed 0, the outer
iterations extrapolated from the measured 1/s^2 growth of the run.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from hadamard_dc import (RosenbrockParams, SolverConfig, make_rng,
                         random_start, rosenbrock_problem, run_dca)

TARGET = 1e-2           # acceptance bound on the final distance
EPS_BASE = SolverConfig().eps_base

prob = rosenbrock_problem(RosenbrockParams(tangency="external", a=1.0, b=2.0))
m, f, pstar = prob.manifold, prob.metadata["f"], prob.metadata["minimizer"]
tangential, normal = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])


def floor_value(s):
    """Smallest fval on the geodesic circle of radius s about the minimizer
    (the valley floor turns off the tangential direction by O(s))."""
    def along(angle):
        return f(m.exp(pstar, s * (math.cos(angle) * tangential
                                   + math.sin(angle) * normal)))
    return minimize_scalar(along, bounds=(-0.5, 0.5), method="bounded",
                           options={"xatol": 1e-12}).fun


for s in (0.1, 0.05, 0.02, TARGET):
    print(f"s = {s:<5g} floor fval {floor_value(s):.4e}  "
          f"fval/s^4 {floor_value(s) / s ** 4:.5f}")
c = floor_value(TARGET) / TARGET ** 4
print(f"C = {c:.5f}  (closed form 2 coth(1)^2 / 19 = "
      f"{2.0 / math.tanh(1.0) ** 2 / 19.0:.5f})")
print(f"gradient stop |grad f| = 4 C s^3 <= {EPS_BASE:g} fires at "
      f"s = {(EPS_BASE / (4.0 * c)) ** (1.0 / 3.0):.4f}")
print(f"dist <= {TARGET:g} needs fval <= {c * TARGET ** 4:.2e} and "
      f"|grad f| <= {4.0 * c * TARGET ** 3:.2e}")

p0 = random_start(prob, make_rng(0))
for algorithm in ("cr_dca", "b_dca"):
    trace = run_dca(prob, p0, SolverConfig(algorithm=algorithm))
    dists = np.array([m.dist(r.point, pstar) for r in trace.records])
    # along a quartic floor s_k^-2 grows linearly in k; fit the second half
    k = np.arange(len(dists))
    tail = slice(len(dists) // 2, None)
    slope, icpt = np.polyfit(k[tail], 1.0 / dists[tail] ** 2, 1)
    print(f"{algorithm}: k {trace.k}, exit {trace.exit_reason}, final dist "
          f"{dists[-1]:.4f}, fval {trace.fval:.3e}; dist <= {TARGET:g} "
          f"after ~{(TARGET ** -2 - icpt) / slope:.2e} outer iterations")
