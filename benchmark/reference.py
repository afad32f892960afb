"""A fixed reference computation that gauges the host's current speed.

On a shared host the same solve can take 0.7 s in one minute and 1.3 s in
the next, while every counter of the solve stays the same. The benchmark
therefore times this kernel between the jobs of a run and reports solve
times scaled to a fixed reference speed (see README.md, "Normalised time").

The kernel is a small proximal-gradient loop with the same kinds of
operations as the solver's inner loop: Gram matrix-vector products on
L2-sized matrices, the penalty's prox (a stable argsort plus isotonic
regression for sorted-l1, a soft threshold for l1) and short vector
arithmetic. It uses numpy and scipy only, never the library, so a change
to the library does not change the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import isotonic_regression

SIZES = (150, 300, 500)   # reduced-problem sizes k, Gram matrices up to 2 MB
STEPS = 25                # proximal-gradient steps per size and call
# Seconds one call takes at the reference speed, per penalty kind: about the
# fastest this kernel ran on the 2-vCPU development host (see README.md).
NOMINAL_S = {"l1": 0.002, "slope": 0.006}


class Reference:
    """The kernel's fixed inputs, built once from a fixed seed."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown penalty kind {kind!r}")
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        self.problems = []
        for k in SIZES:
            B = rng.standard_normal((200, k)) / np.sqrt(200)
            G = B.T @ B
            c = B.T @ rng.standard_normal(200)
            self.problems.append((G, c, 1.0 - np.arange(k) / k, 1.0 / np.linalg.norm(G, 2)))

    def _prox(self, v, w, t):
        if self.kind == "l1":
            return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        av = np.abs(v)
        order = np.argsort(-av, kind="stable")
        u = np.maximum(isotonic_regression(av[order] - t * w, increasing=False).x, 0.0)
        out = np.zeros_like(v)
        out[order] = u
        return np.sign(v) * out

    def call(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = perf_counter()
        for G, c, w, inv_L in self.problems:
            z = np.zeros(c.size)
            for _ in range(STEPS):
                z = self._prox(z - (G @ z - c) * inv_L, w, 0.01 * inv_L)
        return perf_counter() - t0
