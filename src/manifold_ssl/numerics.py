"""Deterministic numerical substrate shared by every other module.

PRNG policy (fixed for the life of this repo): streams are numpy
``Generator(PCG64)`` instances keyed by a ``(seed, stream)`` pair through
``SeedSequence(seed, spawn_key=(stream,))``. PCG64 bit streams are stable
across platforms for a fixed numpy major version, distinct spawn keys give
well-separated, non-overlapping states, and Gaussian draws go through
``standard_normal`` (the ziggurat transform of the uniform stream). All
floating point work is float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

RngState = np.random.Generator


def prng_new(seed: int, stream: int = 0) -> RngState:
    """Create the deterministic generator for stream `stream` of `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def finite_diff_grad(f: Callable[[np.ndarray], float], theta: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    This is the oracle against which every analytic gradient in the package
    is checked; it must stay independent of the code paths it validates.
    """
    if h <= 0:
        raise ValueError(f"finite_diff_grad: h must be positive, got {h}")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        f_plus = float(f(theta + step))
        f_minus = float(f(theta - step))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(
                f"finite_diff_grad: non-finite function value at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rk4_trajectory(field: Callable[[np.ndarray], np.ndarray],
                   theta0: np.ndarray, dt: float, horizon: float):
    """Classical fixed-step RK4 integration of dtheta/dt = field(theta).

    Returns states with states[k] at t = k*dt for k = 0..round(T/dt). The
    horizon is rounded to the nearest whole number of steps.
    """
    if dt <= 0:
        raise ValueError(f"rk4_trajectory: dt must be positive, got {dt}")
    if horizon < dt:
        raise ValueError(
            f"rk4_trajectory: horizon {horizon} shorter than one step {dt}")
    theta0 = np.asarray(theta0, dtype=float)
    n_steps = int(round(horizon / dt))
    states = np.empty((n_steps + 1, theta0.size))
    states[0] = theta0
    y = theta0.copy()
    for k in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * dt * k1)
        k3 = field(y + 0.5 * dt * k2)
        k4 = field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise ValueError(
                f"rk4_trajectory: non-finite state at t={(k + 1) * dt:.6g}")
        states[k + 1] = y
    return states
