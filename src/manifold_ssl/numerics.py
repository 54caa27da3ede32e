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

from dataclasses import field, fields
from typing import Callable

import numpy as np

RngState = np.random.Generator


def prng_new(seed: int, stream: int = 0) -> RngState:
    """Create the deterministic generator for stream `stream` of `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def positive(v):
    return v > 0


def nonneg(v):
    return v >= 0


def unit_interval_left(v):
    return 0 <= v < 1


def setting(default, check=None, constraint="", help=""):
    """A dataclass field for one run setting, its rule beside its default:
    check(value) is true for a valid value, constraint says which in words.
    check_settings guards direct callers with it; config.SCHEMA reads it."""
    return field(default=default, metadata={"check": check,
                                            "constraint": constraint,
                                            "help": help})


def config_key(name: str) -> str:
    """The config key of a setting field; 'lambda' cannot name a field."""
    return "lambda" if name == "lam" else name


def check_settings(obj) -> None:
    """Raise ValueError on the first setting field of obj that breaks its rule."""
    for f in fields(obj):
        check, value = f.metadata.get("check"), getattr(obj, f.name)
        if check is not None and not check(value):
            raise ValueError(f"{type(obj).__name__}: {config_key(f.name)} must be "
                             f"{f.metadata['constraint']}, got {value!r}")


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


def rk4_step(field: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
             dt: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = field(y); y itself is not modified."""
    k1 = field(y)
    k2 = field(y + 0.5 * dt * k1)
    k3 = field(y + 0.5 * dt * k2)
    k4 = field(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
