"""Per-layer spans for the manifold_ssl package, recorded from outside it.

install() wraps the public function at each module boundary and rebinds the
wrapper everywhere the package refers to the original: in every manifold_ssl
module that imported the name, in module-level tables such as
objectives.LOSSES, and on the class for methods such as Augmenter.__call__.
Only the process that calls install() is affected; nothing under src/ is
edited. A member that no longer exists is reported as absent.

A layer's self time is the duration of its spans minus the time covered by
the spans opened inside them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "manifold_ssl"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    rows: int = 0
    flop: float = 0.0


class Tracer:
    """Aggregates spans per layer; clock is injectable for exact tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.covered_s = 0.0   # time inside outermost spans
        self._children = []    # per open span: time its child spans covered
        self._open = {}        # open spans per layer, so recursion counts once

    def wrap(self, layer: str, fn, cost=None):
        stats = self.layers.setdefault(layer, LayerStats())
        self._open.setdefault(layer, 0)
        clock, children, open_spans = self.clock, self._children, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if cost is not None:
                try:
                    rows, flop = cost(*args, **kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    rows, flop = 0, 0.0  # signature changed: count calls only
                stats.rows += rows
                stats.flop += flop
            children.append(0.0)
            open_spans[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans[layer] -= 1
                stats.calls += 1
                stats.self_s += duration - children.pop()
                if not open_spans[layer]:
                    stats.incl_s += duration
                if children:
                    children[-1] += duration
                else:
                    self.covered_s += duration
        return span

    def report(self) -> dict:
        return {"covered_s": self.covered_s,
                "layers": {name: [s.calls, s.self_s, s.incl_s, s.rows, s.flop]
                           for name, s in self.layers.items()}}


# --- where the spans go ------------------------------------------------------

def _forward_cost(params, xs, *_):
    n = xs.shape[0]
    hidden, d_in = params.W1.shape
    return n, 2.0 * n * hidden * (d_in + 1)


def _backward_cost(params, xs, *_):
    # pre-activation again, slope^T @ xs, elu(pre)^T @ upstream
    n = xs.shape[0]
    hidden, d_in = params.W1.shape
    return n, 2.0 * n * hidden * (2 * d_in + 1)


def _phi_cost(mmap, zs):
    n = zs.shape[0]
    hidden, latent = mmap.w_in.shape
    return n, 2.0 * n * hidden * (latent + mmap.w_out.shape[0])


def _augment_cost(_self, _zs, xs, *_):
    return xs.shape[0], 0.0


@dataclass(frozen=True)
class Boundary:
    layer: str
    members: tuple          # "module.name" or "module.Class.method"
    cost: object = None     # args -> (rows, flop) for batch kernels
    flops: bool = False     # whether cost gives a flop count


BOUNDARIES = (
    Boundary("network.forward_batch", ("network.forward_batch",),
             _forward_cost, flops=True),
    Boundary("network.backward_batch", ("network.backward_batch",),
             _backward_cost, flops=True),
    Boundary("manifold.elu", ("manifold.elu",)),
    Boundary("manifold.elu_prime", ("manifold.elu_prime",)),
    Boundary("network.param_ops",
             tuple(f"network.{n}" for n in ("grads_add", "grads_scale",
                                            "params_axpy", "params_copy",
                                            "zero_grads"))),
    Boundary("network.vector_ops",
             tuple(f"network.{n}" for n in ("params_to_vector",
                                            "vector_to_params",
                                            "grads_to_vector"))),
    Boundary("manifold.augmenter", ("manifold.Augmenter.__call__",),
             _augment_cost),
    Boundary("manifold.phi_forward_batch", ("manifold.phi_forward_batch",),
             _phi_cost, flops=True),
    Boundary("objectives.loss", ("objectives.logistic_loss",
                                 "objectives.squared_loss")),
    Boundary("objectives.supervised_batch", ("objectives.supervised_batch",)),
    Boundary("objectives.balanced_regularizer",
             ("objectives.balanced_regularizer",)),
    Boundary("objectives.consistency_batch_eval",
             ("objectives.consistency_batch_eval",)),
    Boundary("objectives.dirichlet_energy", ("objectives.dirichlet_energy",)),
    Boundary("training.sgd_momentum_step", ("training.sgd_momentum_step",)),
    Boundary("training.ema_update", ("training.ema_update",)),
    Boundary("training.evaluate", ("training._test_metrics",
                                   "experiments.evaluate")),
    Boundary("training.frozen_objective_grads",
             ("training.frozen_objective_grads",)),
    Boundary("numerics.rk4_trajectory", ("numerics.rk4_trajectory",)),
    Boundary("experiments.build_world", ("experiments.build_world",)),
    Boundary("experiments.run_single", ("experiments.run_single",)),
)


def _rebind(modules, original, wrapped):
    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if value is original:
                setattr(module, name, wrapped)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = wrapped


def install(tracer: Tracer, boundaries=BOUNDARIES, package=PACKAGE) -> list:
    """Wrap every boundary member; returns the members that do not exist."""
    importlib.import_module(package)
    modules = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    absent = []
    for boundary in boundaries:
        for member in boundary.members:
            module_name, *path = member.split(".")
            owner = sys.modules.get(f"{package}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                absent.append(member)
                continue
            wrapped = tracer.wrap(boundary.layer, original, boundary.cost)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
            _rebind(modules, original, wrapped)
    return absent
