"""Self-tests of the benchmark, kept out of the tier-1 suite: the file name
does not match pytest's test_*.py pattern, so only naming it collects it.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TickClock:
    """Advances one unit per reading, so span durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_plus_children_equals_inclusive_time():
    clock = TickClock()
    t = tracer.Tracer(clock=clock)
    leaf = t.wrap("leaf", lambda: clock())
    inner = t.wrap("inner", lambda: (clock(), leaf(), clock()))
    outer = t.wrap("outer", lambda: (inner(), clock(), inner()))
    outer()
    outer()
    s = t.layers
    assert (s["outer"].calls, s["inner"].calls, s["leaf"].calls) == (2, 4, 4)
    assert s["outer"].incl_s == s["outer"].self_s + s["inner"].incl_s
    assert s["inner"].incl_s == s["inner"].self_s + s["leaf"].incl_s
    assert s["leaf"].incl_s == s["leaf"].self_s > 0
    assert t.covered_s == s["outer"].incl_s


def test_recursion_counts_inclusive_time_once():
    clock = TickClock()
    t = tracer.Tracer(clock=clock)

    def countdown(n):
        clock()
        return countdown(n - 1) if n else 0

    countdown = t.wrap("countdown", countdown)
    countdown(3)
    s = t.layers["countdown"]
    assert s.calls == 4
    assert s.incl_s == s.self_s == t.covered_s


def test_install_reaches_tables_and_methods_and_reports_absent_names():
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from manifold_ssl import manifold, network, objectives
    t = tracer.Tracer()
    missing = tracer.Boundary("network.gone", ("network.no_such_kernel",))
    absent = tracer.install(t, tracer.BOUNDARIES + (missing,))
    assert absent == ["network.no_such_kernel"]
    assert hasattr(objectives.LOSSES["logistic"], "__wrapped__")
    assert hasattr(manifold.Augmenter.__call__, "__wrapped__")
    assert network.elu is manifold.elu
    params = network.init_network(np.random.default_rng(0), 3, 4)
    objectives.supervised_batch(params, np.ones((5, 3)), np.ones(5))
    layers = t.layers
    assert layers["objectives.loss"].calls == 1
    assert layers["network.forward_batch"].rows == 5
    assert layers["network.forward_batch"].flop == 2.0 * 5 * 4 * (3 + 1)
    assert layers["objectives.supervised_batch"].incl_s >= (
        layers["network.forward_batch"].incl_s
        + layers["network.backward_batch"].incl_s)


def test_tiny_run_reports_every_named_metric_with_its_unit(capsys):
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    units = [{m["name"]: m["unit"] for m in SPEC[kind]}
             for kind in ("end_to_end", "per_layer")]
    results = run.main(["--workload", "all", "--seconds", "0"], tiny=True)
    assert len(results) == 2 * len(run.WORKLOADS)
    for i, result in enumerate(results):
        assert result["correct"]
        assert result["attempted"] >= 1
        reported = {k: m["unit"] for k, m in result["metrics"].items()}
        assert reported == units[i % 2]
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == results[-1]
