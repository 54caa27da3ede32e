"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reports a name it cannot find only when it is installed, which
rebinds the package for the rest of the process. This test resolves every
traced name without installing anything, so a change that deletes or
renames a traced function fails here instead of silently dropping a layer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the tracer still lists although the package deleted them; ROADMAP
# item 1 drops them from the tracer and wraps their live replacements
DEAD = {
    "network.backward_batch",
    "network.grads_add", "network.grads_scale", "network.params_axpy",
    "network.params_copy", "network.zero_grads",
    "network.params_to_vector", "network.vector_to_params",
    "network.grads_to_vector",
    "objectives.balanced_regularizer", "objectives.consistency_batch_eval",
    "training._test_metrics", "experiments.evaluate",
    "numerics.rk4_trajectory",
}


def test_every_traced_name_resolves_except_the_known_dead_ones(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    absent = []
    for boundary in tracer.BOUNDARIES:
        for member in boundary.members:
            module_name, *path = member.split(".")
            owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
            for attr in path:
                owner = getattr(owner, attr, None)
            if not callable(owner):
                absent.append(member)
    assert sorted(absent) == sorted(DEAD)
    assert len(DEAD) == 14
