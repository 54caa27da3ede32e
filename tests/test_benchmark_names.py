"""What the benchmark (perfbench/) uses of the package, checked without
running it. Its tracer wraps package functions by name and reports a name it
cannot find only when it is installed, which rebinds the package for the
rest of the process; the first test resolves every traced name without
installing anything, so a change that deletes or renames a traced function
fails here instead of silently dropping a layer. The second parses every
command line and config the benchmark runs, as its operation builds them,
so a change to the flags or the settings' rules fails here instead of
failing every run of the benchmark. The third runs every workload at its
self-test scale and applies the workload's own check to what it wrote.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from manifold_ssl import cli
from manifold_ssl.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """The perfbench module name.py, run from its file without editing it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module

# names the tracer still lists although the package deleted them; ROADMAP
# item 1 drops them from the tracer and wraps their live replacements
DEAD = {
    "network.backward_batch",
    "network.grads_add", "network.grads_scale", "network.params_axpy",
    "network.params_copy", "network.zero_grads",
    "network.params_to_vector", "network.vector_to_params",
    "network.grads_to_vector",
    "objectives.balanced_regularizer", "objectives.consistency_batch_eval",
    "objectives.supervised_batch",
    "training._test_metrics", "experiments.evaluate",
    "numerics.rk4_trajectory",
}


def test_every_traced_name_resolves_except_the_known_dead_ones(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
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
    assert len(DEAD) == 15


def test_every_workload_config_parses_for_its_command(monkeypatch, tmp_path):
    # run.py imports its sibling modules by their bare names
    for name in ("tracer", "workloads"):
        monkeypatch.setitem(sys.modules, name, _load(monkeypatch, name))
    run, workloads = _load(monkeypatch, "run"), sys.modules["workloads"]
    jobs = []

    def spawn(argv, **kwargs):  # the child's job, instead of the child
        jobs.append(json.loads(argv[-1]))
        return SimpleNamespace(returncode=1, stderr="")

    monkeypatch.setattr(run.subprocess, "run", spawn)
    calls = [("gradcheck", None)]
    for wl in workloads.WORKLOADS.values():
        calls += [(wl.command, workloads.config_text(wl.config)),
                  (wl.command, workloads.config_text(wl.config, wl.tiny))]
        if wl.probe is not None:
            calls.append((wl.command, workloads.config_text(wl.probe)))
    for command, text in calls:
        with pytest.raises(run.BenchError):
            run.operation(tmp_path, command, text, check=None)
        args = cli.build_parser().parse_args(jobs[-1]["argv"])
        assert (args.command, args.jobs, args.config) == (
            command, 1, jobs[-1]["config"])
        assert args.out is not None
        if text is not None:
            parse_config(args.config, command=args.command)
    assert len(jobs) == len(calls)


def test_every_workload_passes_its_own_check_at_its_tiny_scale(monkeypatch,
                                                               tmp_path):
    workloads = _load(monkeypatch, "workloads")
    outcomes = {}
    for name, wl in workloads.WORKLOADS.items():
        config, out = tmp_path / f"{name}.cfg", tmp_path / name
        config.write_text(workloads.config_text(wl.config, wl.tiny))
        code = cli.main(["--config", str(config), "--out", str(out), "--jobs",
                         "1", wl.command])
        (run_dir,) = out.iterdir()
        outcomes[name] = wl.check(run_dir, code)
    assert {name: o.problem for name, o in outcomes.items()} == dict.fromkeys(
        workloads.WORKLOADS)
    # mt_sweep's mean teacher diverges on known points of the shipped lambda
    # axis; every other workload completes
    assert {name: o.failed for name, o in outcomes.items()
            if name != "mt_sweep"} == {"pi_train": 0, "fluid": 0, "harmonic": 0}
