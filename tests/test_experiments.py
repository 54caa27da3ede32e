import importlib.util
import inspect
import itertools
import math
import multiprocessing
import pickle
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from manifold_ssl import cli, experiments, network, objectives, training
from manifold_ssl.config import parse_config
from manifold_ssl.experiments import (FluidConfig, HarmonicConfig, SweepSpec,
                                      TaskParams, build_world,
                                      fluid_limit_experiment,
                                      grid_mean_abs_laplacian,
                                      harmonic_experiment, run_single,
                                      run_sweep, value_text)
from manifold_ssl.manifold import AugmentationSpec, Augmenter
from manifold_ssl.network import (NetworkParams, forward_batch, init_network,
                                  value_and_grad)
from manifold_ssl.numerics import fill, prng_new, rk4_step, settings
from manifold_ssl.training import (CSV_HEADER, TrainConfig, csv_text, evaluate,
                                   record_rows)


def test_evaluate_perfect_separator():
    xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ys = np.array([1.0, -1.0])
    strong = NetworkParams.from_blocks([[1.0, 0.0]], [0.0], [1000.0], 0.0)
    nll, acc = evaluate(strong, xs, ys)  # scores +1000 and -632
    assert acc == 1.0
    assert nll < 1e-20


def test_evaluate_zero_function_tie_rule():
    p = NetworkParams(np.zeros(5), 1, 2)
    xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ys = np.array([1.0, -1.0])
    nll, acc = evaluate(p, xs, ys)
    assert abs(nll - math.log(2.0)) < 1e-12
    assert acc == 0.5  # sign(0) := +1 hits one of two


def test_evaluate_random_params_near_chance():
    tp = TaskParams(n_test=2000)
    mm, ds = build_world(tp, 123, "manifold")
    p = init_network(prng_new(123, 99), tp.ambient_dim, 32, ds.basis)
    nll, acc = evaluate(p, ds.x_test, ds.y_test)
    assert abs(acc - 0.5) < 0.06
    # the means run over all 2000 test points
    assert ds.x_test.shape[0] == 2000
    f = forward_batch(p, ds.x_test)
    np.testing.assert_allclose(nll, np.mean(np.logaddexp(0.0, -ds.y_test * f)),
                               rtol=1e-12, atol=0)
    assert acc == np.mean(np.where(f >= 0.0, 1.0, -1.0) == ds.y_test)


def test_evaluate_rejects_empty():
    p = init_network(prng_new(1, 0), 3, 2)
    with pytest.raises(ValueError):
        evaluate(p, np.zeros((0, 3)), np.zeros(0))


def test_evaluate_workspace_gives_identical_metrics():
    tp = TaskParams(n_unlabelled=50, n_test=200)
    _, ds = build_world(tp, 5, "manifold")
    workspace = {}
    for seed in (1, 2):
        p = init_network(prng_new(5, seed), tp.ambient_dim, 16, ds.basis)
        for kind in ("logistic", "squared"):
            assert (repr(evaluate(p, ds.x_test, ds.y_test, kind, workspace))
                    == repr(evaluate(p, ds.x_test, ds.y_test, kind)))


def test_repeated_evaluate_with_workspace_allocates_no_hidden_layer():
    # the per-epoch test pass reuses one workspace per run, so once the
    # workspace holds the buffers of its shape it must never hold an
    # (n_test, hidden) temporary, nor an (n_test, d_in + 1) rows buffer;
    # without the workspace it does
    rng = prng_new(6, 0)
    xs = rng.standard_normal((2000, 100))
    ys = np.where(rng.standard_normal(2000) >= 0.0, 1.0, -1.0)
    p = init_network(prng_new(6, 1), 100, 64)
    hidden_layer_bytes = 2000 * 64 * 8

    def peak_bytes(workspace):
        tracemalloc.start()
        try:
            for _ in range(3):
                evaluate(p, xs, ys, "logistic", workspace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    workspace = {}
    evaluate(p, xs, ys, "logistic", workspace)
    assert peak_bytes(workspace) < hidden_layer_bytes
    assert {key: [np.shape(b) for b in held] for key, held in workspace.items()} == {
        (2000, 100, 64): [(2000, 101), (2000, 64), (2000, 64)]}
    assert peak_bytes(None) >= hidden_layer_bytes


def test_forward_only_passes_hold_no_slope_buffer():
    # the test pass keeps the rows buffer and the pre-activation and hidden
    # buffers of its shape; elu's slope buffer joins them only with a
    # backward pass at that shape, and a later forward pass leaves it as it
    # was
    rng = prng_new(7, 0)
    xs = rng.standard_normal((40, 6))
    ys = np.where(rng.standard_normal(40) >= 0.0, 1.0, -1.0)
    p = init_network(prng_new(7, 1), 6, 5)
    workspace = {}
    evaluate(p, xs, ys, "logistic", workspace)
    assert [np.shape(b) for b in workspace[(40, 6, 5)]] == [(40, 7), (40, 5), (40, 5)]
    value_and_grad(p, xs[:10], lambda f: (float(f.sum()), np.ones(10)), workspace)
    assert len(workspace[(40, 6, 5)]) == 3
    value_and_grad(p, xs, lambda f: (float(f.sum()), np.ones(40)), workspace)
    held = workspace[(40, 6, 5)]
    assert [np.shape(b) for b in held] == [(40, 7)] + [(40, 5)] * 3
    slope = held[3].copy()
    evaluate(init_network(prng_new(7, 2), 6, 5), xs, ys, "logistic", workspace)
    assert len(held) == 4 and held[3].tobytes() == slope.tobytes()


def test_build_world_deterministic():
    tp = TaskParams(n_unlabelled=50, n_test=20)
    for mode in ("manifold", "ambient"):
        _, a = build_world(tp, 7, mode)
        _, b = build_world(tp, 7, mode)
        np.testing.assert_array_equal(a.x_test, b.x_test)


def test_manifold_world_holds_the_ambient_inputs_as_coordinates():
    # the two modes draw one world; the manifold one holds each input as its
    # gen_hidden coordinates in an orthonormal basis of the map's span, and
    # its map writes them
    tp = TaskParams(n_unlabelled=50, n_test=20)
    mm, ds = build_world(tp, 7, "manifold")
    dense_mm, dense = build_world(tp, 7, "ambient")
    assert dense.basis is None and dense.d_in == ds.d_in == tp.ambient_dim
    assert ds.basis.shape == (tp.ambient_dim, tp.gen_hidden)
    np.testing.assert_allclose(ds.basis.T @ ds.basis, np.eye(tp.gen_hidden),
                               rtol=0, atol=1e-14)
    for name in ("labelled", "unlabelled"):
        np.testing.assert_array_equal(getattr(ds, f"z_{name}"),
                                      getattr(dense, f"z_{name}"))
    for name in ("labelled", "unlabelled", "test"):
        coords = getattr(ds, f"x_{name}")
        assert coords.shape[1] == tp.gen_hidden
        np.testing.assert_allclose(coords @ ds.basis.T, getattr(dense, f"x_{name}"),
                                   rtol=0, atol=1e-13)
    np.testing.assert_allclose(ds.basis @ mm.w_out, dense_mm.w_out, rtol=0,
                               atol=1e-14)
    with pytest.raises(ValueError, match=r"^Dataset: ambient noise leaves the "
                       r"span its inputs are coordinates in$"):
        ds.perturbed("ambient")
    # a map as wide as its space spans all of it: no coordinates
    for gen_hidden in (tp.ambient_dim, tp.ambient_dim + 1):
        wide = build_world(replace(tp, gen_hidden=gen_hidden), 7, "manifold")[1]
        assert wide.basis is None and wide.x_test.shape[1] == tp.ambient_dim


def test_sweep_point():
    # a point is its run with the axis setting and the seed filled, and each
    # value takes the type of the setting the axis names
    cfg = TrainConfig(method="mean_teacher")
    for axis, values, typed in (("lambda", (3, 0.5), [3.0, 0.5]),
                                ("k", (4.0, 2), [4, 2]),
                                ("n_unlabelled", (50.0,), [50]),
                                ("method", ("supervised", "pi_model"),
                                 ["supervised", "pi_model"])):
        spec = SweepSpec(train=cfg, axis=axis, values=values)
        assert [(v, type(v)) for v in spec.values] == [(v, type(v)) for v in typed]
    assert fill(cfg, {"epsilon": 0.7, "seed": 1}).augmentation == AugmentationSpec(
        epsilon=0.7)
    assert fill(cfg, {"n_unlabelled": 50, "seed": 2}) == replace(
        cfg, task=TaskParams(n_unlabelled=50), seed=2)
    with pytest.raises(ValueError, match=r"^SweepSpec: k must be a whole number, "
                       r"got 3\.7$"):
        SweepSpec(train=cfg, axis="k", values=(3.7,))
    with pytest.raises(ValueError, match=r"^SweepSpec: eta must be a number, "
                       r"got 'fast'$"):
        SweepSpec(train=cfg, axis="eta", values=("fast",))
    with pytest.raises(ValueError, match=r"^TrainConfig: method must be "
                       r"supervised\|pi_model\|mean_teacher, got 1\.0$"):
        SweepSpec(train=cfg, axis="method", values=(1.0,))
    # beta_mt no longer switches a point to the mean teacher
    with pytest.raises(ValueError, match=r"^SweepSpec: axis beta_mt values 0\.9 "
                       r"and 0\.95 are one run$"):
        SweepSpec(axis="beta_mt", values=(0.9, 0.95))
    with pytest.raises(ValueError, match=r"^SweepSpec: axis must be a \[task\], "
                       r"\[train\] or \[augment\] key but seed, got 'width'$"):
        SweepSpec(axis="width")


def _tiny_sweep(axis="lambda", values=(0.5, 2.0), seeds=(1, 2),
                method="pi_model"):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=40, n_test=40, separation=4.0)
    cfg = TrainConfig(method=method, epochs=8, warmup_epochs=2, eta=0.005, hidden=6,
                      batch_labelled=6, batch_unlabelled=20,
                      augmentation=AugmentationSpec(epsilon=0.2, k=4), task=tp)
    return SweepSpec(train=cfg, axis=axis, values=list(values),
                     seeds=list(seeds))


def test_run_sweep_shapes_and_summary():
    result = run_sweep(_tiny_sweep())
    assert len(result.runs) == 4
    assert len(result.summary) == 2
    for row in result.summary:
        assert row.n_seeds == 2
        assert np.isfinite(row.mean_final_nll)
    ids = [r.run_id for r in result.runs]
    assert len(set(ids)) == 4


def _records_text(config, run_id, records):
    # a run's records.csv text, in which the pi model's nan beta_mt equals
    # itself
    return csv_text(CSV_HEADER, record_rows(config, run_id, records))


def _comparable(result):
    return ([(r.run_id, r.error, r.config,
              _records_text(r.config, r.run_id, r.records)) for r in result.runs],
            result.summary)


def test_run_sweep_deterministic_csv():
    a = run_sweep(_tiny_sweep())
    b = run_sweep(_tiny_sweep())
    assert _comparable(a) == _comparable(b)


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep(_tiny_sweep())
    parallel = run_sweep(_tiny_sweep(), jobs=2)
    assert _comparable(serial) == _comparable(parallel)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for multiprocessing.Pool: records each pool's size and the
    pickled size of each task it is handed, and maps in this process."""
    seen = SimpleNamespace(sizes=[], task_bytes=[])

    class SerialPool:
        def __init__(self, processes):
            seen.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            seen.task_bytes.extend(len(pickle.dumps(item)) for item in items)
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return seen


def test_run_sweep_starts_no_more_workers_than_points(serial_pool):
    spec = _tiny_sweep(values=(0.5, 1.0, 2.0))
    result = run_sweep(spec, jobs=16)
    # one pool, one task per seed
    assert serial_pool.sizes == [len(spec.seeds)]
    assert len(serial_pool.task_bytes) == len(spec.seeds)
    assert _comparable(result) == _comparable(run_sweep(spec))
    # a single seed is one task, which runs in this process
    single = _tiny_sweep(values=(0.5, 1.0, 2.0), seeds=(2,))
    result = run_sweep(single, jobs=16)
    assert serial_pool.sizes == [len(spec.seeds)]
    assert _comparable(result) == _comparable(run_sweep(single))


def test_run_sweep_sends_no_world_to_a_worker(serial_pool):
    # at the default task a seed's world and warm state pickle to megabytes;
    # a task holds only the settings its worker builds them from
    spec = SweepSpec(train=TrainConfig(epochs=2, warmup_epochs=1),
                     values=(0.5, 1.0), seeds=(1, 2))
    result = run_sweep(spec, jobs=2)
    assert all(r.error is None and len(r.records) == 2 for r in result.runs)
    assert serial_pool.task_bytes
    assert max(serial_pool.task_bytes) < 64 * 1024


def _fail_train(monkeypatch, fails):
    """Make training.train raise ValueError('bad point, on purpose') on the
    calls for which fails(config, state) holds."""
    train = training.train

    def failing(config, dataset, augmenter, rng, state=None, **kwargs):
        if fails(config, state):
            raise ValueError("bad point, on purpose")
        return train(config, dataset, augmenter, rng, state, **kwargs)

    monkeypatch.setattr(training, "train", failing)


def test_run_sweep_survives_single_failure(monkeypatch):
    _fail_train(monkeypatch, lambda config, state: config.lam == 2.0)
    result = run_sweep(_tiny_sweep(values=(0.5, 2.0)))
    failed = [r for r in result.runs if r.error is not None]
    ok = [r for r in result.runs if r.error is None]
    assert len(failed) == 2 and len(ok) == 2
    by_value = {row.axis_value: row for row in result.summary}
    assert by_value[2.0].n_seeds == 0
    assert math.isnan(by_value[2.0].mean_final_nll)
    assert by_value[0.5].n_seeds == 2


def test_run_sweep_warmup_failure_fails_every_point_of_its_seed(monkeypatch):
    # the shared warmup is the call that is handed no state
    _fail_train(monkeypatch,
                lambda config, state: config.seed == 1 and state is None)
    result = run_sweep(_tiny_sweep(values=(0.5, 1.0, 2.0)))
    errors = {r.run_id: r.error for r in result.runs}
    assert errors == {f"pi_model-lambda{v:g}-s{seed}":
                      "ValueError('bad point, on purpose')" if seed == 1 else None
                      for v in (0.5, 1.0, 2.0) for seed in (1, 2)}
    assert all(len(r.records) == 8 for r in result.runs if r.error is None)
    assert [row.n_seeds for row in result.summary] == [1, 1, 1]


# one axis of each kind: read only by the consistency term, by the warmup
# (eta, momentum), the method, a [task] key, which changes the world, and
# the augmentation mode, which changes how the world holds its inputs
AXIS_CASES = [("lambda", (0.0, 0.5, 2.0), "pi_model"),
              ("epsilon", (0.0, 0.2), "mean_teacher"),
              ("k", (1, 4), "pi_model"),
              ("beta_mt", (0.0, 0.9), "mean_teacher"),
              ("eta", (0.005, 0.01), "pi_model"),
              ("method", ("supervised", "pi_model", "mean_teacher"), "pi_model"),
              ("momentum", (0.5, 0.9), "pi_model"),
              ("n_unlabelled", (20, 40), "mean_teacher"),
              ("mode", ("manifold", "ambient"), "pi_model")]


@pytest.mark.parametrize("axis, values, base", AXIS_CASES)
def test_sweep_point_records_equal_its_standalone_run(axis, values, base):
    # a point continued from what it shares with its seed's other points
    # writes, byte for byte, the records of its own run from scratch
    spec = _tiny_sweep(axis=axis, values=values, method=base)
    expected = {}
    for value in spec.values:
        for seed in spec.seeds:
            cfg = fill(spec.train, {axis: value, "seed": seed})
            run_id = f"{cfg.method}-{axis}{value_text(value)}-s{seed}"
            expected[run_id] = (cfg, _records_text(
                cfg, run_id, run_single(cfg)))
    for jobs in (1, 2):
        result = run_sweep(spec, jobs=jobs)
        assert all(r.error is None for r in result.runs)
        assert {r.run_id: (r.config, _records_text(r.config, r.run_id, r.records))
                for r in result.runs} == expected


def _dense_records(config):
    """config's run over the full inputs of its ambient-mode world, with the
    map in full and the network drawn as run_single draws it, W1 in full."""
    mmap, ds = _dense_world(config.task, config.seed)
    return training.train(config, ds, Augmenter(mmap, config.augmentation),
                          prng_new(config.seed, experiments.STREAM_TRAIN)).records


def _assert_close_records(records, dense, rtol):
    assert [r.epoch for r in records] == [r.epoch for r in dense]
    assert [r.test_acc for r in records] == [r.test_acc for r in dense]
    np.testing.assert_allclose(
        [(r.train_loss, r.test_nll, r.consistency_value) for r in records],
        [(r.train_loss, r.test_nll, r.consistency_value) for r in dense],
        rtol=rtol, atol=0)


# a manifold-mode run, in the map's coordinates, against the same run over
# the full inputs: equal to rounding (the largest relative gap measured on
# these worlds is 4.1e-15)
DENSE_RTOL = 1e-11


def test_manifold_mode_run_matches_a_dense_run_over_the_full_inputs():
    # run_single trains in the world's coordinates, from W1 @ basis; the
    # run over the full inputs, from W1, writes the same records
    for method in ("pi_model", "mean_teacher"):
        cfg = fill(_tiny_sweep(method=method).train,
                   {"lambda": 1.0, "epochs": 30, "seed": 2})
        _assert_close_records(run_single(cfg), _dense_records(cfg), DENSE_RTOL)


def test_mean_teacher_sweep_points_match_dense_runs_over_the_full_inputs():
    # each point continues its seed's shared warmup in coordinates
    result = run_sweep(_tiny_sweep(method="mean_teacher"))
    for run in result.runs:
        assert run.error is None
        _assert_close_records(run.records, _dense_records(run.config), DENSE_RTOL)


def _spy_widths(monkeypatch):
    """The input columns of every forward_batch and value_and_grad pass."""
    widths = []

    def spied(fn):
        def spy(params, xs, *args):
            widths.append(xs.shape[1])
            return fn(params, xs, *args)
        return spy

    for name in ("forward_batch", "value_and_grad"):
        monkeypatch.setattr(network, name, spied(getattr(network, name)))
    return widths


def _tiny_harmonic():
    return HarmonicConfig(boundary_per_side=4, grid=5, train=replace(
        HarmonicConfig().train, hidden=6, epochs=3, warmup_epochs=1,
        batch_unlabelled=20, task=TaskParams(n_unlabelled=40)))


@pytest.mark.parametrize("study, mode, columns", [
    ("train", "manifold", "gen_hidden"),
    ("sweep", "manifold", "gen_hidden"),
    ("train", "ambient", "ambient_dim"),
    ("sweep", "ambient", "ambient_dim"),
    ("fluid", "ambient", "ambient_dim"),
    ("harmonic", "ambient", 2)])
def test_every_pass_multiplies_the_columns_of_its_worlds_inputs(
        monkeypatch, study, mode, columns):
    # a manifold-mode world holds its inputs as gen_hidden coordinates, so
    # every step, teacher pass and evaluation multiplies that many columns;
    # ambient noise leaves the map's span, so an ambient-mode world keeps
    # ambient_dim, and the unit square its 2 (the fluid study in manifold
    # mode: test_fluid_passes_multiply_gen_hidden_columns)
    widths = _spy_widths(monkeypatch)
    spec = _tiny_sweep(method="mean_teacher")
    train = fill(spec.train, {"mode": mode})
    if study == "train":
        run_single(train)
    elif study == "sweep":
        assert all(r.error is None for r in run_sweep(replace(spec, train=train)).runs)
    elif study == "fluid":
        cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.04)
        fluid_limit_experiment(replace(cfg, train=fill(cfg.train, {"mode": mode})))
    else:
        harmonic_experiment(_tiny_harmonic())
    expected = columns if isinstance(columns, int) else getattr(train.task, columns)
    assert widths and set(widths) == {expected}


def _count_calls(monkeypatch, *names):
    """counts[name] of the calls to each (module, name) handed in."""
    counts = dict.fromkeys((name for _, name in names), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def _count_worlds_and_steps(monkeypatch):
    return _count_calls(monkeypatch, (experiments, "build_world"),
                        (training, "sgd_momentum_step"))


def test_run_sweep_builds_each_world_and_trains_each_warmup_once(monkeypatch):
    counts = _count_worlds_and_steps(monkeypatch)
    spec = _tiny_sweep(values=(0.5, 1.0, 2.0), seeds=(1, 2))
    run_sweep(spec)
    n_seeds, n_values = len(spec.seeds), len(spec.values)
    steps_per_epoch = math.ceil(spec.train.task.n_unlabelled / spec.train.batch_unlabelled)
    warmup = spec.train.warmup_epochs * steps_per_epoch
    after = (spec.train.epochs - spec.train.warmup_epochs) * steps_per_epoch
    assert counts == {"build_world": n_seeds,
                      "sgd_momentum_step": n_seeds * warmup
                      + n_seeds * n_values * after}


# per seed, at 8 epochs of which 2 are warmup: the worlds built and the
# steps taken, 2 per epoch at 40 unlabelled points and 1 at 20
@pytest.mark.parametrize("axis, values, worlds, steps", [
    # every method trains the same warmup, so it is trained once
    ("method", ("supervised", "pi_model", "mean_teacher"), 1, 2 * 2 + 3 * 6 * 2),
    # the warmup reads momentum: one world, a whole run per point
    ("momentum", (0.5, 0.9), 1, 2 * 8 * 2),
    # a [task] key changes the world, and the world the warmup
    ("n_unlabelled", (20, 40), 2, 8 * 1 + 8 * 2),
    # so does the mode: coordinates or full inputs
    ("mode", ("manifold", "ambient"), 2, 2 * 8 * 2)])
def test_run_sweep_shares_what_its_points_agree_on(monkeypatch, axis, values,
                                                   worlds, steps):
    counts = _count_worlds_and_steps(monkeypatch)
    spec = _tiny_sweep(axis=axis, values=values, seeds=(1, 2))
    assert all(r.error is None for r in run_sweep(spec).runs)
    assert counts == {"build_world": 2 * worlds, "sgd_momentum_step": 2 * steps}


def test_benchmark_sweep_builds_one_world_and_trains_one_warmup_per_seed(
        monkeypatch, tmp_path):
    # the benchmark's mt_sweep workload at its self-test scale, its config
    # read from perfbench/workloads.py unedited: a lambda sweep that lost its
    # shared warmup would fail here before it showed as fewer steps per second
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module)
    monkeypatch.setitem(sys.modules, module.name, workloads)  # for its dataclasses
    module.loader.exec_module(workloads)
    wl = workloads.WORKLOADS["mt_sweep"]
    config = tmp_path / "mt_sweep.cfg"
    config.write_text(workloads.config_text(wl.config, wl.tiny))
    spec = parse_config(str(config), command=wl.command).sweep
    counts = _count_calls(monkeypatch, (experiments, "build_world"))
    warmups = []  # per call of train, whether it started the run
    train = training.train

    def counted(config, dataset, augmenter, rng, state=None, **kwargs):
        warmups.append(state is None)
        return train(config, dataset, augmenter, rng, state, **kwargs)

    monkeypatch.setattr(training, "train", counted)
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "o"),
                     wl.command]) == 0
    assert counts == {"build_world": len(spec.seeds)}
    assert sum(warmups) == len(spec.seeds)
    assert len(warmups) == len(spec.seeds) * (1 + len(spec.values))


def test_sweep_spec_rejects_k_outside_latent_dim():
    assert _tiny_sweep(axis="k", values=(1, 4)).values == [1, 4]
    for values in ((2, 99), (5,)):
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            _tiny_sweep(axis="k", values=values)
    with pytest.raises(ValueError, match=r"k must be -1 \(full\) or >= 1, got 0"):
        _tiny_sweep(axis="k", values=(0,))


def test_sweep_spec_rejects_k_values_that_are_one_run():
    # -1 resolves to the full latent dimension: with latent_dim 4, the values
    # 4 and -1 used to write the same run under two run ids and two rows
    for values, first, second in (((4, -1), 4, -1), ((-1, 2, 4), -1, 4)):
        with pytest.raises(ValueError, match=rf"^SweepSpec: axis k values {first} "
                           rf"and {second} are one run$"):
            _tiny_sweep(axis="k", values=values)
    assert _tiny_sweep(axis="k", values=(3, -1)).values == [3, -1]


def test_sweep_and_fluid_reject_k_above_their_runs_latent_dim():
    # a sweep's train and its world used to be checked apart: this built,
    # and every point then failed with "Augmenter: k must be in [1, 4]"
    train = TrainConfig(task=TaskParams(latent_dim=4),
                        augmentation=AugmentationSpec(k=4))
    message = r"^AugmentationSpec: k must be in \[1, 4\], got 10$"
    with pytest.raises(ValueError, match=message):
        SweepSpec(train=replace(train, augmentation=AugmentationSpec(k=10)))
    with pytest.raises(ValueError, match=message):
        SweepSpec(train=train, axis="k", values=(2, 10))
    with pytest.raises(ValueError, match=message):
        FluidConfig(train=replace(FluidConfig().train, task=TaskParams(latent_dim=4),
                                  augmentation=AugmentationSpec(k=10)))


def test_sweep_spec_rejects_values_that_share_a_run_id():
    # run ids hold {value:g}: both of these would be written as lambda1
    with pytest.raises(ValueError, match="distinct to 6 significant digits"):
        _tiny_sweep(values=(1.0000001, 1.0000002))
    assert _tiny_sweep(values=(1.00001, 1.00002)).values == [1.00001, 1.00002]


@pytest.mark.parametrize("axis, values", [("batch_labelled", (6, 12)),
                                           ("batch_unlabelled", (40, 80))])
def test_sweep_spec_rejects_batches_that_are_one_whole_set(axis, values):
    # a batch at least as large as its set, 6 labelled or 40 unlabelled
    # points here, is the whole set: such a sweep used to write one run's
    # records under two run ids
    with pytest.raises(ValueError, match=rf"^SweepSpec: axis {axis} values "
                       rf"{values[0]} and {values[1]} are one run$"):
        _tiny_sweep(axis=axis, values=values)
    smaller = (values[0] // 2, values[0])
    assert _tiny_sweep(axis=axis, values=smaller).values == list(smaller)


# per setting of a run, values besides _tiny_sweep's, among them some that a
# run resolves to one of the others: k = -1 is 4 there, and batches of 12
# and 80 are its labelled and unlabelled sets
OTHER_VALUES = {
    "method": ("supervised", "pi_model", "mean_teacher"), "epochs": (10,),
    "warmup_epochs": (1, 3), "lambda": (0.0, 2.0), "eta": (0.01,),
    "momentum": (0.5,), "batch_labelled": (4, 12), "batch_unlabelled": (40, 80),
    "epsilon": (0.0, 0.1), "k": (2, -1), "mode": ("manifold", "ambient"),
    "beta_mt": (0.5,), "draws_per_sample": (2,), "loss": ("squared",),
    "hidden": (5,), "seed": (2,), "latent_dim": (5,), "gen_hidden": (8,),
    "ambient_dim": (10,), "n_labelled": (4, 8), "n_unlabelled": (30,),
    "n_test": (20,), "separation": (3.0,)}


@pytest.mark.parametrize("method, mode", [("pi_model", "manifold"),
                                          ("mean_teacher", "manifold"),
                                          ("pi_model", "ambient")])
def test_reads_changes_exactly_when_the_records_change(method, mode):
    # two runs that differ in one setting read different settings over their
    # first e epochs exactly when those epochs' records differ; a setting
    # read in warmup but listed in CONSISTENCY_KEYS fails here. Manifold-
    # and ambient-mode worlds agree to rounding, hence the tolerance
    base = fill(_tiny_sweep(method=method).train, {"mode": mode})
    assert set(OTHER_VALUES) == {key for key, _, _ in settings(base)}
    records = {}

    def first(config, epochs):
        if repr(config) not in records:
            records[repr(config)] = np.array(
                [astuple(r) for r in run_single(config)], dtype=float)
        return records[repr(config)][:epochs]

    current = {key: value for key, value, _ in settings(base)}
    for epochs in (base.warmup_epochs, base.epochs):
        for key, others in OTHER_VALUES.items():
            values = dict.fromkeys((current[key], *others))
            for u, v in itertools.combinations(values, 2):
                a, b = fill(base, {key: u}), fill(base, {key: v})
                same = np.allclose(first(a, epochs), first(b, epochs),
                                   rtol=DENSE_RTOL, atol=0, equal_nan=True)
                assert (a.reads(epochs) == b.reads(epochs)) == same, (
                    key, u, v, epochs)


def test_grid_laplacian_of_linear_function_is_zero():
    lin = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(lin, lin, indexing="ij")
    assert grid_mean_abs_laplacian(uu, 0.05) < 1e-10
    quad = uu ** 2
    assert abs(grid_mean_abs_laplacian(quad, 0.05) - 2.0) < 1e-8


def test_harmonic_dirichlet_energy_of_analytic_solution():
    # f(u, v) = u has unit squared gradient everywhere
    from manifold_ssl.objectives import dirichlet_energy
    # linear branch: f = u
    p = NetworkParams.from_blocks([[1.0, 0.0]], [10.0], [1.0], -10.0)
    pts = prng_new(3, 0).uniform(0, 1, size=(500, 2))
    assert abs(dirichlet_energy(p, None, pts) - 1.0) < 1e-12


def test_harmonic_experiment_smoke():
    cfg = HarmonicConfig(boundary_per_side=8, grid=11,
                         train=replace(HarmonicConfig().train, hidden=24,
                                       epochs=40, warmup_epochs=5, seed=3,
                                       batch_unlabelled=60,
                                       task=TaskParams(n_unlabelled=120)))
    params, report = harmonic_experiment(cfg)
    assert report.grid_f.shape == (121,)
    assert len(report.energy_trajectory) == 40
    assert report.rms_error < 1.0
    assert np.all(report.abs_err >= 0.0)
    for column in (report.grid_u, report.grid_v, report.grid_analytic,
                   report.abs_err):
        assert column.shape == (121,)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_harmonic_rms_error_is_the_last_test_nll_on_the_grid(seed):
    # the run's test split is the grid and its loss is 0.5 (f - u)^2, so the
    # last epoch's test loss is half the grid's mean squared error
    cfg = HarmonicConfig(boundary_per_side=8, grid=11,
                         train=replace(HarmonicConfig().train, hidden=24,
                                       epochs=40, warmup_epochs=5, seed=seed,
                                       batch_unlabelled=60,
                                       task=TaskParams(n_unlabelled=120)))
    report = harmonic_experiment(cfg)[1]
    assert report.rms_error == math.sqrt(2.0 * report.records[-1].test_nll)


def test_harmonic_energy_overflow_names_its_epoch(monkeypatch):
    # the energy is taken outside train, after each epoch, under the same
    # guard: an overflow stops the study naming the epoch, so no inf reaches
    # energy.csv
    energies, real_energy = [], objectives.dirichlet_energy

    def overflow_in_epoch_3(*args):
        energies.append(real_energy(*args))
        if len(energies) == 3:  # a positive energy times 1e600: inf
            return np.float64(energies[-1]) * 1e300 * 1e300
        return energies[-1]

    monkeypatch.setattr(objectives, "dirichlet_energy", overflow_in_epoch_3)
    with pytest.raises(ValueError, match=r"^harmonic_experiment: overflow "
                       r"encountered in .+ in the Dirichlet energy of epoch 3$"):
        harmonic_experiment(replace(_tiny_harmonic(), train=replace(
            _tiny_harmonic().train, epochs=5)))
    assert len(energies) == 3


def test_harmonic_config_needs_the_squared_loss():
    # the boundary labels are 0 and 1, outside the logistic loss's -1 and +1;
    # and the square has no manifold map to perturb through
    for train, message in (
            (TrainConfig(), r"train\.loss must be squared, got 'logistic'"),
            (TrainConfig(loss="squared"),
             r"train\.augmentation\.mode must be ambient, got 'manifold'")):
        with pytest.raises(ValueError, match=f"^HarmonicConfig: {message}$"):
            HarmonicConfig(train=train)


def test_fluid_limit_distances_shrink():
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=30, n_test=2, separation=4.0)
    cfg = FluidConfig(etas=(0.04, 0.02), horizon=1.0,
                      train=TrainConfig(lam=1.0, hidden=6,
                                        augmentation=AugmentationSpec(epsilon=0.2, k=4),
                                        task=tp),
                      seeds=(1, 2))
    result = fluid_limit_experiment(cfg)
    assert len(result.rows) == 4
    assert all(d >= 0 for _, _, d in result.rows)
    assert result.ratios[0] > 1.0


def _fluid_cfg(**kw):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=30, n_test=2, separation=4.0)
    train = TrainConfig(lam=1.0, hidden=6, augmentation=AugmentationSpec(k=4),
                        task=tp)
    return FluidConfig(**{**dict(train=train, seeds=(1,)), **kw})


def test_fluid_config_rejects_bad_steps():
    with pytest.raises(ValueError, match="etas must be"):
        _fluid_cfg(etas=(-0.1,), horizon=1.0)
    with pytest.raises(ValueError, match="shorter than the largest eta"):
        _fluid_cfg(etas=(0.5,), horizon=0.1)


def test_fluid_config_needs_etas_on_the_finest_grid():
    # each eta is compared with the reference at dt = min(etas) on its own
    # grid points, so it must be a whole number of fine steps
    with pytest.raises(ValueError, match=r"^FluidConfig: etas \[0\.03, 0\.02\] "
                                         r"are not all whole multiples of the "
                                         r"smallest eta 0\.02$"):
        FluidConfig(etas=(0.03, 0.02), horizon=0.06)


def test_fluid_config_rejects_bad_settings():
    # each of these used to run: lambda < 0 and NaN as lambda = 0, and an
    # unknown loss until its first KeyError mid-run; the field's TrainConfig
    # holds them now
    cfg = _fluid_cfg()
    with pytest.raises(ValueError, match=r"^TrainConfig: lambda must be finite, >= 0, got -1\.0$"):
        _fluid_cfg(train=replace(cfg.train, lam=-1.0))
    with pytest.raises(ValueError, match="lambda must be finite, >= 0, got nan"):
        _fluid_cfg(train=replace(cfg.train, lam=float("nan")))
    with pytest.raises(ValueError, match=r"loss must be logistic\|squared, got 'hinge'"):
        _fluid_cfg(train=replace(cfg.train, loss="hinge"))


def _dense_world(tp, seed):
    """The seed's world with its inputs held in full: the ambient-mode world,
    whose map and inputs are the manifold-mode world's before coordinates."""
    return build_world(tp, seed, "ambient")


def _dense_fluid(cfg, seed):
    """The seed's network and its field's layout over the full rows, built
    as the study builds them in an ambient-mode world."""
    train = cfg.train
    mmap, ds = _dense_world(replace(train.task, n_test=2), seed)
    net = init_network(prng_new(seed, experiments.STREAM_TRAIN),
                       train.task.ambient_dim, train.hidden)
    augment, rng = Augmenter(mmap, train.augmentation), prng_new(
        seed, experiments.STREAM_FROZEN)
    drawn = [augment(x, rng) for x in ds.perturbed(train.augmentation.mode)]
    return net, objectives.step_layout(
        ds.x_labelled, ds.y_labelled, train.loss,
        list(zip((ds.x_labelled, ds.x_unlabelled), drawn)), train.lam)


def _fluid_start(cfg, seed):
    """The network the study starts a seed's paths from, over its world's
    coordinates in manifold mode."""
    train = cfg.train
    ds = build_world(replace(train.task, n_test=2), seed, train.augmentation.mode)[1]
    return init_network(prng_new(seed, experiments.STREAM_TRAIN),
                        train.task.ambient_dim, train.hidden, ds.basis)


def test_fluid_reports_non_finite_state(monkeypatch):
    # a cubic field escapes in finite time; the run names the time of the
    # first non-finite RK4 state, found here by stepping from the same start,
    # the network over the world's coordinates, at whose step the field
    # overflows
    monkeypatch.setattr(experiments.training, "frozen_objective_grads",
                        lambda params, *_: params.like(-params.theta ** 3))
    cfg = _fluid_cfg(etas=(0.5,), horizon=10.0)
    y = _fluid_start(cfg, 1).theta
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(y)):
            y, steps = rk4_step(lambda t: t ** 3, y, 0.5), steps + 1
    with pytest.raises(ValueError, match=rf"^fluid_limit_experiment: overflow "
                       rf"encountered in .* in the reference at t={steps * 0.5:g}$"):
        fluid_limit_experiment(cfg)


def test_fluid_reports_a_distance_that_overflows_between_finite_states(
        monkeypatch):
    # a linear field whose states grow without bound: RK4 and Euler grow at
    # different rates, and their difference overflows the norm while both
    # stay finite. Outside the study's errstate that distance reads inf; the
    # run names the first step whose distance overflows as such, found here
    # by stepping the same start by hand, and not as an overflow in a dot
    monkeypatch.setattr(experiments.training, "frozen_objective_grads",
                        lambda params, *_: params.like(-40.0 * params.theta))
    cfg = _fluid_cfg(etas=(0.5,), horizon=100.0)
    ode = euler = _fluid_start(cfg, 1).theta
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(np.linalg.norm(euler - ode)):
            ode = rk4_step(lambda t: 40.0 * t, ode, 0.5)
            euler, steps = euler + 0.5 * 40.0 * euler, steps + 1
    assert np.all(np.isfinite(ode)) and np.all(np.isfinite(euler))
    with pytest.raises(ValueError, match=rf"^fluid_limit_experiment: non-finite "
                       rf"distance in the eta=0\.5 path at t={steps * 0.5:g}$"):
        fluid_limit_experiment(cfg)


@pytest.mark.parametrize("mode", ["manifold", "ambient"])
def test_fluid_distances_match_a_dense_flow_over_the_rows(mode):
    # in manifold mode the study steps the network over its world's
    # coordinates; the same RK4 reference and Euler paths over the full
    # rows, from the full network, give its distances: the part of W1 off
    # the map's span never moves. Ambient draws leave that span, so the
    # ambient-mode study runs this dense flow itself, bit for bit
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.4, seeds=(1, 2))
    cfg = replace(cfg, train=fill(cfg.train, {"mode": mode}))
    fine, dense = min(cfg.etas), []
    for seed in cfg.seeds:
        net, layout = _dense_fluid(cfg, seed)

        def neg_grad(theta):
            return -network.value_and_grad(net.like(theta), *layout)[1].theta

        ode, thetas = net.theta, dict.fromkeys(cfg.etas, net.theta)
        sups = dict.fromkeys(cfg.etas, 0.0)
        for step in range(1, round(cfg.horizon / fine) + 1):
            ode = rk4_step(neg_grad, ode, fine)
            for eta in cfg.etas:
                if step % round(eta / fine) == 0:
                    thetas[eta] = thetas[eta] + eta * neg_grad(thetas[eta])
                    sups[eta] = max(sups[eta], np.linalg.norm(thetas[eta] - ode))
        dense += [(eta, seed, sups[eta]) for eta in cfg.etas]
    rows = fluid_limit_experiment(cfg).rows
    assert [(e, s) for e, s, _ in rows] == [(e, s) for e, s, _ in dense]
    np.testing.assert_allclose([d for _, _, d in rows], [d for _, _, d in dense],
                               rtol=1e-10, atol=0)
    if mode == "ambient":
        assert rows == [(float(e), s, float(d)) for e, s, d in dense]


def test_fluid_evaluates_the_field_once_per_reference_stage_and_euler_step(
        monkeypatch):
    # one RK4 reference at dt = 0.02: 4 evaluations on each of its 20 steps,
    # plus 10 Euler steps at eta = 0.04 and 20 at eta = 0.02; a reference per
    # eta would add 4 * 10 more
    calls = []
    grads = experiments.training.frozen_objective_grads

    def counted(*args):
        calls.append(None)
        return grads(*args)

    monkeypatch.setattr(experiments.training, "frozen_objective_grads", counted)
    fluid_limit_experiment(_fluid_cfg(etas=(0.04, 0.02), horizon=0.4))
    assert len(calls) == 4 * 20 + 10 + 20


def test_fluid_builds_one_layout_per_seed(monkeypatch):
    # the frozen rows depend only on the seed; every evaluation of the field
    # is a pass over the one layout its seed built, whose rows are the full
    # rows' coordinates in the world's basis, and the paths start from the
    # network over those coordinates, whose first layer is W1 @ basis
    layouts, passes = [], []
    build = objectives.step_layout
    grads = training.frozen_objective_grads

    def built(*args):
        layouts.append(build(*args))
        return layouts[-1]

    def counted(params, layout, workspace):
        passes.append((params.theta.copy(), layout))
        return grads(params, layout, workspace)

    monkeypatch.setattr(experiments.objectives, "step_layout", built)
    monkeypatch.setattr(experiments.training, "frozen_objective_grads", counted)
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.2, seeds=(1, 2))
    fluid_limit_experiment(cfg)
    assert len(layouts) == 2
    per_seed = 4 * 10 + 5 + 10
    assert len(passes) == 2 * per_seed
    for seed, layout, seen in zip(cfg.seeds, layouts,
                                  (passes[:per_seed], passes[per_seed:])):
        assert all(held is layout for _, held in seen)
        basis = build_world(cfg.train.task, seed, "manifold")[1].basis
        _, (rows, _) = _dense_fluid(cfg, seed)
        np.testing.assert_allclose(layout[0] @ basis.T, rows, rtol=0, atol=1e-12)
        net = init_network(prng_new(seed, experiments.STREAM_TRAIN), 8, 6)
        np.testing.assert_array_equal(seen[0][0], NetworkParams.from_blocks(
            net.W1 @ basis, net.b1, net.w2, net.b2).theta)


def test_every_field_evaluation_of_a_seed_gets_one_workspace(monkeypatch):
    # the field's passes over a seed's layout reuse the buffers of one dict:
    # every evaluation of one seed gets that dict, never None, which would
    # allocate the buffers afresh on every pass
    workspaces = []
    grad = network.value_and_grad

    def spy(*args, **kwargs):
        workspaces.append(inspect.signature(grad).bind(*args, **kwargs)
                          .arguments.get("workspace"))
        return grad(*args, **kwargs)

    monkeypatch.setattr(network, "value_and_grad", spy)
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.2, seeds=(1, 2))
    fluid_limit_experiment(cfg)
    per_seed = 4 * 10 + 5 + 10
    assert len(workspaces) == 2 * per_seed
    for seen in (workspaces[:per_seed], workspaces[per_seed:]):
        assert isinstance(seen[0], dict)
        assert all(held is seen[0] for held in seen)


def test_fluid_layout_holds_draws_per_sample_draws_of_each_point(monkeypatch):
    # the study used to draw each point once whatever draws_per_sample said;
    # its layout holds d draws of each point now, in train's order: the
    # labelled rounds, then the unlabelled, from the seed's frozen stream
    populations = []
    build = objectives.step_layout

    def built(*args):
        populations.append(inspect.signature(build).bind(*args)
                           .arguments["populations"])
        return build(*args)

    monkeypatch.setattr(experiments.objectives, "step_layout", built)
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.2)
    once = fluid_limit_experiment(cfg).rows
    twice = fluid_limit_experiment(replace(
        cfg, train=fill(cfg.train, {"draws_per_sample": 2}))).rows
    tp = cfg.train.task
    assert sum(len(drawn) for _, drawn in populations[1]) == 2 * (
        tp.n_labelled + tp.n_unlabelled)
    mmap, ds = build_world(replace(tp, n_test=2), 1, "manifold")
    augment = Augmenter(mmap, cfg.train.augmentation)
    rng = prng_new(1, experiments.STREAM_FROZEN)
    for (x, drawn), (held, z) in zip(populations[1], (
            (ds.x_labelled, ds.z_labelled), (ds.x_unlabelled, ds.z_unlabelled))):
        np.testing.assert_array_equal(x, held)
        np.testing.assert_array_equal(drawn, augment(np.concatenate([z, z]), rng))
    assert [(e, s) for e, s, _ in once] == [(e, s) for e, s, _ in twice]
    assert all(a != b for (_, _, a), (_, _, b) in zip(once, twice))


@pytest.mark.parametrize("world", [
    pytest.param(_fluid_cfg().train.task, id="golden-world"),
    pytest.param(replace(FluidConfig().train.task, n_test=2), id="workload-world")])
def test_fluid_passes_multiply_gen_hidden_columns(monkeypatch, world):
    # every row is a point of the map, whose linear readout leaves them in a
    # gen_hidden-dimensional subspace; each pass multiplies that many columns
    widths = []
    value_and_grad = network.value_and_grad

    def spy(params, xs, *args):
        widths.append(xs.shape)
        return value_and_grad(params, xs, *args)

    monkeypatch.setattr(network, "value_and_grad", spy)
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.04)
    fluid_limit_experiment(replace(cfg, train=replace(cfg.train, task=world)))
    n_rows = 2 * world.n_labelled + 2 * world.n_unlabelled
    assert widths == [(n_rows, world.gen_hidden)] * (4 * 2 + 1 + 2)


def test_fluid_builds_its_worlds_without_the_test_split(monkeypatch):
    # the study never reads the test split, so each seed's world draws the
    # fewest test points a world holds; the labelled and unlabelled sets,
    # drawn first, are those of the full world
    worlds = []
    build = experiments.build_world

    def built(tp, seed, mode):
        worlds.append((tp, seed, build(tp, seed, mode)))
        return worlds[-1][2]

    monkeypatch.setattr(experiments, "build_world", built)
    cfg = _fluid_cfg(etas=(0.04, 0.02), horizon=0.04, seeds=(1, 2))
    cfg = replace(cfg, train=fill(cfg.train, {"n_test": 40}))
    fluid_limit_experiment(cfg)
    assert [(tp.n_test, seed) for tp, seed, _ in worlds] == [(2, 1), (2, 2)]
    for tp, seed, (_, ds) in worlds:
        assert tp == replace(cfg.train.task, n_test=2)
        full = build(cfg.train.task, seed, "manifold")[1]
        assert np.array_equal(ds.x_labelled, full.x_labelled)
        assert np.array_equal(ds.x_unlabelled, full.x_unlabelled)


def test_fluid_reports_a_diverged_euler_path():
    # at the default world the eta = 0.8 path diverges while the reference
    # stays finite; its distance used to be dropped by max(sup, nan), and
    # then its first overflow, in the sup distance at t = 7.2, was printed
    # as a numpy warning (an error under this suite) before the study failed
    # at t = 8. It is named as the distance it is
    cfg = FluidConfig(etas=(1.6, 0.8), horizon=8.0, seeds=(1,))
    with pytest.raises(ValueError, match=r"^fluid_limit_experiment: non-finite "
                       r"distance in the eta=0\.8 path at t=7\.2$"):
        fluid_limit_experiment(cfg)


def test_fluid_memory_does_not_grow_with_horizon():
    # the reference and every Euler path advance in one loop: a 10x longer
    # horizon must not hold a path; storing the reference would take
    # 101 * |theta| floats (5.3 MB) here
    tp = TaskParams(n_labelled=10, n_unlabelled=20, n_test=2)

    def peak_bytes(horizon):
        cfg = FluidConfig(etas=(0.02, 0.01), horizon=horizon,
                          train=TrainConfig(lam=1.0, hidden=64, task=tp), seeds=(1,))
        tracemalloc.start()
        try:
            fluid_limit_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(1.0) - peak_bytes(0.1) < 0.5e6
