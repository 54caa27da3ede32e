import math
import tracemalloc

import numpy as np
import pytest

from manifold_ssl import experiments
from manifold_ssl.experiments import (FluidConfig, HarmonicConfig, SweepSpec,
                                      TaskParams, apply_axis, build_world,
                                      fluid_limit_experiment,
                                      grid_mean_abs_laplacian,
                                      harmonic_experiment, run_sweep,
                                      sweep_records_csv, sweep_summary_csv)
from manifold_ssl.manifold import AugmentationSpec
from manifold_ssl.network import NetworkParams, forward_workspace, init_network
from manifold_ssl.numerics import prng_new, rk4_step
from manifold_ssl.training import TrainConfig, evaluate


def test_evaluate_perfect_separator():
    xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ys = np.array([1.0, -1.0])
    strong = NetworkParams.from_blocks([[1.0, 0.0]], [0.0], [1000.0], 0.0)
    m = evaluate(strong, xs, ys)  # scores +1000 and -632
    assert m.test_acc == 1.0
    assert m.test_nll < 1e-20


def test_evaluate_zero_function_tie_rule():
    p = NetworkParams(np.zeros(5), 1, 2)
    xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ys = np.array([1.0, -1.0])
    m = evaluate(p, xs, ys)
    assert abs(m.test_nll - math.log(2.0)) < 1e-12
    assert m.test_acc == 0.5  # sign(0) := +1 hits one of two


def test_evaluate_random_params_near_chance():
    tp = TaskParams(n_test=2000)
    mm, task, ds = build_world(tp, seed=123)
    p = init_network(prng_new(123, 99), tp.ambient_dim, 32)
    m = evaluate(p, ds.x_test, ds.y_test)
    assert abs(m.test_acc - 0.5) < 0.06
    assert m.n_test == 2000


def test_evaluate_rejects_empty():
    p = init_network(prng_new(1, 0), 3, 2)
    with pytest.raises(ValueError):
        evaluate(p, np.zeros((0, 3)), np.zeros(0))


def test_evaluate_workspace_gives_identical_metrics():
    tp = TaskParams(n_unlabelled=50, n_test=200)
    _, _, ds = build_world(tp, seed=5)
    workspace = forward_workspace(200, 16)
    for seed in (1, 2):
        p = init_network(prng_new(5, seed), tp.ambient_dim, 16)
        for kind in ("logistic", "squared"):
            assert (repr(evaluate(p, ds.x_test, ds.y_test, kind, workspace))
                    == repr(evaluate(p, ds.x_test, ds.y_test, kind)))


def test_repeated_evaluate_with_workspace_allocates_no_hidden_layer():
    # the per-epoch test pass reuses one workspace per run, so it must never
    # hold an (n_test, hidden) temporary; without the workspace it does
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

    assert peak_bytes(forward_workspace(2000, 64)) < hidden_layer_bytes
    assert peak_bytes(None) >= hidden_layer_bytes


def test_build_world_deterministic():
    tp = TaskParams(n_unlabelled=50, n_test=20)
    _, _, a = build_world(tp, 7)
    _, _, b = build_world(tp, 7)
    np.testing.assert_array_equal(a.x_test, b.x_test)


def test_apply_axis():
    cfg = TrainConfig()
    assert apply_axis(cfg, "lambda", 3.0).lam == 3.0
    assert apply_axis(cfg, "epsilon", 0.7).augmentation.epsilon == 0.7
    assert apply_axis(cfg, "k", 4).augmentation.k == 4
    with pytest.raises(ValueError, match="whole number"):
        apply_axis(cfg, "k", 3.7)
    mt = apply_axis(cfg, "beta_mt", 0.95)
    assert mt.method == "mean_teacher" and mt.beta_mt == 0.95
    assert apply_axis(cfg, "eta", 0.5).eta == 0.5
    with pytest.raises(ValueError):
        apply_axis(cfg, "width", 3)


def _tiny_sweep(axis="lambda", values=(0.5, 2.0), seeds=(1, 2)):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=40, n_test=40, separation=4.0)
    cfg = TrainConfig(epochs=8, warmup_epochs=2, eta=0.005, hidden=6,
                      batch_labelled=6, batch_unlabelled=20,
                      augmentation=AugmentationSpec(epsilon=0.2, k=4))
    return SweepSpec(task=tp, train=cfg, axis=axis, values=list(values),
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


def test_run_sweep_deterministic_csv():
    a = run_sweep(_tiny_sweep())
    b = run_sweep(_tiny_sweep())
    assert sweep_records_csv(a) == sweep_records_csv(b)
    assert sweep_summary_csv(a) == sweep_summary_csv(b)


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep(_tiny_sweep())
    parallel = run_sweep(_tiny_sweep(), jobs=2)
    assert sweep_records_csv(serial) == sweep_records_csv(parallel)


def test_run_sweep_starts_no_more_workers_than_points(monkeypatch):
    sizes = []

    class SerialPool:  # records the pool size, maps in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "Pool", SerialPool)
    spec = _tiny_sweep()
    result = run_sweep(spec, jobs=16)
    assert sizes == [len(spec.values) * len(spec.seeds)]
    assert sweep_records_csv(result) == sweep_records_csv(run_sweep(spec))


def test_run_sweep_survives_single_failure(monkeypatch):
    run_single = experiments.run_single

    def failing(tp, config, run_id):  # every run at lambda = 2 raises
        if config.lam == 2.0:
            raise ValueError("bad point, on purpose")
        return run_single(tp, config, run_id)

    monkeypatch.setattr(experiments, "run_single", failing)
    result = run_sweep(_tiny_sweep(values=(0.5, 2.0)))
    failed = [r for r in result.runs if r.error is not None]
    ok = [r for r in result.runs if r.error is None]
    assert len(failed) == 2 and len(ok) == 2
    by_value = {row.axis_value: row for row in result.summary}
    assert by_value[2.0].n_seeds == 0
    assert math.isnan(by_value[2.0].mean_final_nll)
    assert by_value[0.5].n_seeds == 2


def test_sweep_spec_rejects_k_outside_latent_dim():
    assert _tiny_sweep(axis="k", values=(1, 4)).values == [1, 4]
    for values in ((2, 99), (0,), (5,)):
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            _tiny_sweep(axis="k", values=values)


def test_sweep_spec_rejects_values_that_share_a_run_id():
    # run ids hold {value:g}: both of these would be written as lambda1
    with pytest.raises(ValueError, match="distinct to 6 significant digits"):
        _tiny_sweep(values=(1.0000001, 1.0000002))
    assert _tiny_sweep(values=(1.00001, 1.00002)).values == [1.00001, 1.00002]


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
    cfg = HarmonicConfig(boundary_per_side=8, n_unlabelled=120, hidden=24,
                         epochs=40, warmup_epochs=5, grid=11, seed=3,
                         batch_unlabelled=60)
    params, report = harmonic_experiment(cfg)
    assert report.grid_f.shape == (121,)
    assert len(report.energy_trajectory) == 40
    assert report.rms_error < 1.0
    assert np.all(report.abs_err >= 0.0)
    text = experiments.harmonic_grid_csv(report)
    assert text.splitlines()[0] == "u,v,f,analytic,abs_err"
    assert len(text.splitlines()) == 122


def test_fluid_limit_distances_shrink():
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=30, n_test=0, separation=4.0)
    cfg = FluidConfig(task=tp, etas=(0.04, 0.02), horizon=1.0, lam=1.0,
                      augmentation=AugmentationSpec(epsilon=0.2, k=4), hidden=6,
                      seeds=(1, 2))
    result = fluid_limit_experiment(cfg)
    assert len(result.rows) == 4
    assert all(d >= 0 for _, _, d in result.rows)
    assert result.ratios[0] > 1.0
    text = experiments.fluid_csv(result)
    assert text.splitlines()[0] == "eta,seed,sup_distance"


def _fluid_cfg(**kw):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=30, n_test=0, separation=4.0)
    return FluidConfig(**{**dict(task=tp, augmentation=AugmentationSpec(k=4),
                                 hidden=6, seeds=(1,)), **kw})


def test_fluid_config_rejects_bad_steps():
    with pytest.raises(ValueError, match="etas must be"):
        _fluid_cfg(etas=(-0.1,), horizon=1.0)
    with pytest.raises(ValueError, match="shorter than the largest eta"):
        _fluid_cfg(etas=(0.5,), horizon=0.1)


def test_fluid_config_rejects_bad_settings():
    # each of these used to run: lambda < 0 and NaN as lambda = 0, and an
    # unknown loss until its first KeyError mid-run
    with pytest.raises(ValueError, match=r"^FluidConfig: lambda must be >= 0, got -1\.0$"):
        _fluid_cfg(lam=-1.0)
    with pytest.raises(ValueError, match="lambda must be >= 0, got nan"):
        _fluid_cfg(lam=float("nan"))
    with pytest.raises(ValueError, match=r"loss must be logistic\|squared, got 'hinge'"):
        _fluid_cfg(loss="hinge")


def test_fluid_reports_non_finite_state(monkeypatch):
    # a cubic field escapes in finite time; the run names the time of the
    # first non-finite RK4 state, found here by stepping from the same start
    monkeypatch.setattr(experiments.training, "frozen_objective_grads",
                        lambda params, *_: params.like(-params.theta ** 3))
    y = init_network(prng_new(1, experiments.STREAM_TRAIN), 8, 6).theta
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is reported
        while np.all(np.isfinite(y)):
            y, steps = rk4_step(lambda t: t ** 3, y, 0.5), steps + 1
        with pytest.raises(ValueError,
                           match=f"non-finite state at t={steps * 0.5:g}$"):
            fluid_limit_experiment(_fluid_cfg(etas=(0.5,), horizon=10.0))


def test_fluid_memory_does_not_grow_with_horizon():
    # RK4 and Euler advance in lockstep: a 10x longer horizon must not hold
    # its path; storing it would take 101 * |theta| floats (5.3 MB) here
    tp = TaskParams(n_labelled=10, n_unlabelled=20, n_test=0)

    def peak_bytes(horizon):
        cfg = FluidConfig(task=tp, etas=(0.01,), horizon=horizon, hidden=64,
                          seeds=(1,))
        tracemalloc.start()
        try:
            fluid_limit_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(1.0) - peak_bytes(0.1) < 0.5e6
