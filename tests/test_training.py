from dataclasses import replace

import numpy as np
import pytest

from manifold_ssl import network
from manifold_ssl.manifold import (AugmentationSpec, Augmenter, Dataset,
                                   generate_dataset, make_manifold_map,
                                   make_task)
from manifold_ssl.network import NetworkParams, init_network
from manifold_ssl.numerics import finite_diff_grad, prng_new, rk4_step
from manifold_ssl.training import (TrainConfig, ema_update,
                                   frozen_objective_grads, records_to_csv,
                                   sgd_momentum_step, train, CSV_HEADER)


def _constant(value, n_hidden=1, d_in=1):
    return NetworkParams(np.full(n_hidden * (d_in + 2) + 1, float(value)),
                         n_hidden, d_in)


def test_sgd_plain_step():
    p = _constant(0.0)
    sgd_momentum_step(np.zeros_like(p.theta), p, _constant(2.0), 1.0, 0.0)
    assert p.b2 == -2.0
    assert p.W1[0, 0] == -2.0


def test_sgd_momentum_two_steps():
    # v1 = 1, v2 = 1.9 -> theta = -(1 + 1.9) = -2.9
    p = _constant(0.0)
    velocity = np.zeros_like(p.theta)
    sgd_momentum_step(velocity, p, _constant(1.0), 1.0, 0.9)
    sgd_momentum_step(velocity, p, _constant(1.0), 1.0, 0.9)
    assert abs(p.b2 - (-2.9)) < 1e-12
    np.testing.assert_allclose(velocity, 1.9, rtol=1e-15)


def test_sgd_velocity_decays_without_gradient():
    p = _constant(0.0)
    velocity = np.zeros_like(p.theta)
    sgd_momentum_step(velocity, p, _constant(1.0), 0.5, 0.5)
    positions = []
    for _ in range(60):
        sgd_momentum_step(velocity, p, _constant(0.0), 0.5, 0.5)
        positions.append(float(p.b2))
    # geometric tail: total displacement converges
    assert abs(positions[-1] - positions[-2]) < 1e-15
    assert abs(positions[-1] - (-0.5 * 1.0 / (1 - 0.5))) < 1e-9


def test_sgd_rejects_non_finite_with_block_name():
    p = init_network(prng_new(1, 0), 3, 2)
    before = p.theta.copy()
    velocity = np.ones_like(p.theta)
    bad = p.like(np.zeros_like(p.theta))
    bad.w2[0] = np.nan
    with pytest.raises(ValueError, match="parameter block w2"):
        sgd_momentum_step(velocity, p, bad, 0.1, 0.9)
    np.testing.assert_array_equal(p.theta, before)
    np.testing.assert_array_equal(velocity, 1.0)


def test_ema_single_update():
    teacher = _constant(0.0)
    ema_update(teacher, _constant(1.0), 0.9)
    assert abs(teacher.b2 - 0.1) < 1e-15


def test_ema_geometric_approach():
    teacher = _constant(0.0)
    cur = _constant(1.0)
    for _ in range(1000):
        ema_update(teacher, cur, 0.995)
    gap = abs(teacher.b2 - 1.0)
    assert gap <= 0.995 ** 1000 + 1e-12
    assert gap > 0.0


def _world(seed=1, sep=4.0, n_unl=60, n_test=40):
    mm = make_manifold_map(prng_new(seed, 0), 4, 6, 8)
    task = make_task(prng_new(seed, 1), 4, sep, 10, n_unl, n_test)
    ds = generate_dataset(prng_new(seed, 2), mm, task)
    return mm, ds


def _cfg(**kw):
    defaults = dict(epochs=12, warmup_epochs=4, lam=1.0, eta=0.01, momentum=0.9,
                    batch_labelled=10, batch_unlabelled=20,
                    augmentation=AugmentationSpec(epsilon=0.2, k=4),
                    hidden=6, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _supervised(cfg, ds, rng, **kw):
    params, _, records = train(replace(cfg, method="supervised"), ds, None,
                               rng, **kw)
    return params, records


def test_supervised_interpolates():
    mm, ds = _world()
    cfg = _cfg(method="supervised", epochs=400, eta=0.02)
    params, teacher, records = train(cfg, ds, None, prng_new(1, 3))
    assert teacher is None
    assert records[-1].train_loss < 0.05
    assert len(records) == 400


def test_supervised_deterministic():
    mm, ds = _world()
    cfg = _cfg(method="supervised")
    _, rec_a = _supervised(cfg, ds, prng_new(5, 3))
    _, rec_b = _supervised(cfg, ds, prng_new(5, 3))
    assert records_to_csv(rec_a) == records_to_csv(rec_b)


def test_lambda_zero_matches_supervised():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    p_sup, rec_sup = _supervised(_cfg(), ds, prng_new(2, 3))
    p_pi, _, rec_pi = train(_cfg(lam=0.0), ds, aug, prng_new(2, 3))
    np.testing.assert_array_equal(p_sup.theta, p_pi.theta)
    assert [r.train_loss for r in rec_sup] == [r.train_loss for r in rec_pi]


def test_epsilon_zero_matches_supervised():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=4))
    p_sup, _ = _supervised(_cfg(), ds, prng_new(3, 3))
    p_pi, _, _ = train(_cfg(augmentation=aug.spec), ds, aug, prng_new(3, 3))
    np.testing.assert_array_equal(p_sup.theta, p_pi.theta)


def test_warmup_bit_matches_supervised():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    snap_sup, snap_pi = {}, {}
    _supervised(_cfg(epochs=4), ds, prng_new(4, 3),
                epoch_hook=lambda ep, p: snap_sup.update({ep: p.theta.copy()}))
    train(_cfg(epochs=12, warmup_epochs=4), ds, aug, prng_new(4, 3),
          epoch_hook=lambda ep, p: snap_pi.update({ep: p.theta.copy()}))
    for ep in range(1, 5):
        np.testing.assert_array_equal(snap_sup[ep], snap_pi[ep])


def test_spy_augmenter_called_once_per_sample_per_step():
    mm, ds = _world(n_unl=40)
    calls = []
    inner = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))

    def spy(zs, xs, rng):
        calls.append(xs.shape[0])
        return inner(zs, xs, rng)

    cfg = _cfg(epochs=3, warmup_epochs=0, batch_unlabelled=20)
    train(cfg, ds, spy, prng_new(6, 3))
    # per step: one labelled batch call (10 rows) + one unlabelled (20 rows);
    # 2 steps per epoch, 3 epochs
    assert len(calls) == 12
    assert sorted(set(calls)) == [10, 20]
    assert sum(calls) == 3 * 2 * (10 + 20)


def test_mean_teacher_beta_zero_matches_pi():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    p_pi, _, rec_pi = train(_cfg(), ds, aug, prng_new(7, 3))
    p_mt, _, rec_mt = train(_cfg(method="mean_teacher", beta_mt=0.0), ds, aug,
                            prng_new(7, 3))
    np.testing.assert_array_equal(p_pi.theta, p_mt.theta)
    assert [r.test_nll for r in rec_pi] == [r.test_nll for r in rec_mt]


def test_mean_teacher_ema_tracks_params():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method="mean_teacher", beta_mt=0.9, epochs=60, warmup_epochs=5,
               lam=0.5, eta=0.005)
    params, teacher, _ = train(cfg, ds, aug, prng_new(8, 3))
    gap = (np.linalg.norm(teacher.theta - params.theta)
           / np.linalg.norm(params.theta))
    assert 0.0 < gap < 0.05


def test_records_csv_schema():
    mm, ds = _world()
    _, records = _supervised(_cfg(epochs=2, warmup_epochs=0), ds,
                             prng_new(9, 3))
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0].split(",") == [
        "run_id", "method", "seed", "epoch", "lambda", "epsilon", "k",
        "beta_mt", "train_loss", "test_nll", "test_acc", "consistency_value"]
    assert len(lines) == 3


def _neg_grad(p0, ds, frozen, cfg):
    return lambda theta: -frozen_objective_grads(
        p0.like(theta), ds, frozen, cfg.lam, cfg.loss).theta


def _rk4_states(field, theta0, dt, n_steps):
    """theta0 and the n_steps RK4 states after it, at t = k*dt."""
    states = [theta0]
    for _ in range(n_steps):
        states.append(rk4_step(field, states[-1], dt))
    return np.array(states)


def test_gradient_flow_matches_closed_form_on_quadratic():
    # network reduced to its output bias: squared loss gives a linear flow
    # db2/dt = -(b2 - mean y) with solution converging to the label mean
    mm, ds = _world()
    ds = Dataset(z_labelled=ds.z_labelled, x_labelled=ds.x_labelled,
                 y_labelled=np.where(ds.y_labelled > 0, 1.0, 0.0),
                 z_unlabelled=ds.z_unlabelled, x_unlabelled=ds.x_unlabelled,
                 z_test=ds.z_test, x_test=ds.x_test, y_test=ds.y_test)
    p0 = NetworkParams(np.zeros(6 * 8 + 6 + 6 + 1), 6, 8)
    p0.b2[...] = 2.0
    cfg = _cfg(lam=0.0, loss="squared")
    frozen = (ds.x_labelled.copy(), ds.x_unlabelled.copy())
    states = _rk4_states(_neg_grad(p0, ds, frozen, cfg), p0.theta, 0.05, 40)
    ybar = ds.y_labelled.mean()
    for k, theta in enumerate(states):
        b2 = p0.like(theta).b2
        expected = ybar + (2.0 - ybar) * np.exp(-0.05 * k)
        assert abs(b2 - expected) < 1e-6


def test_gradient_flow_constant_at_critical_point():
    mm, ds = _world()
    p0 = init_network(prng_new(10, 3), 8, 6)
    # labels equal to the network outputs: supervised gradient vanishes, and
    # unperturbed consistency inputs keep the regularizer force at zero
    y_fit = network.forward_batch(p0, ds.x_labelled)
    ds = Dataset(z_labelled=ds.z_labelled, x_labelled=ds.x_labelled,
                 y_labelled=y_fit, z_unlabelled=ds.z_unlabelled,
                 x_unlabelled=ds.x_unlabelled, z_test=ds.z_test,
                 x_test=ds.x_test, y_test=ds.y_test)
    cfg = _cfg(lam=3.0, loss="squared")
    frozen = (ds.x_labelled.copy(), ds.x_unlabelled.copy())
    states = _rk4_states(_neg_grad(p0, ds, frozen, cfg), p0.theta, 0.1, 10)
    assert np.max(np.abs(states - states[0])) == 0.0


def test_train_rejects_empty_labelled():
    mm, ds = _world()
    empty = Dataset(z_labelled=ds.z_labelled[:0], x_labelled=ds.x_labelled[:0],
                    y_labelled=ds.y_labelled[:0], z_unlabelled=ds.z_unlabelled,
                    x_unlabelled=ds.x_unlabelled, z_test=ds.z_test,
                    x_test=ds.x_test, y_test=ds.y_test)
    with pytest.raises(ValueError):
        _supervised(_cfg(), empty, prng_new(11, 3))


def test_train_rejects_empty_test_set():
    mm, ds = _world(n_test=0)
    with pytest.raises(ValueError, match="empty test set"):
        _supervised(_cfg(epochs=1, warmup_epochs=0), ds, prng_new(12, 3))


def test_frozen_objective_keeps_populations_apart():
    # equal population sizes: each population must still be compared with
    # its own augmented inputs
    mm, ds = _world(n_unl=10)
    assert ds.x_labelled.shape == ds.x_unlabelled.shape
    p = init_network(prng_new(13, 3), 8, 6)
    rng = prng_new(13, 4)
    aug_lab = ds.x_labelled + 0.3 * rng.standard_normal(ds.x_labelled.shape)
    aug_unl = ds.x_unlabelled + 0.3 * rng.standard_normal(ds.x_unlabelled.shape)
    t_lab = network.forward_batch(p, ds.x_labelled)     # frozen targets
    t_unl = network.forward_batch(p, ds.x_unlabelled)

    def oracle(theta):
        f = lambda xs: network.forward_batch(p.like(theta), xs)
        sup = np.mean(np.logaddexp(0.0, -ds.y_labelled * f(ds.x_labelled)))
        cons = (np.mean((f(aug_lab) - t_lab) ** 2)
                + np.mean((f(aug_unl) - t_unl) ** 2))
        return sup + 2.0 * cons

    fd = finite_diff_grad(oracle, p.theta)

    def rel_err(frozen):
        grads = frozen_objective_grads(p, ds, frozen, lam=2.0)
        return np.linalg.norm(grads.theta - fd) / np.linalg.norm(fd)

    assert rel_err((aug_lab, aug_unl)) < 1e-6
    assert rel_err((aug_unl, aug_lab)) > 1e-2  # swapped draws are caught


def test_train_step_is_frozen_objective_step():
    # one full-batch step without momentum, with a deterministic augmenter,
    # is one Euler step of the field the fluid study integrates
    mm, ds = _world()
    p0 = init_network(prng_new(15, 3), 8, 6)

    def augment(zs, xs, rng):
        return xs + 0.1 * np.sin(3.0 * xs)

    cfg = _cfg(epochs=1, warmup_epochs=0, momentum=0.0, lam=2.0,
               batch_labelled=ds.x_labelled.shape[0],
               batch_unlabelled=ds.x_unlabelled.shape[0])
    stepped, _, _ = train(cfg, ds, augment, prng_new(15, 4), params0=p0)
    frozen = (augment(None, ds.x_labelled, None),
              augment(None, ds.x_unlabelled, None))

    def euler_step(lam):
        return p0.theta - cfg.eta * frozen_objective_grads(
            p0, ds, frozen, lam, cfg.loss).theta

    np.testing.assert_allclose(stepped.theta, euler_step(cfg.lam), rtol=1e-12,
                               atol=0)
    # the consistency term moves the step by far more than the tolerance
    assert not np.allclose(stepped.theta, euler_step(0.0), rtol=1e-9, atol=0)


def test_params0_is_never_modified(monkeypatch):
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    p0 = init_network(prng_new(14, 3), 8, 6)
    before = p0.theta.copy()
    for method in ("supervised", "pi_model", "mean_teacher"):
        train(_cfg(method=method), ds, aug, prng_new(14, 4), params0=p0)
    frozen = (ds.x_labelled + 0.1, ds.x_unlabelled - 0.1)
    _rk4_states(_neg_grad(p0, ds, frozen, _cfg()), p0.theta, 0.1, 5)
    np.testing.assert_array_equal(p0.theta, before)

    # fluid_limit_experiment draws its own start and reuses it for every eta
    from manifold_ssl import experiments
    drawn = []

    def init_and_record(*args):
        p = init_network(*args)
        drawn.append((p, p.theta.copy()))
        return p

    monkeypatch.setattr(network, "init_network", init_and_record)
    tp = experiments.TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8,
                                n_labelled=6, n_unlabelled=30, n_test=0)
    experiments.fluid_limit_experiment(experiments.FluidConfig(
        task=tp, etas=(0.1, 0.05), horizon=0.3, augmentation=AugmentationSpec(k=4),
        hidden=6, seeds=(1,)))
    assert len(drawn) == 1
    np.testing.assert_array_equal(drawn[0][0].theta, drawn[0][1])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=10, epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(method="adam")
    with pytest.raises(ValueError, match="draws_per_sample"):
        TrainConfig(draws_per_sample=0)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        TrainConfig(epochs=0, warmup_epochs=0)
    # each of these used to pass and fail only mid-run
    for momentum in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"momentum must be \[0, 1\), got"):
            TrainConfig(momentum=momentum)
    for name in ("batch_labelled", "batch_unlabelled", "hidden"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            TrainConfig(**{name: 0})
    with pytest.raises(ValueError, match=r"loss must be logistic\|squared, got 'hinge'"):
        TrainConfig(loss="hinge")
