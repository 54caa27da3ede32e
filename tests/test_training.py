import copy
import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from manifold_ssl import network, training
from manifold_ssl.experiments import build_world
from manifold_ssl.manifold import (AugmentationSpec, Augmenter, Dataset,
                                   TaskParams)
from manifold_ssl.network import NetworkParams, init_network
from manifold_ssl.numerics import finite_diff_grad, prng_new, rk4_step
from manifold_ssl.objectives import step_layout, supervised_batch
from manifold_ssl.training import (CSV_HEADER, TrainConfig, TrainRecord,
                                   TrainState, _labelled_batch, csv_text,
                                   draw_step, ema_update,
                                   frozen_objective_grads, record_rows,
                                   sgd_momentum_step, train)


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
    return build_world(TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8,
                                  n_labelled=10, n_unlabelled=n_unl,
                                  n_test=n_test, separation=sep), seed, "ambient")


def _cfg(**kw):
    defaults = dict(epochs=12, warmup_epochs=4, lam=1.0, eta=0.01, momentum=0.9,
                    batch_labelled=10, batch_unlabelled=20,
                    augmentation=AugmentationSpec(epsilon=0.2, k=4),
                    hidden=6, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _supervised(cfg, ds, rng, **kw):
    return train(replace(cfg, method="supervised"), ds, None, rng, **kw)


def test_supervised_interpolates():
    mm, ds = _world()
    cfg = _cfg(method="supervised", epochs=400, eta=0.02)
    state = train(cfg, ds, None, prng_new(1, 3))
    assert state.teacher is None
    assert state.records[-1].train_loss < 0.05
    assert len(state.records) == state.epoch == 400


def test_supervised_deterministic():
    mm, ds = _world()
    cfg = _cfg(method="supervised")
    a = _supervised(cfg, ds, prng_new(5, 3))
    b = _supervised(cfg, ds, prng_new(5, 3))
    assert a.records == b.records
    np.testing.assert_array_equal(a.params.theta, b.params.theta)


def test_lambda_zero_matches_supervised():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    sup = _supervised(_cfg(), ds, prng_new(2, 3))
    pi = train(_cfg(lam=0.0), ds, aug, prng_new(2, 3))
    np.testing.assert_array_equal(sup.params.theta, pi.params.theta)
    assert ([r.train_loss for r in sup.records]
            == [r.train_loss for r in pi.records])


def test_epsilon_zero_matches_supervised():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=4))
    sup = _supervised(_cfg(), ds, prng_new(3, 3))
    pi = train(_cfg(augmentation=aug.spec), ds, aug, prng_new(3, 3))
    np.testing.assert_array_equal(sup.params.theta, pi.params.theta)


def test_warmup_bit_matches_supervised():
    # each warmup epoch of the pi model ends where the supervised run's does
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    sup, pi = TrainState(), TrainState()
    sup_rng, pi_rng = prng_new(4, 3), prng_new(4, 3)
    for ep in range(1, 5):
        _supervised(_cfg(epochs=4), ds, sup_rng, state=sup, last_epoch=ep)
        train(_cfg(epochs=12, warmup_epochs=4), ds, aug, pi_rng, pi, last_epoch=ep)
        np.testing.assert_array_equal(sup.params.theta, pi.params.theta)


def test_spy_augmenter_called_once_per_sample_per_step():
    # one augmenter call per step over the stacked draws of both populations
    # (all labelled rounds, then all unlabelled rounds) gives, bit for bit,
    # the rows of one call per population and round from a generator in the
    # same state, and leaves the generator in the same state. The one array
    # it is handed stacks the latents in manifold mode and the inputs in
    # ambient mode.
    mm, ds = _world(n_unl=40)
    for mode in ("manifold", "ambient"):
        inner = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4, mode=mode))
        calls = []

        def spy(points, rng):
            twin = copy.deepcopy(rng)
            drawn = inner(points, rng)
            rounds = [inner(points[i:i + n], twin)
                      for i, n in ((0, 10), (10, 10), (20, 20), (40, 20))]
            np.testing.assert_array_equal(drawn, np.vstack(rounds))
            assert rng.bit_generator.state == twin.bit_generator.state
            calls.append(points)
            return drawn

        cfg = _cfg(epochs=3, warmup_epochs=0, batch_unlabelled=20,
                   draws_per_sample=2, augmentation=inner.spec)
        train(cfg, ds, spy, prng_new(6, 3))
        assert len(calls) == 3 * 2  # 2 steps per epoch, 3 epochs
        labelled, unlabelled = ((ds.z_labelled, ds.z_unlabelled)
                                if mode == "manifold"
                                else (ds.x_labelled, ds.x_unlabelled))
        for epoch in range(3):
            steps = calls[2 * epoch:2 * epoch + 2]
            for stacked in steps:
                assert stacked.shape == (2 * (10 + 20), labelled.shape[1])
                np.testing.assert_array_equal(stacked[:10], labelled)
                np.testing.assert_array_equal(stacked[10:20], labelled)
                np.testing.assert_array_equal(stacked[20:40], stacked[40:])
            # the epoch's two unlabelled batches cover the unlabelled set
            seen = np.vstack([stacked[20:40] for stacked in steps])
            np.testing.assert_array_equal(np.sort(seen, axis=0),
                                          np.sort(unlabelled, axis=0))


@pytest.mark.parametrize("method", ["pi_model", "mean_teacher"])
def test_consistency_step_makes_one_network_pass(monkeypatch, method):
    # per consistency step: one value_and_grad and one augmenter call; the
    # pi model's targets come from that pass, the mean teacher's from one
    # teacher forward_batch. Every epoch adds the train and test passes.
    mm, ds = _world(n_unl=40)
    counts = {"value_and_grad": 0, "forward_batch": 0, "augmenter": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("value_and_grad", "forward_batch"):
        monkeypatch.setattr(network, name, counted(name, getattr(network, name)))
    augmenter = counted("augmenter",
                        Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4)))
    cfg = _cfg(method=method, epochs=3, warmup_epochs=1, batch_unlabelled=20,
               draws_per_sample=2)
    train(cfg, ds, augmenter, prng_new(17, 3))
    # 3 epochs of 2 steps, the last 2 epochs with the consistency term
    assert counts == {"value_and_grad": 6, "augmenter": 4,
                      "forward_batch": 6 + (4 if method == "mean_teacher" else 0)}


def test_every_network_pass_of_a_run_gets_one_workspace(monkeypatch):
    # the hidden-layer buffers of a run live in one dict that train owns:
    # every pass of one call (the steps, the teacher's targets and the
    # per-epoch evaluations) gets that dict, never None, which would
    # allocate the buffers afresh on every pass
    mm, ds = _world(n_unl=40)
    workspaces = []
    for name in ("value_and_grad", "forward_batch"):
        def spy(*args, fn=getattr(network, name), **kwargs):
            workspaces.append(inspect.signature(fn).bind(*args, **kwargs)
                              .arguments.get("workspace"))
            return fn(*args, **kwargs)
        monkeypatch.setattr(network, name, spy)
    cfg = _cfg(method="mean_teacher", epochs=3, warmup_epochs=1,
               batch_unlabelled=20)
    train(cfg, ds, Augmenter(mm, cfg.augmentation), prng_new(17, 3))
    assert len(workspaces) == 6 + 4 + 6
    assert isinstance(workspaces[0], dict)
    assert all(held is workspaces[0] for held in workspaces)


def test_train_loss_is_the_supervised_value():
    # the per-epoch train_loss is a forward pass; it equals, bit for bit,
    # the value of supervised_batch on the whole labelled set
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    for loss in ("logistic", "squared"):
        cfg = _cfg(epochs=6, warmup_epochs=2, loss=loss)
        state, rng = TrainState(), prng_new(16, 3)
        for epoch in range(1, 7):
            train(cfg, ds, aug, rng, state, last_epoch=epoch)
            assert state.records[-1].train_loss == supervised_batch(
                state.params, ds.x_labelled, ds.y_labelled, loss)[0]
        assert len(state.records) == 6


def test_mean_teacher_beta_zero_matches_pi():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    pi = train(_cfg(), ds, aug, prng_new(7, 3))
    mt = train(_cfg(method="mean_teacher", beta_mt=0.0), ds, aug,
               prng_new(7, 3))
    np.testing.assert_array_equal(pi.params.theta, mt.params.theta)
    assert [r.test_nll for r in pi.records] == [r.test_nll for r in mt.records]


@pytest.mark.parametrize("method", ["pi_model", "mean_teacher"])
def test_train_continues_a_copied_state_bit_for_bit(method):
    # stopped at an epoch boundary, before, at or past warmup, and resumed
    # from copies of the state and rng, a run ends where it would have
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method=method, epochs=8, warmup_epochs=3)
    full = train(cfg, ds, aug, prng_new(18, 3))
    for stop in (0, 3, 5):
        rng = prng_new(18, 3)
        state = train(cfg, ds, aug, rng, last_epoch=stop)
        assert state.epoch == stop and len(state.records) == stop
        resumed = train(cfg, ds, aug, copy.deepcopy(rng), copy.deepcopy(state))
        np.testing.assert_array_equal(resumed.params.theta, full.params.theta)
        if method == "mean_teacher":
            np.testing.assert_array_equal(resumed.teacher.theta,
                                          full.teacher.theta)
        else:
            assert resumed.teacher is None
        assert resumed.records == full.records
        assert state.epoch == stop  # the copy advanced, not the original


def test_mean_teacher_resumed_past_warmup_needs_its_teacher():
    # a pi-model state past warmup has no teacher: resumed as the mean
    # teacher, it used to go on training the pi model under the mean
    # teacher's name
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method="mean_teacher", epochs=8, warmup_epochs=2)
    pi = replace(cfg, method="pi_model")
    rng = prng_new(22, 3)
    state = train(pi, ds, aug, rng, last_epoch=4)
    theta = state.params.theta.copy()
    with pytest.raises(ValueError, match=r"^train: cannot resume mean_teacher "
                       r"at epoch 4, past warmup, from a state without a teacher$"):
        train(cfg, ds, aug, rng, state)
    assert state.epoch == 4 and state.teacher is None
    np.testing.assert_array_equal(state.params.theta, theta)
    # resumed at the end of warmup, as a sweep's points are, the averaging
    # starts there and the run is the mean teacher's own
    rng = prng_new(22, 3)
    state = train(pi, ds, aug, rng, last_epoch=2)
    resumed = train(cfg, ds, aug, rng, state)
    full = train(cfg, ds, aug, prng_new(22, 3))
    np.testing.assert_array_equal(resumed.params.theta, full.params.theta)
    np.testing.assert_array_equal(resumed.teacher.theta, full.teacher.theta)


@pytest.mark.parametrize("method", ["pi_model", "supervised"])
def test_a_method_without_a_teacher_rejects_a_state_that_holds_one(method):
    # a mean-teacher state resumed under another method used to take its
    # targets from the teacher and go on averaging it
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method="mean_teacher", epochs=8, warmup_epochs=2)
    rng = prng_new(22, 3)
    state = train(cfg, ds, aug, rng, last_epoch=4)
    theta, teacher = state.params.theta.copy(), state.teacher.theta.copy()
    with pytest.raises(ValueError, match=rf"^train: method {method} has no "
                       rf"teacher, but the state holds one$"):
        train(replace(cfg, method=method), ds, aug, rng, state, last_epoch=5)
    assert state.epoch == 4
    np.testing.assert_array_equal(state.params.theta, theta)
    np.testing.assert_array_equal(state.teacher.theta, teacher)


def test_consistency_run_without_augmenter_fails_before_its_first_epoch():
    # it used to train the warmup and then fail calling None
    mm, ds = _world()
    cfg = _cfg(epochs=8, warmup_epochs=2)
    state = TrainState()
    with pytest.raises(ValueError,
                       match=r"^train: epoch 8 of pi_model needs an augmenter$"):
        train(cfg, ds, None, prng_new(23, 3), state)
    assert state.epoch == 0 and state.params is None
    # no epoch of these runs the consistency term, so none draws from one
    for run, last_epoch in ((cfg, 2), (replace(cfg, method="supervised"), None),
                            (replace(cfg, lam=0.0), None)):
        state = train(run, ds, None, prng_new(23, 3), last_epoch=last_epoch)
        assert state.epoch == (last_epoch or 8)


def test_train_returns_the_state_it_was_handed():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method="mean_teacher", epochs=6, warmup_epochs=2)
    state = TrainState()
    assert train(cfg, ds, aug, prng_new(19, 3), state, last_epoch=3) is state
    assert train(cfg, ds, aug, prng_new(19, 4), state) is state
    assert state.epoch == len(state.records) == 6
    assert state.teacher is not None
    # a caller's own network is the state's, advanced in place from a zero
    # velocity
    p = init_network(prng_new(19, 5), 8, 6)
    given = TrainState(params=p)
    assert train(cfg, ds, aug, prng_new(19, 6), given, last_epoch=0) is given
    assert given.params is p and given.epoch == 0
    np.testing.assert_array_equal(given.velocity, np.zeros_like(p.theta))
    theta0 = p.theta.copy()
    assert train(cfg, ds, aug, prng_new(19, 6), given) is given
    assert given.params is p and not np.array_equal(p.theta, theta0)


# digests of runs started from init_network(prng_new(14, 3), 8, 6) handed to
# train as TrainState(params=p), captured under the OpenBLAS kernel
# _GIVEN_NETWORK_KERNEL (conftest.blas_kernel)
_GIVEN_NETWORK_RUNS = {"supervised": "e42fa6196aa072dc",
                       "pi_model": "1d799285722aef48",
                       "mean_teacher": "8674d811f4e54a69"}
_GIVEN_NETWORK_KERNEL = "SkylakeX"


@pytest.mark.parametrize("method", sorted(_GIVEN_NETWORK_RUNS))
def test_run_from_a_given_network_is_bit_identical(blas_kernel, method):
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    p = init_network(prng_new(14, 3), 8, 6)
    state = train(_cfg(method=method), ds, aug, prng_new(14, 4),
                  TrainState(params=p))
    digest = hashlib.sha256(state.params.theta.tobytes())
    if state.teacher is not None:
        digest.update(state.teacher.theta.tobytes())
    digest.update(repr([
        (float(r.epoch), r.train_loss, r.test_nll, r.test_acc,
         r.consistency_value) for r in state.records]).encode())
    assert digest.hexdigest()[:16] == _GIVEN_NETWORK_RUNS[method], (
        f"digest captured under the {_GIVEN_NETWORK_KERNEL} OpenBLAS kernel, "
        f"run under {blas_kernel}")


def test_mean_teacher_ema_tracks_params():
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    cfg = _cfg(method="mean_teacher", beta_mt=0.9, epochs=60, warmup_epochs=5,
               lam=0.5, eta=0.005)
    state = train(cfg, ds, aug, prng_new(8, 3))
    gap = (np.linalg.norm(state.teacher.theta - state.params.theta)
           / np.linalg.norm(state.params.theta))
    assert 0.0 < gap < 0.05


def test_records_csv_schema():
    mm, ds = _world()
    for method, beta_mt in (("supervised", "nan"), ("mean_teacher", "0.99")):
        cfg = _cfg(method=method, epochs=2, warmup_epochs=0, seed=4)
        records = train(cfg, ds, None if method == "supervised" else Augmenter(
            mm, cfg.augmentation), prng_new(9, 3)).records
        lines = csv_text(CSV_HEADER, record_rows(cfg, "run", records)).splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0].split(",") == [
            "run_id", "method", "seed", "epoch", "lambda", "epsilon", "k",
            "beta_mt", "train_loss", "test_nll", "test_acc", "consistency_value"]
        assert len(lines) == 3
        # each row's labels come from the config, its numbers from its record
        for epoch, (line, r) in enumerate(zip(lines[1:], records), start=1):
            assert line == (f"run,{method},4,{epoch},1.0,0.2,4,{beta_mt},"
                            f"{r.train_loss!r},{r.test_nll!r},{r.test_acc!r},"
                            f"{r.consistency_value!r}")


@pytest.mark.parametrize("mode, k, written", [
    ("manifold", 4, "4"), ("manifold", -1, "10"),
    ("ambient", 2, "nan"), ("ambient", -1, "nan")])
def test_records_csv_k_is_the_explored_dims_and_nan_under_ambient_noise(
        mode, k, written):
    # k is written as the run reads it: the dims a 10-latent world explores,
    # or nan where ambient noise explores none, whatever k the config holds
    cfg = _cfg(augmentation=AugmentationSpec(epsilon=0.2, k=k, mode=mode))
    record = TrainRecord(epoch=1, train_loss=0.5, test_nll=0.6, test_acc=0.7,
                         consistency_value=0.1)
    line = csv_text(CSV_HEADER, record_rows(cfg, "run", [record])).splitlines()[1]
    assert line.split(",")[CSV_HEADER.index("k")] == written
    assert dict(cfg.reads(cfg.epochs))["k"] == (None if written == "nan"
                                                 else int(written))


def _field_layout(ds, frozen, lam, loss="logistic"):
    """The fluid field's step layout: the labelled loss plus lam times the
    consistency of the labelled and unlabelled sets against frozen, their
    (labelled, unlabelled) draws; the labelled rows alone when lam is 0."""
    populations = zip((ds.x_labelled, ds.x_unlabelled), frozen) if lam > 0 else ()
    return step_layout(ds.x_labelled, ds.y_labelled, loss, list(populations), lam)


def _neg_grad(p0, ds, frozen, cfg):
    layout = _field_layout(ds, frozen, cfg.lam, cfg.loss)
    return lambda theta: -frozen_objective_grads(p0.like(theta), layout).theta


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
                 x_test=ds.x_test, y_test=ds.y_test)
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
                 x_unlabelled=ds.x_unlabelled, x_test=ds.x_test,
                 y_test=ds.y_test)
    cfg = _cfg(lam=3.0, loss="squared")
    frozen = (ds.x_labelled.copy(), ds.x_unlabelled.copy())
    states = _rk4_states(_neg_grad(p0, ds, frozen, cfg), p0.theta, 0.1, 10)
    assert np.max(np.abs(states - states[0])) == 0.0


def test_train_rejects_empty_labelled():
    mm, ds = _world()
    empty = Dataset(z_labelled=ds.z_labelled[:0], x_labelled=ds.x_labelled[:0],
                    y_labelled=ds.y_labelled[:0], z_unlabelled=ds.z_unlabelled,
                    x_unlabelled=ds.x_unlabelled, x_test=ds.x_test,
                    y_test=ds.y_test)
    with pytest.raises(ValueError):
        _supervised(_cfg(), empty, prng_new(11, 3))


def test_train_rejects_empty_test_set():
    # no TaskParams draws an empty test split; a hand-built Dataset can hold one
    mm, ds = _world()
    ds = replace(ds, x_test=ds.x_test[:0], y_test=ds.y_test[:0])
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
        grads = frozen_objective_grads(p, _field_layout(ds, frozen, lam=2.0))
        return np.linalg.norm(grads.theta - fd) / np.linalg.norm(fd)

    assert rel_err((aug_lab, aug_unl)) < 1e-6
    assert rel_err((aug_unl, aug_lab)) > 1e-2  # swapped draws are caught


def test_frozen_objective_grads_is_step_objective_over_a_prebuilt_layout():
    # the layout is built once and reused; each pass over it is the gradient
    # of a step over a fresh layout of the same populations, bit for bit
    mm, ds = _world()
    p = init_network(prng_new(16, 3), 8, 6)
    frozen = (ds.x_labelled + 0.1, ds.x_unlabelled - 0.1)
    for lam, loss in ((2.0, "logistic"), (0.0, "logistic"), (0.5, "squared")):
        layout = _field_layout(ds, frozen, lam, loss)
        workspace = {}
        for theta in (p.theta, p.theta + 0.05, p.theta):
            q = p.like(theta.copy())
            expected = network.value_and_grad(
                q, *_field_layout(ds, frozen, lam, loss))[1]
            got = frozen_objective_grads(q, layout, workspace)
            assert np.array_equal(got.theta, expected.theta)


def test_train_step_is_frozen_objective_step():
    # one full-batch step without momentum, with a deterministic augmenter,
    # is one Euler step of the field the fluid study integrates; the
    # augmenter reads its inputs, so the run's spec is ambient
    mm, ds = _world()
    p0 = init_network(prng_new(15, 3), 8, 6)

    def augment(xs, rng):
        return xs + 0.1 * np.sin(3.0 * xs)

    cfg = _cfg(epochs=1, warmup_epochs=0, momentum=0.0, lam=2.0,
               batch_labelled=ds.x_labelled.shape[0],
               batch_unlabelled=ds.x_unlabelled.shape[0],
               augmentation=AugmentationSpec(epsilon=0.1, mode="ambient"))
    stepped = train(cfg, ds, augment, prng_new(15, 4),
                    TrainState(params=p0.like(p0.theta.copy()))).params
    frozen = (augment(ds.x_labelled, None), augment(ds.x_unlabelled, None))

    def euler_step(lam):
        return p0.theta - cfg.eta * frozen_objective_grads(
            p0, _field_layout(ds, frozen, lam, cfg.loss)).theta

    np.testing.assert_allclose(stepped.theta, euler_step(cfg.lam), rtol=1e-12,
                               atol=0)
    # the consistency term moves the step by far more than the tolerance
    assert not np.allclose(stepped.theta, euler_step(0.0), rtol=1e-9, atol=0)


def test_mean_teacher_step_takes_its_targets_from_the_teacher():
    # one full-batch step past warmup without momentum, with a deterministic
    # augmenter, is theta - eta * g, g the gradient over the step's layout
    # with the teacher's outputs on the population inputs as its targets
    mm, ds = _world()
    p0 = init_network(prng_new(22, 3), 8, 6)
    teacher = p0.like(p0.theta + 0.05 * prng_new(22, 4).standard_normal(
        p0.theta.shape))

    def augment(xs, rng):
        return xs + 0.1 * np.sin(3.0 * xs)

    cfg = _cfg(method="mean_teacher", epochs=2, warmup_epochs=0, momentum=0.0,
               lam=2.0, batch_labelled=ds.x_labelled.shape[0],
               batch_unlabelled=ds.x_unlabelled.shape[0],
               augmentation=AugmentationSpec(epsilon=0.1, mode="ambient"))

    def stepped(method, teacher=None):
        state = TrainState(epoch=1, params=p0.like(p0.theta.copy()),
                           teacher=teacher)
        return train(replace(cfg, method=method), ds, augment, prng_new(22, 5),
                     state).params.theta

    # the epoch's one step covers the unlabelled set in its permuted order
    x_unl = ds.x_unlabelled[prng_new(22, 5).permutation(ds.x_unlabelled.shape[0])]
    populations = [(ds.x_labelled, augment(ds.x_labelled, None)),
                   (x_unl, augment(x_unl, None))]
    teacher_out = network.forward_batch(
        teacher, np.concatenate([ds.x_labelled, x_unl]))
    g = network.value_and_grad(p0, *step_layout(
        ds.x_labelled, ds.y_labelled, cfg.loss, populations, cfg.lam,
        teacher_out))[1]
    mean_teacher = stepped("mean_teacher", teacher.like(teacher.theta.copy()))
    assert np.array_equal(mean_teacher, p0.theta - cfg.eta * g.theta)
    # the pi model's own targets give another step
    assert not np.allclose(mean_teacher, stepped("pi_model"), rtol=1e-9, atol=0)


def _step_by_hand(cfg, ds, augmenter, rng, lab_idx, unl_idx, teacher):
    """A step's layout written out: one augmenter call over D rounds of the
    labelled rows, then D of the unlabelled, and the targets the teacher's
    outputs on [labelled; unlabelled] inputs, or none (the network's own)."""
    d = cfg.draws_per_sample
    lab, unl = ds.perturbed(cfg.augmentation.mode)
    drawn = augmenter(np.concatenate([lab[lab_idx]] * d + [unl[unl_idx]] * d), rng)
    split = d * len(lab_idx)
    x_lab, x_unl = ds.x_labelled[lab_idx], ds.x_unlabelled[unl_idx]
    teacher_out = None if teacher is None else network.forward_batch(
        teacher, np.concatenate([x_lab, x_unl]))
    return step_layout(x_lab, ds.y_labelled[lab_idx], cfg.loss,
                       [(x_lab, drawn[:split]), (x_unl, drawn[split:])], cfg.lam,
                       teacher_out)


@pytest.mark.parametrize("draws", [1, 2])
@pytest.mark.parametrize("method", ["pi_model", "mean_teacher"])
def test_draw_step_lays_out_the_step_written_out_by_hand(method, draws):
    # the rows, and the loss's value and upstream on any outputs, are the
    # hand-written step's bit for bit
    mm, ds = _world()
    cfg = _cfg(method=method, draws_per_sample=draws)
    aug = Augmenter(mm, cfg.augmentation)
    lab_idx, unl_idx = np.array([3, 0, 5]), np.array([7, 2, 11, 4])
    teacher = init_network(prng_new(23, 1), 8, 6) if method == "mean_teacher" else None
    rows, step_loss = draw_step(cfg, ds, aug, prng_new(23, 2), lab_idx, unl_idx,
                                teacher, {})
    want_rows, want_loss = _step_by_hand(cfg, ds, aug, prng_new(23, 2), lab_idx,
                                         unl_idx, teacher)
    assert np.array_equal(rows, want_rows)
    # the pi model's target rows are the unlabelled inputs; a teacher adds none
    assert len(rows) == 3 + draws * 7 + (0 if teacher else 4)
    f = prng_new(23, 3).standard_normal(len(rows))
    (value, upstream), (want_value, want_upstream) = step_loss(f), want_loss(f)
    assert value == want_value
    assert np.array_equal(upstream, want_upstream)


def test_draw_step_without_unlabelled_rows_is_the_supervised_batch():
    # no unlabelled rows: no draw, the rng untouched, and the layout of the
    # labelled rows alone
    mm, ds = _world()
    cfg = _cfg()
    rng = prng_new(24, 1)
    before = rng.bit_generator.state

    def augmenter(points, rng):
        raise AssertionError("no draw without unlabelled rows")

    lab_idx = np.array([4, 1, 8])
    rows, step_loss = draw_step(cfg, ds, augmenter, rng, lab_idx)
    assert rng.bit_generator.state == before
    want_rows, want_loss = step_layout(ds.x_labelled[lab_idx], ds.y_labelled[lab_idx],
                                       cfg.loss)
    assert np.array_equal(rows, want_rows)
    f = prng_new(24, 2).standard_normal(len(rows))
    (value, upstream), (want_value, want_upstream) = step_loss(f), want_loss(f)
    assert value == want_value and value[1] == 0.0
    assert np.array_equal(upstream, want_upstream)


def test_a_labelled_batch_that_covers_the_set_is_a_slice_of_it():
    # no draw, and the step's rows taken as views lay out the step that
    # indexing every row lays out, bit for bit
    rng = prng_new(26, 1)
    before = rng.bit_generator.state
    assert _labelled_batch(rng, 10, 10) == slice(None)
    assert _labelled_batch(rng, 10, 15) == slice(None)
    assert rng.bit_generator.state == before
    mm, ds = _world()
    cfg = _cfg()
    aug = Augmenter(mm, cfg.augmentation)
    unl_idx = np.array([7, 2, 11, 4])
    rows, step_loss = draw_step(cfg, ds, aug, prng_new(26, 2), slice(None), unl_idx)
    want_rows, want_loss = draw_step(cfg, ds, aug, prng_new(26, 2), np.arange(10),
                                     unl_idx)
    assert rows.tobytes() == want_rows.tobytes()
    # the labelled population reads its targets from the supervised rows
    assert len(rows) == 10 + 10 + 4 + 4
    f = prng_new(26, 3).standard_normal(len(rows))
    (value, upstream), (want_value, want_upstream) = step_loss(f), want_loss(f)
    assert value == want_value
    assert upstream.tobytes() == want_upstream.tobytes()


def test_params0_is_never_modified(monkeypatch):
    # the fluid field reads its start, and never writes it
    mm, ds = _world()
    p0 = init_network(prng_new(14, 3), 8, 6)
    before = p0.theta.copy()
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
                                n_labelled=6, n_unlabelled=30, n_test=2)
    experiments.fluid_limit_experiment(experiments.FluidConfig(
        etas=(0.1, 0.05), horizon=0.3,
        train=TrainConfig(lam=1.0, hidden=6, augmentation=AugmentationSpec(k=4),
                          task=tp),
        seeds=(1,)))
    assert len(drawn) == 1
    np.testing.assert_array_equal(drawn[0][0].theta, drawn[0][1])


def test_floating_point_error_stops_the_run_naming_epoch_and_step(monkeypatch):
    # the first overflow stops the run with one error naming where it
    # happened, instead of a warning per operation that names no run
    mm, ds = _world()
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.2, k=4))
    p = init_network(prng_new(21, 3), 8, 6)
    p.theta *= 1e300
    with pytest.raises(ValueError, match=r"^train: overflow encountered "
                       r"in .+ in epoch 1, step 1$"):
        train(_cfg(), ds, aug, prng_new(21, 4), TrainState(params=p))

    # past the steps, the error names the epoch alone: here an overflow in
    # epoch 3's first evaluation, the fifth of two per epoch
    calls, real_evaluate = [], training.evaluate

    def overflow_in_epoch_3(*args):
        calls.append(None)
        np.float64(1e300) * (1e10 if len(calls) == 5 else 1.0)
        return real_evaluate(*args)

    monkeypatch.setattr(training, "evaluate", overflow_in_epoch_3)
    with pytest.raises(ValueError, match=r"^train: overflow encountered "
                       r"in .+ in epoch 3$"):
        train(_cfg(), ds, aug, prng_new(21, 4))
    assert len(calls) == 5


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
    # a bad k used to build and fail only when the run built its Augmenter
    for k in (0, -3):
        with pytest.raises(ValueError, match=rf"^AugmentationSpec: k must be "
                           rf"-1 \(full\) or >= 1, got {k}$"):
            TrainConfig(augmentation=AugmentationSpec(k=k))
    # k explores the latent dimensions of the run's own world
    tp = TaskParams(latent_dim=4)
    assert TrainConfig(task=tp, augmentation=AugmentationSpec(k=4)).task is tp
    assert TrainConfig(task=tp).augmentation.dims(tp.latent_dim) == 4  # full
    with pytest.raises(ValueError,
                       match=r"^AugmentationSpec: k must be in \[1, 4\], got 10$"):
        TrainConfig(task=tp, augmentation=AugmentationSpec(k=10))
    # each of these used to pass and fail only mid-run
    for momentum in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"momentum must be \[0, 1\), got"):
            TrainConfig(momentum=momentum)
    for name in ("batch_labelled", "batch_unlabelled", "hidden"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            TrainConfig(**{name: 0})
    with pytest.raises(ValueError, match=r"loss must be logistic\|squared, got 'hinge'"):
        TrainConfig(loss="hinge")
    # inf passed every rule and diverged mid-run
    with pytest.raises(ValueError, match=r"^TrainConfig: lambda must be finite, >= 0, got inf$"):
        TrainConfig(lam=float("inf"))
