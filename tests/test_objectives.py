import numpy as np
import pytest

from manifold_ssl import network, objectives
from manifold_ssl.manifold import (AugmentationSpec, Augmenter,
                                   make_manifold_map, phi_forward_batch)
from manifold_ssl.network import NetworkParams, init_network
from manifold_ssl.numerics import finite_diff_grad, prng_new
from manifold_ssl.objectives import (balanced_regularizer,
                                     consistency_batch_eval, dirichlet_energy,
                                     gradient_check_suite,
                                     jacobian_penalty_exact,
                                     jacobian_penalty_mc, logistic_loss,
                                     squared_loss, supervised_batch)


def test_logistic_values():
    v, _ = logistic_loss(0.0, 1.0)
    assert abs(v - np.log(2.0)) < 1e-12
    v, _ = logistic_loss(0.0, -1.0)
    assert abs(v - np.log(2.0)) < 1e-12
    v, _ = logistic_loss(2.0, -1.0)
    assert abs(v - np.log(1.0 + np.e ** 2)) < 1e-12


def test_logistic_stable_at_large_scores():
    v, d = logistic_loss(50.0, 1.0)
    assert 0.0 < v < 1e-20
    assert np.isfinite(d)
    v, _ = logistic_loss(-1000.0, 1.0)
    assert np.isfinite(v) and v > 100


def test_logistic_derivative():
    f = 0.37
    for y in (1.0, -1.0):
        _, d = logistic_loss(f, y)
        h = 1e-7
        vp, _ = logistic_loss(f + h, y)
        vm, _ = logistic_loss(f - h, y)
        assert abs(d - (vp - vm) / (2 * h)) < 1e-8


def test_squared_values():
    assert squared_loss(1.0, 1.0)[0] == 0.0
    assert squared_loss(0.0, 1.0)[0] == 0.5
    assert squared_loss(3.0, 1.0)[1] == 2.0


def _params(seed, d_in=5, n_hid=4):
    rng = prng_new(seed, 50)
    p = init_network(rng, d_in, n_hid)
    p.b1[:] = 0.3 * rng.standard_normal(n_hid)
    p.b2[...] = rng.standard_normal()
    return p


def test_supervised_batch_zero_at_fit():
    p = _params(1)
    xs = prng_new(1, 51).standard_normal((1, 5))
    value, grads = supervised_batch(p, xs, network.forward_batch(p, xs),
                                    kind="squared")
    assert value == 0.0
    assert np.all(grads.theta == 0.0)


def test_supervised_batch_duplication_invariant():
    p = _params(2)
    xs = prng_new(2, 51).standard_normal((3, 5))
    ys = np.array([1.0, -1.0, 1.0])
    single_value, single = supervised_batch(p, xs, ys)
    doubled_value, doubled = supervised_batch(p, np.vstack([xs, xs]),
                                              np.tile(ys, 2))
    assert abs(single_value - doubled_value) < 1e-12
    np.testing.assert_allclose(single.theta, doubled.theta, atol=1e-12)


def test_supervised_batch_rejects_empty():
    p = _params(3)
    with pytest.raises(ValueError):
        supervised_batch(p, np.zeros((0, 5)), np.zeros(0))


def test_consistency_zero_when_unperturbed():
    p = _params(4)
    xs = prng_new(4, 51).standard_normal((4, 5))
    targets = network.forward_batch(p, xs)
    value, grads = consistency_batch_eval(p, xs, targets)
    assert value == 0.0
    assert np.all(grads.theta == 0.0)


def test_consistency_constant_network():
    p = _params(5)
    p.w2[:] = 0.0  # output depends on b2 only
    xs = prng_new(5, 51).standard_normal((4, 5))
    targets = network.forward_batch(p, xs)
    xs_aug = xs + prng_new(5, 52).standard_normal(xs.shape)
    value, _ = consistency_batch_eval(p, xs_aug, targets)
    assert value == 0.0


def test_consistency_linear_region_algebra():
    # single unit biased into the linear branch: F(x) = w2 * (W1 x + b1)
    p = NetworkParams.from_blocks([[0.7, -0.2]], [5.0], [1.3], 0.0)
    x = np.array([0.1, 0.2])
    x_aug = np.array([0.3, -0.1])
    target = network.forward_batch(p, x[None, :])[0]
    value, _ = consistency_batch_eval(p, x_aug[None, :], np.array([target]))
    w_eff = 1.3 * np.array([0.7, -0.2])
    assert abs(value - (w_eff @ (x_aug - x)) ** 2) < 1e-12


def test_stop_gradient_contract():
    # gradients are identical whether targets came from a network or are raw
    p = _params(6)
    xs = prng_new(6, 51).standard_normal((4, 5))
    xs_aug = xs + 0.2 * prng_new(6, 52).standard_normal(xs.shape)
    net_targets = network.forward_batch(p, xs)
    raw_targets = net_targets.copy()
    _, a = consistency_batch_eval(p, xs_aug, net_targets)
    b_value, b = consistency_batch_eval(p, xs_aug, raw_targets)
    np.testing.assert_array_equal(a.theta, b.theta)
    # perturbing targets changes the value but stays on the same path
    shifted, _ = consistency_batch_eval(p, xs_aug, raw_targets + 1.0)
    assert shifted != b_value


def _world(seed, d=3, h=4, amb=5):
    mm = make_manifold_map(prng_new(seed, 60), d, h, amb)
    p = _params(seed, d_in=amb)
    return mm, p


def _drawn(augmenter, rng, pairs, draws=1):
    """(xs, [xs_aug, ...]) per (zs, xs) pair, all rounds of one pair first."""
    return [(xs, [augmenter(zs, xs, rng) for _ in range(draws)])
            for zs, xs in pairs]


def test_balanced_additivity_identical_batches():
    mm, p = _world(7)
    zs = prng_new(7, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.1 * prng_new(7, 62).standard_normal(xs.shape)
    value, grads = balanced_regularizer(p, [(xs, [fixed]), (xs, [fixed])], p)
    targets = network.forward_batch(p, xs)
    one_value, one = consistency_batch_eval(p, fixed, targets)
    assert abs(value - 2.0 * one_value) < 1e-12
    np.testing.assert_allclose(grads.theta, 2.0 * one.theta, atol=1e-12)


def test_balanced_zero_at_zero_epsilon():
    mm, p = _world(8)
    zs = prng_new(8, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=3))
    populations = _drawn(aug, prng_new(8, 62), [(zs, xs), (zs, xs)])
    value, _ = balanced_regularizer(p, populations, p)
    assert value == 0.0


def test_balanced_requires_both_populations():
    mm, p = _world(9)
    zs = prng_new(9, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.1, k=3))
    populations = _drawn(aug, prng_new(9, 62), [(zs, xs), (zs[:0], xs[:0])])
    with pytest.raises(ValueError, match="nonempty"):
        balanced_regularizer(p, populations, p)


def test_balanced_reshuffle_invariance():
    mm, p = _world(10)
    zs = prng_new(10, 61).standard_normal((5, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.1 * prng_new(10, 62).standard_normal(xs.shape)
    lookup = {tuple(np.round(x, 12)): fx for x, fx in zip(xs, fixed)}

    def keyed_augmenter(z, x, rng):
        return np.array([lookup[tuple(np.round(row, 12))] for row in x])

    perm = prng_new(10, 63).permutation(5)
    a_value, a = balanced_regularizer(
        p, _drawn(keyed_augmenter, None, [(zs, xs), (zs, xs)]), p)
    b_value, b = balanced_regularizer(
        p, _drawn(keyed_augmenter, None, [(zs[perm], xs[perm]), (zs, xs)]), p)
    assert abs(a_value - b_value) < 1e-12
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)


def test_balanced_mc_converges_to_jacobian_prediction():
    # many draws at small epsilon approach the exact small-amount limit
    mm, p = _world(11)
    z = prng_new(11, 61).standard_normal(3)
    x = phi_forward_batch(mm, z[None, :])[0]
    eps = 1e-3
    aug = Augmenter(mm, AugmentationSpec(epsilon=eps, k=3))
    pair = (z[None, :], x[None, :])
    populations = _drawn(aug, prng_new(11, 62), [pair, pair], draws=10000)
    value, _ = balanced_regularizer(p, populations, p)
    predicted = 2.0 * eps ** 2 * jacobian_penalty_exact(p, mm, z, 3)
    assert abs(value - predicted) / predicted < 0.02


def test_jacobian_penalty_identity_map_linear_network():
    # trivial embedding, linear response: penalty is the squared weight norm
    d = 4
    mm = make_manifold_map(prng_new(12, 60), d, 6, d)
    mm.w_in = np.eye(6, d)
    mm.w_out = np.eye(d, 6)
    mm.bias = np.full(6, 10.0)  # linear branch, slope one
    w = prng_new(12, 61).standard_normal(d)
    p = NetworkParams.from_blocks(w[None, :], [100.0], [1.0], 0.0)
    full = jacobian_penalty_exact(p, mm, np.zeros(d), d)
    assert abs(full - w @ w) < 1e-9
    partial = jacobian_penalty_exact(p, mm, np.zeros(d), 2)
    assert abs(partial - (w[0] ** 2 + w[1] ** 2)) < 1e-9


def test_jacobian_penalty_zero_output_layer():
    mm, p = _world(13)
    p.w2[:] = 0.0
    assert jacobian_penalty_exact(p, mm, np.zeros(3), 3) == 0.0


def test_jacobian_penalty_mc_agrees_with_exact():
    mm, p = _world(14)
    z = prng_new(14, 61).standard_normal(3)
    exact = jacobian_penalty_exact(p, mm, z, 3)
    mc = jacobian_penalty_mc(p, mm, z, 3, 1e-3, 100000, prng_new(14, 62))
    assert abs(mc - exact) / exact < 0.02


def test_jacobian_penalty_mc_bias_shrinks_with_epsilon():
    # common draws for every epsilon, so the sampling noise cancels and the
    # deviation from the linearized (epsilon = 1e-6) estimate is the bias
    mm, p = _world(15)
    z = prng_new(15, 61).standard_normal(3)

    def mc(eps):
        return jacobian_penalty_mc(p, mm, z, 3, eps, 20000, prng_new(15, 62))

    linearized = mc(1e-6)
    devs = [abs(mc(eps) - linearized) for eps in (1e-1, 1e-2, 1e-3)]
    assert devs[0] > devs[1] > devs[2]


def test_dirichlet_constant_network():
    mm, p = _world(16)
    p.w2[:] = 0.0
    zs = prng_new(16, 61).standard_normal((10, 3))
    assert dirichlet_energy(p, mm, zs) == 0.0


def test_dirichlet_identity_linear():
    w = prng_new(17, 60).standard_normal(4)
    # linear branch everywhere near the origin
    p = NetworkParams.from_blocks(w[None, :], [50.0], [1.0], 0.0)
    zs = 0.1 * prng_new(17, 61).standard_normal((20, 4))
    energy = dirichlet_energy(p, None, zs)
    assert abs(energy - w @ w) < 1e-9


def test_dirichlet_chain_matches_probed():
    mm, p = _world(18)
    zs = prng_new(18, 61).standard_normal((6, 3))
    chain = dirichlet_energy(p, mm, zs)
    probed = objectives._fd_dirichlet_energy(p, mm, zs, 1e-6)
    assert abs(chain - probed) / chain < 1e-6


def test_balanced_gradient_matches_frozen_finite_differences():
    # freeze targets and augmented inputs, then the consistency part of the
    # step objective is an ordinary function of the parameters
    mm, p = _world(19)
    zs = prng_new(19, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.15 * prng_new(19, 62).standard_normal(xs.shape)
    _, grads = balanced_regularizer(p, [(xs, [fixed]), (xs, [fixed])], p)
    targets = network.forward_batch(p, xs)

    def frozen_value(theta):
        f = network.forward_batch(p.like(theta), fixed)
        return 2.0 * float(np.mean((f - targets) ** 2))

    fd = finite_diff_grad(frozen_value, p.theta, h=1e-5)
    analytic = grads.theta
    assert np.linalg.norm(analytic - fd) / np.linalg.norm(analytic) < 1e-6


def test_gradient_check_suite_small():
    rows = gradient_check_suite(n_instances=5)
    assert max(err for _, _, err in rows) <= 1e-6
    names = {name for name, _, _ in rows}
    assert names == {"supervised_logistic", "supervised_squared",
                     "consistency_stop_gradient", "jacobian_penalty",
                     "dirichlet_energy"}
