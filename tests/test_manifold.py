import warnings

import numpy as np
import pytest

from manifold_ssl.manifold import (AugmentationSpec, Augmenter, elu,
                                   elu_prime, generate_dataset, load_dataset,
                                   make_manifold_map, make_task,
                                   phi_forward_batch, phi_vjp,
                                   save_dataset, ManifoldMap, TaskSpec)
from manifold_ssl.numerics import prng_new


def _phi(mm, z):
    return phi_forward_batch(mm, np.asarray(z, dtype=float)[None, :])[0]


def _jac(mm, z):
    # row i of the Jacobian is the unit vector e_i pulled back through it
    n = mm.w_out.shape[0]
    return phi_vjp(mm, np.tile(z, (n, 1)), np.eye(n))


def test_elu_values():
    assert elu(0.0) == 0.0
    assert elu(1.0) == 1.0
    assert abs(elu(-1.0) - (np.exp(-1.0) - 1.0)) < 1e-12
    assert elu_prime(2.0) == 1.0
    assert abs(elu_prime(-1.0) - np.exp(-1.0)) < 1e-12


def test_elu_no_overflow_on_large_positive():
    out = elu(np.array([1e3, -1e3]))
    assert out[0] == 1e3
    assert abs(out[1] + 1.0) < 1e-12


def test_elu_kernels_equal_their_select_definitions():
    # bit-exact against the np.where forms, allocating and in place
    t = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e3, -1e3,
                  np.inf, -np.inf, np.nan])
    want = np.where(t >= 0.0, t, np.expm1(np.minimum(t, 0.0)))
    want_prime = np.where(t >= 0.0, 1.0, np.exp(np.minimum(t, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scratch, out = t.copy(), np.empty_like(t)
        assert elu(scratch, out=out) is out
        in_place = t.copy()
        assert elu_prime(in_place, out=in_place) is in_place
        for got, expected in ((elu(t), want), (out, want),
                              (elu_prime(t), want_prime),
                              (in_place, want_prime)):
            assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(scratch, np.maximum(t, 0.0), equal_nan=True)


def test_map_shapes_and_scaling():
    rng = prng_new(3, 0)
    mm = make_manifold_map(rng, 10, 30, 100)
    assert mm.w_in.shape == (30, 10)
    assert mm.w_out.shape == (100, 30)
    assert mm.bias.shape == (30,)
    # entry variance approx 1/latent_dim over the 300 draws
    assert abs(mm.w_in.var() - 0.1) < 0.03
    assert abs(mm.w_out.var() - 1.0 / 30.0) < 0.01


def test_map_reproducible():
    a = make_manifold_map(prng_new(5, 0), 4, 6, 8)
    b = make_manifold_map(prng_new(5, 0), 4, 6, 8)
    np.testing.assert_array_equal(a.w_in, b.w_in)
    np.testing.assert_array_equal(a.w_out, b.w_out)
    np.testing.assert_array_equal(a.bias, b.bias)


def test_phi_zero_map_is_zero():
    mm = ManifoldMap(w_in=np.zeros((3, 2)), w_out=np.zeros((4, 3)),
                     bias=np.zeros(3))
    np.testing.assert_array_equal(phi_forward_batch(mm, np.ones((3, 2))),
                                  np.zeros((3, 4)))


def test_phi_scalar_chain():
    mm = ManifoldMap(w_in=np.array([[1.0]]), w_out=np.array([[1.0]]),
                     bias=np.array([0.0]))
    out = _phi(mm, [-1.0])
    assert abs(out[0] - (np.exp(-1.0) - 1.0)) < 1e-12
    jac = phi_vjp(mm, np.array([[-1.0]]), np.array([[1.0]]))
    assert abs(jac[0, 0] - np.exp(-1.0)) < 1e-12


def test_phi_matches_independent_oracle():
    mm = make_manifold_map(prng_new(42, 0), 2, 3, 2)
    zs = prng_new(42, 1).standard_normal((4, 2))
    batch = phi_forward_batch(mm, zs)
    for z, out in zip(zs, batch):
        # per-unit reimplementation
        pre = mm.w_in.dot(z) + mm.bias
        hidden = np.array([p if p >= 0 else np.expm1(p) for p in pre])
        expected = mm.w_out.dot(hidden)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_phi_batch_matches_single():
    # every row is mapped independently of the others in its batch
    mm = make_manifold_map(prng_new(8, 0), 5, 7, 9)
    zs = prng_new(8, 1).standard_normal((6, 5))
    batch = phi_forward_batch(mm, zs)
    for i in range(6):
        np.testing.assert_allclose(batch[i], _phi(mm, zs[i]), atol=1e-12)


def test_phi_vjp_linear_region():
    rng = prng_new(9, 0)
    mm = make_manifold_map(rng, 3, 4, 5)
    mm.bias = np.full(4, 10.0)  # all pre-activations positive near 0
    z = 0.01 * rng.standard_normal(3)
    np.testing.assert_allclose(_jac(mm, z), mm.w_out @ mm.w_in,
                               atol=1e-12)


def test_phi_vjp_matches_finite_differences():
    mm = make_manifold_map(prng_new(10, 0), 4, 6, 7)
    z = prng_new(10, 1).standard_normal(4)
    jac = _jac(mm, z)
    h = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        col = (_phi(mm, z + step) - _phi(mm, z - step)) / (2 * h)
        assert np.linalg.norm(col - jac[:, j]) / np.linalg.norm(col) < 1e-6


def test_phi_dimension_mismatch():
    mm = make_manifold_map(prng_new(1, 0), 3, 4, 5)
    with pytest.raises(ValueError):
        phi_forward_batch(mm, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        phi_forward_batch(mm, np.zeros(3))
    with pytest.raises(ValueError):
        phi_vjp(mm, np.zeros((1, 2)), np.zeros((1, 5)))


def _task(d=4, n_lab=10, n_unl=50, n_test=20, sep=3.0, seed=11):
    return make_task(prng_new(seed, 0), d, sep, n_lab, n_unl, n_test)


def test_task_mean_separation():
    task = _task(sep=3.0)
    assert abs(np.linalg.norm(task.mu_pos - task.mu_neg) - 3.0) < 1e-12


def test_task_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        TaskSpec(mu_pos=np.ones(2), mu_neg=-np.ones(2), n_labelled=3,
                 n_unlabelled=10, n_test=10)
    with pytest.raises(ValueError):
        TaskSpec(mu_pos=np.ones(2), mu_neg=np.ones(2), n_labelled=4,
                 n_unlabelled=10, n_test=10)


def test_sample_latent_statistics():
    # latents of each class are N(mu_class, I)
    task = _task(d=3, n_lab=2, n_unl=2, n_test=40000, sep=3.0)
    mm = make_manifold_map(prng_new(13, 1), 3, 4, 5)
    ds = generate_dataset(prng_new(13, 0), mm, task)
    pos = ds.z_test[ds.y_test > 0]
    neg = ds.z_test[ds.y_test < 0]
    assert len(pos) == len(neg) == 20000
    for zs, mu in ((pos, task.mu_pos), (neg, task.mu_neg)):
        assert np.linalg.norm(zs.mean(axis=0) - mu) < 0.05
        np.testing.assert_allclose(np.cov(zs.T), np.eye(3), atol=0.05)
    gap = np.linalg.norm(pos.mean(axis=0) - neg.mean(axis=0))
    assert abs(gap - 3.0) < 0.05


def test_generate_dataset_counts_and_balance():
    mm = make_manifold_map(prng_new(2, 0), 4, 6, 8)
    task = _task(d=4)
    ds = generate_dataset(prng_new(2, 1), mm, task)
    assert ds.x_labelled.shape == (10, 8)
    assert int((ds.y_labelled > 0).sum()) == 5
    assert ds.x_unlabelled.shape == (50, 8)
    assert int((ds.y_test > 0).sum()) == 10
    # every stored ambient point is exactly the mapped latent
    np.testing.assert_array_equal(ds.x_labelled,
                                  phi_forward_batch(mm, ds.z_labelled))
    np.testing.assert_array_equal(ds.x_test, phi_forward_batch(mm, ds.z_test))


def test_generate_dataset_deterministic():
    mm = make_manifold_map(prng_new(2, 0), 4, 6, 8)
    task = _task(d=4)
    a = generate_dataset(prng_new(3, 0), mm, task)
    b = generate_dataset(prng_new(3, 0), mm, task)
    np.testing.assert_array_equal(a.x_unlabelled, b.x_unlabelled)


def test_augment_identity_at_zero_epsilon():
    mm = make_manifold_map(prng_new(4, 0), 3, 5, 6)
    zs = prng_new(4, 1).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=3))
    np.testing.assert_array_equal(aug(zs, xs, prng_new(4, 2)), xs)


def test_augment_stays_on_manifold():
    mm = make_manifold_map(prng_new(5, 0), 3, 5, 6)
    zs = prng_new(5, 1).standard_normal((4, 3))
    rng_a = prng_new(5, 2)
    rng_b = prng_new(5, 2)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.7, k=3))
    out = aug(zs, phi_forward_batch(mm, zs), rng_a)
    # reconstruct the latent perturbation with the twin stream
    omega = rng_b.standard_normal((4, 3))
    np.testing.assert_array_equal(out, phi_forward_batch(mm, zs + 0.7 * omega))


def test_augment_k_restricts_coordinates():
    mm = make_manifold_map(prng_new(6, 0), 10, 6, 6)
    rng_a = prng_new(6, 2)
    rng_b = prng_new(6, 2)
    zs = np.zeros((2, 10))
    Augmenter(mm, AugmentationSpec(epsilon=1.0, k=3))(
        zs, phi_forward_batch(mm, zs), rng_a)
    rng_b.standard_normal((2, 3))  # only three draws per row were consumed
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_augment_rejects_bad_k():
    mm = make_manifold_map(prng_new(7, 0), 3, 4, 5)
    for k in (0, 4):
        with pytest.raises(ValueError):
            Augmenter(mm, AugmentationSpec(epsilon=0.1, k=k))


def test_augment_small_epsilon_linearization():
    mm = make_manifold_map(prng_new(30, 0), 4, 6, 8)
    z = prng_new(30, 1).standard_normal(4)
    x = _phi(mm, z)
    jac = _jac(mm, z)
    omega = prng_new(30, 2).standard_normal(4)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        moved = _phi(mm, z + eps * omega)
        errs.append(np.linalg.norm(moved - x - eps * (jac @ omega)))
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_ambient_augmenter_adds_noise():
    spec = AugmentationSpec(epsilon=0.5, k=1, mode="ambient")
    aug = Augmenter(None, spec)
    xs = np.zeros((4, 3))
    out = aug(xs.copy(), xs, prng_new(12, 0))
    assert out.shape == (4, 3)
    assert np.all(out != 0.0)


def test_output_scale_is_order_one():
    mm = make_manifold_map(prng_new(14, 0), 10, 30, 100)
    zs = prng_new(14, 1).standard_normal((10000, 10))
    xs = phi_forward_batch(mm, zs)
    stds = xs.std(axis=0)
    assert stds.min() > 0.1 and stds.max() < 10.0


def test_dataset_roundtrip(tmp_path):
    mm = make_manifold_map(prng_new(2, 0), 4, 6, 8)
    ds = generate_dataset(prng_new(2, 1), mm, _task(d=4))
    save_dataset(ds, str(tmp_path / "ds"), meta={"seed": 2})
    back = load_dataset(str(tmp_path / "ds"))
    np.testing.assert_array_equal(back.x_labelled, ds.x_labelled)
    np.testing.assert_array_equal(back.y_test, ds.y_test)
    np.testing.assert_array_equal(back.z_unlabelled, ds.z_unlabelled)
