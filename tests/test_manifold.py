import warnings

import numpy as np
import pytest

from manifold_ssl import experiments
from manifold_ssl.experiments import build_world
from manifold_ssl.manifold import (ELU_FLOOR, AugmentationSpec, Augmenter,
                                   elu, elu_layer, elu_layer_vjp, elu_prime,
                                   make_manifold_map, phi_forward_batch,
                                   ManifoldMap, TaskParams)
from manifold_ssl.network import init_network, value_and_grad
from manifold_ssl.numerics import prng_new


def _phi(mm, z):
    return phi_forward_batch(mm, np.asarray(z, dtype=float)[None, :])[0]


def _jac(mm, z):
    # row i of the Jacobian is the unit vector e_i pulled back through it:
    # the map's layer's VJP with v the rows e_i @ w_out
    n = mm.w_out.shape[0]
    return elu_layer_vjp(np.tile(z, (n, 1)), mm.w_in, mm.bias, mm.w_out)


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
    # bit-exact against the np.where forms, allocating, in place and with
    # the slope written beside the value
    t = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e3, -1e3,
                  np.inf, -np.inf, np.nan])
    e = np.exp(np.where(t < ELU_FLOOR, ELU_FLOOR, np.minimum(t, 0.0)))
    want = np.where(t >= 0.0, t, np.where(e - 1.0 < t, t, e - 1.0))
    want_prime = np.where(t >= 0.0, 1.0, e)
    assert want[2:4].tolist() == [1e-300, 0.0] and want[7] == -1.0
    assert want_prime[7] == want_prime[9] == np.exp(ELU_FLOOR) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scratch, out, slope = t.copy(), np.empty_like(t), np.empty_like(t)
        assert elu(scratch, out=out, slope=slope) is out
        in_place = t.copy()
        assert elu_prime(in_place, out=in_place) is in_place
        for got, expected in ((elu(t), want), (out, want),
                              (elu(t, out=np.empty_like(t)), want),
                              (elu_prime(t), want_prime), (slope, want_prime),
                              (in_place, want_prime)):
            assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(scratch, t, equal_nan=True)  # left as it was


def _elu_arguments():
    # magnitudes 1e-300 to 800 of both signs, subnormals, nan and +-inf
    rng = prng_new(31, 0)
    mags = 10.0 ** rng.uniform(-300.0, np.log10(800.0), 200_000)
    subnormal = np.logspace(-323.5, -308.0, 1000)
    t = np.concatenate([mags, -mags, -subnormal, subnormal,
                        5.0 * rng.standard_normal(100_000),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
    return rng.permutation(t)


def test_elu_is_within_an_ulp_of_one_of_expm1():
    # allocating and with out=: t itself for t >= 0, within 2**-52 of
    # expm1(t) and inside [t, 0] below it, non-finite values as expm1 has them
    t = _elu_arguments()
    reference = np.where(t >= 0.0, t, np.expm1(np.minimum(t, 0.0)))
    finite, neg = np.isfinite(t), t < 0.0
    out = np.empty_like(t)
    for got in (elu(t), elu(t, out=out)):
        assert np.all(np.abs(got[finite] - reference[finite]) <= 2.0 ** -52)
        assert np.array_equal(got[~neg], reference[~neg], equal_nan=True)
        assert np.all((t[neg] <= got[neg]) & (got[neg] <= 0.0))
        assert np.array_equal(got[~finite], reference[~finite], equal_nan=True)
    assert np.isnan(out).sum() == 2


def test_elu_slope_is_elu_prime_bitwise():
    t = _elu_arguments()
    slope = np.empty_like(t)
    value = elu(t, slope=slope)
    assert np.array_equal(slope, elu_prime(t), equal_nan=True)
    assert np.array_equal(value, elu(t), equal_nan=True)


def test_elu_kernels_never_underflow():
    # the clipped argument keeps exp off its underflow path, down to
    # pre-activations of -1e4, in the kernels and in a gradient pass
    t = -np.logspace(-3.0, 4.0, 1000)
    p = init_network(prng_new(32, 0), 3, 1000)
    p.b1[:] = t
    xs = prng_new(32, 1).standard_normal((4, 3))
    with np.errstate(under="raise"):
        elu(t)
        elu(t, out=np.empty_like(t), slope=np.empty_like(t))
        elu_prime(t)
        _, grad = value_and_grad(p, xs, lambda f: (float(f.sum()), np.ones_like(f)))
    assert np.all(grad.b1 != 0.0)  # every unit's slope reached the gradient


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
    jac = elu_layer_vjp(np.array([[-1.0]]), mm.w_in, mm.bias,
                        np.array([[1.0]]) @ mm.w_out)
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
    with pytest.raises(ValueError, match=r"expected \(n, 3\), got \(1, 2\)"):
        elu_layer_vjp(np.zeros((1, 2)), mm.w_in, mm.bias, np.zeros((1, 4)))


def _counts(d=4, n_lab=10, n_unl=50, n_test=20, sep=3.0):
    return TaskParams(latent_dim=d, gen_hidden=6, ambient_dim=8, n_labelled=n_lab,
                      n_unlabelled=n_unl, n_test=n_test, separation=sep)


def _replayed(tp, seed):
    """The class mean and the three splits' noise, drawn here from the
    streams build_world documents: an oracle of its draw order."""
    u = prng_new(seed, experiments.STREAM_TASK).standard_normal(tp.latent_dim)
    mu = tp.separation / 2 * u / np.linalg.norm(u)
    rng = prng_new(seed, experiments.STREAM_DATA)
    return mu, [rng.standard_normal((n, tp.latent_dim))
                for n in (tp.n_labelled, tp.n_unlabelled, tp.n_test)]


def test_task_mean_separation():
    # every latent is y mu + noise, with |mu+ - mu-| = |2 mu| the separation;
    # the test latents, which the dataset does not keep, are read off its inputs
    tp = _counts(sep=3.0)
    mm, ds = build_world(tp, 11, "ambient")
    mu, (n_lab, n_unl, n_test) = _replayed(tp, 11)
    assert abs(np.linalg.norm(2 * mu) - 3.0) < 1e-12
    for y, z, noise in ((ds.y_labelled, ds.z_labelled, n_lab),
                        (np.repeat([1.0, -1.0], 25), ds.z_unlabelled, n_unl)):
        np.testing.assert_allclose(z, y[:, None] * mu + noise, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        ds.x_test, phi_forward_batch(mm, ds.y_test[:, None] * mu + n_test),
        rtol=0, atol=1e-13)


def test_task_rejects_odd_or_tiny():
    for counts in (dict(n_labelled=3), dict(n_labelled=0), dict(n_test=3),
                   dict(n_test=0), dict(n_test=-2), dict(n_unlabelled=-5)):
        with pytest.raises(ValueError, match=f"^TaskParams: {next(iter(counts))} must be"):
            TaskParams(**counts)


def test_sample_latent_statistics():
    # latents of each class are N(mu_class, I), mu_class = +-mu
    tp = _counts(d=3, n_lab=40000, n_unl=2, n_test=2)
    _, ds = build_world(tp, 13, "ambient")
    mu, _ = _replayed(tp, 13)
    pos = ds.z_labelled[ds.y_labelled > 0]
    neg = ds.z_labelled[ds.y_labelled < 0]
    assert len(pos) == len(neg) == 20000
    for zs, mu_class in ((pos, mu), (neg, -mu)):
        assert np.linalg.norm(zs.mean(axis=0) - mu_class) < 0.05
        np.testing.assert_allclose(np.cov(zs.T), np.eye(3), atol=0.05)
    gap = np.linalg.norm(pos.mean(axis=0) - neg.mean(axis=0))
    assert abs(gap - 3.0) < 0.05


def test_generate_dataset_counts_and_balance():
    # an odd split puts its extra point in the positive class
    mm, ds = build_world(_counts(n_unl=51), 2, "ambient")
    assert ds.x_labelled.shape == (10, 8)
    assert int((ds.y_labelled > 0).sum()) == 5
    assert ds.x_unlabelled.shape == (51, 8) and ds.z_unlabelled.shape == (51, 4)
    assert int((ds.y_test > 0).sum()) == 10 and ds.x_test.shape == (20, 8)
    # every stored ambient point is exactly the mapped latent
    np.testing.assert_array_equal(ds.x_labelled,
                                  phi_forward_batch(mm, ds.z_labelled))
    np.testing.assert_array_equal(ds.x_unlabelled,
                                  phi_forward_batch(mm, ds.z_unlabelled))
    mu, (_, n_unl, _) = _replayed(_counts(n_unl=51), 2)
    y_unl = np.concatenate([np.ones(26), -np.ones(25)])
    np.testing.assert_allclose(ds.z_unlabelled, y_unl[:, None] * mu + n_unl,
                               rtol=0, atol=1e-14)


def test_generate_dataset_deterministic():
    a = build_world(_counts(), 3, "ambient")[1]
    b = build_world(_counts(), 3, "ambient")[1]
    np.testing.assert_array_equal(a.x_unlabelled, b.x_unlabelled)
    np.testing.assert_array_equal(a.x_test, b.x_test)


def test_augment_identity_at_zero_epsilon():
    mm = make_manifold_map(prng_new(4, 0), 3, 5, 6)
    zs = prng_new(4, 1).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=3))
    np.testing.assert_array_equal(aug(zs, prng_new(4, 2)), xs)


def test_augment_stays_on_manifold():
    mm = make_manifold_map(prng_new(5, 0), 3, 5, 6)
    zs = prng_new(5, 1).standard_normal((4, 3))
    rng_a = prng_new(5, 2)
    rng_b = prng_new(5, 2)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.7, k=3))
    out = aug(zs, rng_a)
    # reconstruct the latent perturbation with the twin stream
    omega = rng_b.standard_normal((4, 3))
    np.testing.assert_array_equal(out, phi_forward_batch(mm, zs + 0.7 * omega))


def test_augment_k_restricts_coordinates():
    mm = make_manifold_map(prng_new(6, 0), 10, 6, 6)
    rng_a = prng_new(6, 2)
    rng_b = prng_new(6, 2)
    zs = np.zeros((2, 10))
    Augmenter(mm, AugmentationSpec(epsilon=1.0, k=3))(zs, rng_a)
    rng_b.standard_normal((2, 3))  # only three draws per row were consumed
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("k", [2, 4, -1])
def test_augment_is_the_zero_padded_draw(k):
    # omega standard normal on the first k coordinates and zero on the rest,
    # k below and at the latent dimension (-1, all of them): the same bits
    # and the same stream, and the points are left as they were
    mm = make_manifold_map(prng_new(8, 0), 4, 6, 5)
    zs = prng_new(8, 1).standard_normal((7, 4))
    before = zs.copy()
    rng_a, rng_b = prng_new(8, 2), prng_new(8, 2)
    out = Augmenter(mm, AugmentationSpec(epsilon=0.4, k=k))(zs, rng_a)
    dims = 4 if k == -1 else k
    omega = np.zeros(zs.shape)
    omega[:, :dims] = rng_b.standard_normal((7, dims))
    assert out.tobytes() == phi_forward_batch(mm, zs + 0.4 * omega).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert np.array_equal(zs, before)


@pytest.mark.parametrize("n, latent, hidden, ambient",
                         [(110, 10, 30, 30), (210, 10, 30, 30), (2000, 10, 30, 100)])
def test_phi_products_equal_the_transposed_view_reference(n, latent, hidden,
                                                          ambient):
    # phi_forward_batch multiplies contiguous copies of the map's transposed
    # weights (its layer's product is checked alone below); end to end, the
    # bits are those of the transposed views
    mm = make_manifold_map(prng_new(12, n), latent, hidden, ambient)
    zs = prng_new(12, n + 1).standard_normal((n, latent))
    want = elu(zs @ mm.w_in.T + mm.bias) @ mm.w_out.T
    assert phi_forward_batch(mm, zs).tobytes() == want.tobytes()


# (rows, d, width) of the learner's layer at test_network's WORKLOAD_SHAPES
# (a pi_train step, a fluid field evaluation, a harmonic step, a test pass)
# and of the map's at two augmenter calls and a 2000-point world
LAYER_SHAPES = [(220, 30, 64), (420, 30, 64), (280, 2, 100), (2000, 30, 64),
                (110, 10, 30), (210, 10, 30), (2000, 10, 30)]


@pytest.mark.parametrize("n, d, width", LAYER_SHAPES)
def test_elu_layer_products_equal_the_transposed_view_reference(n, d, width):
    # elu_layer and elu_layer_vjp multiply a contiguous copy of w.T; the bits
    # are those of the transposed view, so a BLAS that rounds the two
    # orientations apart fails here by name
    rng = prng_new(41, n + d)
    w = rng.standard_normal((width, d)) / np.sqrt(d)
    b = rng.standard_normal(width)
    xs = rng.standard_normal((n, d))
    pre = xs @ w.T + b
    slope = np.empty_like(pre)
    want = elu(pre, slope=slope)
    assert elu_layer(xs, w, b).tobytes() == want.tobytes()
    buffers = [np.empty((n, width)) for _ in range(3)]
    assert elu_layer(xs, w, b, *buffers) is buffers[1]
    for got, expected in zip(buffers, (pre, want, slope)):
        assert got.tobytes() == expected.tobytes()
    for v in (rng.standard_normal(width), rng.standard_normal((n, width))):
        assert (elu_layer_vjp(xs, w, b, v).tobytes()
                == ((elu_prime(pre) * v) @ w).tobytes())


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
    out = aug(xs, prng_new(12, 0))
    assert out.shape == (4, 3)
    assert np.all(out != 0.0)


def test_output_scale_is_order_one():
    mm = make_manifold_map(prng_new(14, 0), 10, 30, 100)
    zs = prng_new(14, 1).standard_normal((10000, 10))
    xs = phi_forward_batch(mm, zs)
    stds = xs.std(axis=0)
    assert stds.min() > 0.1 and stds.max() < 10.0
