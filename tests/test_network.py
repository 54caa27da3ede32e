import re

import numpy as np
import pytest

from manifold_ssl.manifold import (elu, elu_layer, elu_layer_vjp, elu_prime,
                                   make_manifold_map, phi_forward_batch)
from manifold_ssl.network import (NetworkParams, forward_batch, init_network,
                                  value_and_grad)
from manifold_ssl.numerics import finite_diff_grad, prng_new


def _forward(p, x):
    return forward_batch(p, x[None, :])[0]


def _linear(upstream):
    """Loss sum_i upstream[i] * f_i, whose gradient is the backward pass."""
    upstream = np.asarray(upstream, dtype=float)
    return lambda f: (float(upstream @ f), upstream)


def _grad(p, xs, upstream):
    return value_and_grad(p, xs, _linear(upstream))[1]


def test_init_shapes_and_zero_biases():
    p = init_network(prng_new(1, 0), 100, 64)
    assert p.W1.shape == (64, 100)
    assert p.b1.shape == (64,)
    assert p.w2.shape == (64,)
    assert p.b2.shape == ()
    assert p.b2 == 0.0
    assert p.theta.shape == (64 * 100 + 64 + 64 + 1,)
    np.testing.assert_array_equal(p.b1, np.zeros(64))


def test_init_output_scale():
    p = init_network(prng_new(2, 0), 100, 64)
    xs = prng_new(2, 1).standard_normal((1000, 100))
    f = forward_batch(p, xs)
    assert np.max(np.abs(f)) < 10.0


def test_forward_zero_params():
    p = NetworkParams(np.zeros(3 * 2 + 3 + 3 + 1), 3, 2)
    assert _forward(p, np.array([1.0, -1.0])) == 0.0


def test_forward_single_unit_elu():
    p = NetworkParams.from_blocks([[1.0]], [0.0], [1.0], 0.0)
    assert abs(_forward(p, np.array([-1.0])) - (np.exp(-1.0) - 1.0)) < 1e-12


def test_forward_matches_independent_oracle():
    p = init_network(prng_new(3, 0), 5, 4)
    p.b1[:] = prng_new(3, 1).standard_normal(4)
    p.b2[...] = 0.37
    xs = prng_new(3, 2).standard_normal((6, 5))
    f = forward_batch(p, xs)
    for x, fx in zip(xs, f):
        expected = 0.37 + sum(p.w2[i] * elu(p.W1[i] @ x + p.b1[i])
                              for i in range(4))
        assert abs(fx - expected) < 1e-12


def test_forward_batch_matches_single():
    # every row is computed independently of the others in its batch
    p = init_network(prng_new(4, 0), 6, 5)
    xs = prng_new(4, 1).standard_normal((7, 6))
    batch = forward_batch(p, xs)
    for i in range(7):
        assert abs(batch[i] - _forward(p, xs[i])) < 1e-12


def test_forward_batch_workspace_is_bit_identical():
    # one workspace reused across parameter vectors gives the fresh-call bits
    # and keeps the rows buffer and the two hidden buffers of its first call
    p = init_network(prng_new(4, 0), 6, 5)
    q = init_network(prng_new(4, 2), 6, 5)
    xs = prng_new(4, 1).standard_normal((7, 6))
    workspace, kept = {}, None
    for params in (p, q, p):
        assert (forward_batch(params, xs, workspace).tobytes()
                == forward_batch(params, xs).tobytes())
        kept = kept or list(workspace[(7, 6, 5)])
    assert set(workspace) == {(7, 6, 5)} and len(kept) == 3
    assert all(a is b for a, b in zip(workspace[(7, 6, 5)], kept, strict=True))


def test_value_and_grad_workspace_is_bit_identical():
    # one workspace reused across parameter vectors and upstream lengths
    # gives the fresh-call bits and keeps the rows buffer and the three
    # hidden buffers of its first call
    p = init_network(prng_new(4, 0), 6, 5)
    q = init_network(prng_new(4, 2), 6, 5)
    xs = prng_new(4, 1).standard_normal((7, 6))
    workspace, kept = {}, None
    for params, m in ((p, 7), (q, 4), (p, 2)):
        u = prng_new(4, m).standard_normal(m)

        def loss(f):
            return float(u @ f[:m]), u

        reused = value_and_grad(params, xs, loss, workspace)
        fresh = value_and_grad(params, xs, loss)
        assert reused[0] == fresh[0]
        assert reused[1].theta.tobytes() == fresh[1].theta.tobytes()
        kept = kept or list(workspace[(7, 6, 5)])
    assert set(workspace) == {(7, 6, 5)} and len(kept) == 4
    assert all(a is b for a, b in zip(workspace[(7, 6, 5)], kept, strict=True))


def test_one_workspace_serves_both_passes_at_every_shape():
    # forward_batch and value_and_grad share one dict across two row counts
    # and two widths: each layer shape (n, d_in, width) keeps its own rows
    # and hidden buffers, only a shape that ran a backward pass holds the
    # third hidden buffer, and every call gives fresh bits
    nets = [init_network(prng_new(8, w), 6, w) for w in (5, 9)]
    batches = [prng_new(8, 10 + n).standard_normal((n, 6)) for n in (7, 3)]
    u = prng_new(8, 20).standard_normal(7)

    def loss(f):
        return float(u @ f), u

    workspace = {}
    for _ in range(2):
        for params in nets:
            for xs in batches:
                assert (forward_batch(params, xs, workspace).tobytes()
                        == forward_batch(params, xs).tobytes())
                if xs.shape[0] == 7:
                    shared = value_and_grad(params, xs, loss, workspace)
                    fresh = value_and_grad(params, xs, loss)
                    assert shared[0] == fresh[0]
                    assert (shared[1].theta.tobytes()
                            == fresh[1].theta.tobytes())
    assert {key: [np.shape(b) for b in held] for key, held in workspace.items()} == {
        (7, 6, 5): [(7, 7)] + [(7, 5)] * 3, (3, 6, 5): [(3, 7)] + [(3, 5)] * 2,
        (7, 6, 9): [(7, 7)] + [(7, 9)] * 3, (3, 6, 9): [(3, 7)] + [(3, 9)] * 2}


def test_a_rows_buffer_shaped_like_the_hidden_layer_keeps_its_own_key():
    # with d_in + 1 == n_hidden the rows buffer has the hidden buffers'
    # (n, n_hidden) shape: passes alternated in one workspace over two
    # batches give the bytes of fresh calls, and the rows buffer keeps its
    # ones column and stays apart from the hidden buffers
    p = init_network(prng_new(10, 0), 63, 64)
    p.b1[:] = 0.3 * prng_new(10, 1).standard_normal(64)
    batches = [prng_new(10, 2 + i).standard_normal((50, 63)) for i in range(2)]
    upstream = prng_new(10, 4).standard_normal(50)
    workspace = {}
    for xs in batches * 2:
        assert (forward_batch(p, xs, workspace).tobytes()
                == forward_batch(p, xs).tobytes())
        shared = value_and_grad(p, xs, _linear(upstream), workspace)
        fresh = value_and_grad(p, xs, _linear(upstream))
        assert shared[0] == fresh[0]
        assert shared[1].theta.tobytes() == fresh[1].theta.tobytes()
        rows = workspace[(50, 63, 64)][0]
        assert np.all(rows[:, -1] == 1.0) and rows[:, :-1].tobytes() == xs.tobytes()
    assert set(workspace) == {(50, 63, 64)}
    assert len(workspace[(50, 63, 64)]) == 4
    assert all(rows is not held for held in workspace[(50, 63, 64)][1:])


@pytest.mark.parametrize("bad", [np.zeros((3, 7)), np.zeros(6)],
                         ids=["wrong-width", "one-dimensional"])
def test_every_layer_entry_point_rejects_a_bad_input_by_one_rule(bad):
    # forward_batch, value_and_grad, elu_layer, elu_layer_vjp and
    # phi_forward_batch all check their input by the ELU layer's one rule,
    # before a caller's workspace is touched
    p = init_network(prng_new(16, 0), 6, 5)
    mm = make_manifold_map(prng_new(16, 1), 6, 5, 4)
    xs = prng_new(16, 2).standard_normal((3, 6))
    workspace = {}
    value_and_grad(p, xs, _linear(np.ones(3)), workspace)
    before = {key: [(id(b), b.tobytes()) for b in held]
              for key, held in workspace.items()}
    calls = [lambda: forward_batch(p, bad, workspace),
             lambda: value_and_grad(p, bad, _linear(np.ones(1)), workspace),
             lambda: elu_layer(bad, p.W1, p.b1, workspace),
             lambda: elu_layer(bad, p.W1, p.b1, workspace, slope=True),
             lambda: elu_layer_vjp(bad, p.W1, p.b1, p.w2),
             lambda: phi_forward_batch(mm, bad)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=re.escape(f"expected (n, 6), got {bad.shape}")):
            call()
        assert {key: [(id(b), b.tobytes()) for b in held]
                for key, held in workspace.items()} == before


def _transposed_view_pass(p, xs, upstream):
    """forward_batch's outputs and value_and_grad's gradient under the loss
    sum_i upstream[i] f_i, with the first-layer product over the transposed
    view W1.T and the upstream on the gradient rows' inputs."""
    pre = xs @ p.W1.T
    pre += p.b1
    slope = np.empty_like(pre)
    hidden = elu(pre, slope=slope)
    m = len(upstream)
    xu = xs[:m] * upstream[:, None]
    grad = NetworkParams.from_blocks((slope[:m].T @ xu) * p.w2[:, None],
                                     (upstream @ slope[:m]) * p.w2,
                                     hidden[:m].T @ upstream, upstream.sum())
    return hidden @ p.w2 + p.b2, grad


# (rows, d_in, hidden, gradient rows) of a pi_train step, a fluid field
# evaluation, a harmonic step and a 2000-point test pass
WORKLOAD_SHAPES = [(220, 30, 64, 120), (420, 30, 64, 220), (280, 2, 100, 180),
                   (2000, 30, 64, 2000)]


@pytest.mark.parametrize("n, d, h, m", WORKLOAD_SHAPES)
def test_first_layer_products_equal_the_transposed_view_reference(n, d, h, m):
    # the passes multiply a contiguous copy of W1.T (manifold.elu_layer,
    # checked alone in test_manifold); end to end, the bits are those of the
    # transposed view
    for seed in range(3):
        rng = prng_new(40 + seed, n)
        p = init_network(rng, d, h)
        p.b1[:] = 0.3 * rng.standard_normal(h)
        p.b2[...] = rng.standard_normal()
        xs = rng.standard_normal((n, d))
        upstream = rng.standard_normal(m)
        want_f, want_grad = _transposed_view_pass(p, xs, upstream)
        assert forward_batch(p, xs, {}).tobytes() == want_f.tobytes()
        value, grad = value_and_grad(
            p, xs, lambda f: (float(upstream @ f[:m]), upstream), {})
        assert value == float(upstream @ want_f[:m])
        for name in ("W1", "b1", "w2", "b2"):
            assert getattr(grad, name).tobytes() == getattr(want_grad, name).tobytes()


def _gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative forward
    error bound of a k-term dot product."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _workload_draw(seed, n, d, h):
    rng = prng_new(43 + seed, n)
    p = init_network(rng, d, h)
    p.b1[:] = 0.3 * rng.standard_normal(h)
    return p, rng.standard_normal((n, d)), rng


@pytest.mark.parametrize("n, d, h, m", WORKLOAD_SHAPES)
def test_first_layer_gradients_stay_within_the_dot_product_error_bound(n, d, h, m):
    # value_and_grad scales the gradient rows' inputs by the upstream, not
    # the slope: each W1 and b1 entry is an m-term dot product, and it lies
    # within gamma_m of the slope-scaled one times the sum of the terms'
    # magnitudes, under half of what two such sums may differ by
    for seed in range(3):
        p, xs, rng = _workload_draw(seed, n, d, h)
        u = rng.standard_normal(m)
        workspace = {}
        grad = value_and_grad(p, xs, lambda f: (float(u @ f[:m]), u), workspace)[1]
        slope_u = elu_prime(workspace[(n, d, h)][1][:m]) * u[:, None]
        w2 = np.abs(p.w2)
        for got, old, magnitude in (
                (grad.W1, (slope_u.T @ xs[:m]) * p.w2[:, None],
                 (np.abs(slope_u).T @ np.abs(xs[:m])) * w2[:, None]),
                (grad.b1, slope_u.sum(axis=0) * p.w2,
                 np.abs(slope_u).sum(axis=0) * w2)):
            assert np.all(np.abs(got - old) <= _gamma(m) * magnitude)


@pytest.mark.parametrize("n, d, h", [shape[:3] for shape in WORKLOAD_SHAPES]
                         + [(1000, 2, 100)])
def test_input_gradient_stays_within_the_dot_product_error_bound(n, d, h):
    # the learner's input gradient (and the harmonic energy's 1000-point
    # pass) folds w2 into W1's rows, not into the slope: each entry is an
    # h-term dot product within gamma_h of the slope-scaled one
    for seed in range(3):
        p, xs, _ = _workload_draw(seed, n, d, h)
        workspace = {}
        elu_layer(xs, p.W1, p.b1, workspace)
        slope = elu_prime(workspace[(n, d, h)][1])
        old = (slope * p.w2) @ p.W1
        magnitude = (slope * np.abs(p.w2)) @ np.abs(p.W1)
        assert np.all(np.abs(_input_gradient(p, xs) - old) <= _gamma(h) * magnitude)


def test_value_and_grad_leaves_the_workspace_slope_unscaled():
    # the backward pass reads the slope buffer and writes nothing there: it
    # holds elu's slope of the pre-activation, the gradient rows included
    p, xs, rng = _workload_draw(0, 280, 2, 100)
    u = rng.standard_normal(180)
    workspace = {}
    value_and_grad(p, xs, lambda f: (float(u @ f[:180]), u), workspace)
    _, pre, hidden, slope = workspace[(280, 2, 100)]
    want = np.empty_like(pre)
    assert hidden.tobytes() == elu(pre, slope=want).tobytes()
    assert slope.tobytes() == want.tobytes()


def test_a_batch_shaped_like_the_w1_gradient_shares_a_workspace_with_it():
    # a 30-row batch at width 64 has the (30, 64) shape of W1.T for 30
    # inputs: calls at that shape and others, in one workspace, give the
    # bytes of fresh calls, and no returned gradient changes afterwards
    p = init_network(prng_new(9, 0), 30, 64)
    p.b1[:] = 0.3 * prng_new(9, 1).standard_normal(64)
    batches = [prng_new(9, 10 + n).standard_normal((n, 30)) for n in (30, 64, 30)]
    workspace, kept = {}, []
    for xs in batches + batches[::-1]:
        upstream = prng_new(9, 20 + len(xs)).standard_normal(len(xs))
        assert (forward_batch(p, xs, workspace).tobytes()
                == forward_batch(p, xs).tobytes())
        shared = value_and_grad(p, xs, _linear(upstream), workspace)
        fresh = value_and_grad(p, xs, _linear(upstream))
        assert shared[0] == fresh[0]
        assert shared[1].theta.tobytes() == fresh[1].theta.tobytes()
        kept.append((shared[1], fresh[1].theta))
    assert all(grad.theta.tobytes() == want.tobytes() for grad, want in kept)


def test_value_and_grad_value_is_loss_of_forward():
    p = init_network(prng_new(15, 0), 5, 4)
    xs = prng_new(15, 1).standard_normal((3, 5))
    value, _ = value_and_grad(p, xs, lambda f: (float(np.sum(f ** 2)), 2 * f))
    assert value == float(np.sum(forward_batch(p, xs) ** 2))


def test_backward_zero_upstream():
    p = init_network(prng_new(5, 0), 4, 3)
    g = _grad(p, prng_new(5, 1).standard_normal((1, 4)), [0.0])
    np.testing.assert_array_equal(g.W1, np.zeros((3, 4)))
    np.testing.assert_array_equal(g.theta, np.zeros_like(p.theta))


def test_backward_output_bias_is_upstream():
    p = init_network(prng_new(6, 0), 4, 3)
    g = _grad(p, prng_new(6, 1).standard_normal((1, 4)), [1.7])
    assert g.b2 == 1.7


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_finite_differences(seed):
    rng = prng_new(seed, 100)
    p = init_network(rng, 5, 4)
    p.b1[:] = 0.3 * rng.standard_normal(4)
    p.b2[...] = rng.standard_normal()
    xs = rng.standard_normal((3, 5))
    upstream = rng.standard_normal(3)
    analytic = _grad(p, xs, upstream).theta
    fd = finite_diff_grad(
        lambda v: float(upstream @ forward_batch(p.like(v), xs)), p.theta,
        h=1e-5)
    assert np.linalg.norm(analytic - fd) / np.linalg.norm(analytic) < 1e-6


def test_backward_batch_sums_items():
    p = init_network(prng_new(7, 0), 5, 4)
    xs = prng_new(7, 1).standard_normal((3, 5))
    us = np.array([0.5, -1.0, 2.0])
    batch = _grad(p, xs, us)
    acc = sum(_grad(p, x[None, :], [u]).theta for x, u in zip(xs, us))
    np.testing.assert_allclose(batch.theta, acc, atol=1e-12)


def test_value_and_grad_rejects_bad_upstream():
    # one upstream per leading row at most, as a vector; a shorter upstream
    # is allowed and leaves the trailing rows forward only
    p = init_network(prng_new(16, 0), 3, 2)
    for upstream in (np.zeros(5), np.zeros((4, 1)), np.zeros((2, 2)),
                     np.float64(0.0)):
        with pytest.raises(ValueError, match="one upstream per leading row"):
            value_and_grad(p, np.zeros((4, 3)), lambda f: (0.0, upstream))


def test_value_and_grad_trailing_rows_are_forward_only():
    p = init_network(prng_new(17, 0), 5, 4)
    p.b1[:] = 0.3 * prng_new(17, 2).standard_normal(4)
    xs = prng_new(17, 1).standard_normal((7, 5))
    upstream = prng_new(17, 3).standard_normal(3)
    seen = []

    def loss(f):
        seen.append(f)
        return float(upstream @ f[:3]), upstream

    value, grad = value_and_grad(p, xs, loss)
    lead_value, lead = value_and_grad(p, xs[:3], _linear(upstream))
    np.testing.assert_allclose(grad.theta, lead.theta, rtol=1e-14, atol=0)
    assert abs(value - lead_value) <= 1e-14 * abs(lead_value)
    # loss saw every row's output, the trailing ones included
    np.testing.assert_allclose(seen[0], forward_batch(p, xs), rtol=1e-14)
    # no upstream at all: every row forward only, a zero gradient
    _, none = value_and_grad(p, xs, lambda f: (0.0, np.zeros(0)))
    np.testing.assert_array_equal(none.theta, np.zeros_like(p.theta))


def test_network_over_coordinates_matches_the_dense_network():
    # 40 rows of rank 3 in 9 dimensions, the last 15 forward only: the
    # network drawn over 9 inputs and started over the rows' coordinates in
    # an orthonormal basis of their span, first layer W1 @ basis, gives the
    # dense pass's value, outputs and b1, w2, b2 gradient, and its W1
    # gradient times basis.T is the dense W1 gradient
    rng = prng_new(26, 0)
    factor = rng.standard_normal((3, 9))
    rows = rng.standard_normal((40, 3)) @ factor
    basis = np.linalg.qr(factor.T)[0]
    coords = rows @ basis
    p = init_network(prng_new(26, 1), 9, 5)
    reduced = init_network(prng_new(26, 1), 9, 5, basis)
    assert reduced.W1.shape == (5, 3)
    np.testing.assert_array_equal(reduced.W1, p.W1 @ basis)
    np.testing.assert_array_equal(reduced.theta[reduced.W1.size:],
                                  p.theta[p.W1.size:])
    for net in (p, reduced):
        net.b1[:] = 0.3 * prng_new(26, 2).standard_normal(5)
        net.b2[...] = 0.3
    upstream = rng.standard_normal(25)
    seen = []

    def loss(f):
        seen.append(f.copy())
        return float(upstream @ f[:25] + f[25:].sum()), upstream

    value, grad = value_and_grad(reduced, coords, loss)
    dense_value, dense = value_and_grad(p, rows, loss)
    np.testing.assert_allclose(value, dense_value, rtol=1e-12)
    np.testing.assert_allclose(seen[0], seen[1], rtol=1e-12)
    atol = 1e-12 * np.abs(dense.theta).max()
    np.testing.assert_allclose(grad.W1 @ basis.T, dense.W1, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(grad.theta[grad.W1.size:], dense.theta[dense.W1.size:],
                               rtol=1e-12, atol=atol)
    with pytest.raises(ValueError, match=r"expected \(n, 3\), got \(40, 9\)"):
        value_and_grad(reduced, rows, loss)


def _input_gradient(p, xs):
    """Rows of the learner's input gradient: its layer's VJP with v = w2."""
    return elu_layer_vjp(xs, p.W1, p.b1, p.w2)


def test_input_jacobian_linear_region():
    p = init_network(prng_new(8, 0), 4, 3)
    p.b1[:] = 5.0  # all pre-activations positive for small x
    xs = 0.01 * prng_new(8, 1).standard_normal((2, 4))
    np.testing.assert_allclose(_input_gradient(p, xs),
                               np.tile(p.W1.T @ p.w2, (2, 1)), atol=1e-12)


def test_input_jacobian_zero_output_layer():
    p = init_network(prng_new(9, 0), 4, 3)
    p.w2[:] = 0.0
    np.testing.assert_array_equal(_input_gradient(p, np.ones((1, 4))),
                                  np.zeros((1, 4)))


def test_input_jacobian_matches_finite_differences():
    p = init_network(prng_new(10, 0), 6, 5)
    p.b1[:] = 0.2 * prng_new(10, 1).standard_normal(5)
    xs = prng_new(10, 2).standard_normal((3, 6))
    jac = _input_gradient(p, xs)
    for x, row in zip(xs, jac):
        fd = finite_diff_grad(lambda v: _forward(p, v), x, h=1e-6)
        assert np.linalg.norm(fd - row) / np.linalg.norm(fd) < 1e-6


def test_output_layer_homogeneity():
    p = init_network(prng_new(11, 0), 5, 4)
    p.b2[...] = 0.3
    x = prng_new(11, 1).standard_normal(5)
    scaled = NetworkParams.from_blocks(p.W1, p.b1, 3.0 * p.w2, 3.0 * p.b2)
    assert abs(_forward(scaled, x) - 3.0 * _forward(p, x)) < 1e-12


def test_vector_roundtrip():
    # theta is W1 row-major, b1, w2, b2, and the blocks are views onto it
    W1 = prng_new(12, 0).standard_normal((4, 5))
    b1, w2 = np.arange(4.0), -np.arange(4.0)
    p = NetworkParams.from_blocks(W1, b1, w2, -0.4)
    np.testing.assert_array_equal(p.theta[:20], W1.ravel())
    np.testing.assert_array_equal(p.theta[20:24], b1)
    np.testing.assert_array_equal(p.theta[24:28], w2)
    assert p.theta[28] == -0.4
    p.theta[:] = 2.0 * p.theta
    np.testing.assert_array_equal(p.W1, 2.0 * W1)
    assert p.b2 == -0.8
    back = p.like(p.theta.copy())
    np.testing.assert_array_equal(back.W1, p.W1)
    assert back.b2 == p.b2


def test_views_cannot_be_rebound():
    p = init_network(prng_new(17, 0), 3, 2)
    theta = p.theta
    p.theta += 1.0  # in-place update keeps the same vector
    assert p.theta is theta
    with pytest.raises(AttributeError):
        p.b1 = np.zeros(2)
    with pytest.raises(ValueError):
        NetworkParams(np.zeros(5), 2, 3)


def test_dimension_mismatch_errors():
    p = init_network(prng_new(13, 0), 5, 4)
    with pytest.raises(ValueError):
        forward_batch(p, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        forward_batch(p, np.zeros(5))
    with pytest.raises(ValueError):
        _grad(p, np.zeros((1, 6)), [1.0])
    with pytest.raises(ValueError, match=r"expected \(n, 5\), got \(1, 3\)"):
        _input_gradient(p, np.zeros((1, 3)))

