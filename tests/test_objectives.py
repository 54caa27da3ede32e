import numpy as np
import pytest

from manifold_ssl import network, objectives
from manifold_ssl.manifold import (AugmentationSpec, Augmenter,
                                   make_manifold_map, phi_forward_batch)
from manifold_ssl.network import NetworkParams, init_network
from manifold_ssl.numerics import finite_diff_grad, prng_new
from manifold_ssl.objectives import (dirichlet_energy, gradient_check_suite,
                                     logistic_loss, squared_loss, step_layout)


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


def test_sigmoid_never_underflows_and_keeps_its_values_above_the_floor():
    # exp(-|t|) underflows for t below about -708, on numpy's slow path;
    # floored at ELU_FLOOR = -600 it never does, and for t >= -600 the value
    # is the unfloored formula's bit for bit
    mags = np.logspace(-3, 4, 2001)
    t = np.concatenate([mags, -mags, [1e308, -1e308, -600.0, 0.0]])
    with np.errstate(under="raise"):
        s = objectives._sigmoid(t)
        with pytest.raises(FloatingPointError, match="underflow"):
            np.exp(-np.abs(t))
    e = np.exp(-np.abs(t))
    above = t >= -600.0
    assert np.array_equal(s[above], (np.where(t >= 0, 1.0, e) / (1.0 + e))[above])
    assert np.all(s[~above] == np.exp(-600.0))


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
    (value, _), grads = network.value_and_grad(
        p, *step_layout(xs, network.forward_batch(p, xs), "squared"))
    assert value == 0.0
    assert np.all(grads.theta == 0.0)


def test_supervised_batch_duplication_invariant():
    p = _params(2)
    xs = prng_new(2, 51).standard_normal((3, 5))
    ys = np.array([1.0, -1.0, 1.0])
    (single_value, _), single = network.value_and_grad(p, *step_layout(xs, ys))
    (doubled_value, _), doubled = network.value_and_grad(
        p, *step_layout(np.vstack([xs, xs]), np.tile(ys, 2)))
    assert abs(single_value - doubled_value) < 1e-12
    np.testing.assert_allclose(single.theta, doubled.theta, atol=1e-12)


def test_supervised_batch_rejects_empty():
    p = _params(3)
    with pytest.raises(ValueError):
        network.value_and_grad(p, *step_layout(np.zeros((0, 5)), np.zeros(0)))


def _sup_batch(seed, d_in=5):
    xs = prng_new(seed, 59).standard_normal((2, d_in))
    return xs, np.array([1.0, -1.0])


def _step(p, xs, ys, populations, lam, teacher_out=None):
    """((supervised value, consistency value), grads) of one step: its
    step_layout, then one value_and_grad pass."""
    return network.value_and_grad(p, *step_layout(xs, ys, "logistic",
                                                  populations, lam, teacher_out))


def _inputs(populations):
    return np.concatenate([x for x, _ in populations])


def _consistency(p, populations, target=None, lam=1.0):
    """(consistency value, lam times its gradient) of the step objective:
    the fused gradient less the supervised one, over a fixed labelled batch,
    with targets from target's forward pass (by default the same pass)."""
    xs, ys = _sup_batch(0, p.d_in)
    teacher_out = None if target is None else network.forward_batch(
        target, _inputs(populations))
    (_, value), grads = _step(p, xs, ys, populations, lam, teacher_out)
    return value, grads.theta - _step(p, xs, ys, (), 0.0)[1].theta


def test_step_objective_targets_default_to_the_learner():
    # without teacher outputs, the targets are the learner's own outputs on
    # the population inputs, run in the same pass
    p = _params(4)
    xs, ys = _sup_batch(0, p.d_in)
    populations = [(xs, xs + 0.1)]
    default = _step(p, xs, ys, populations, 1.0)
    given = _step(p, xs, ys, populations, 1.0,
                  network.forward_batch(p, _inputs(populations)))
    assert default[0][1] > 0.0
    np.testing.assert_allclose(default[0], given[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(default[1].theta, given[1].theta, rtol=1e-12,
                               atol=1e-12)


def test_consistency_zero_when_unperturbed():
    p = _params(4)
    xs = prng_new(4, 51).standard_normal((4, 5))
    value, grads = _consistency(p, [(xs, xs)])
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_consistency_constant_network():
    p = _params(5)
    p.w2[:] = 0.0  # output depends on b2 only
    xs = prng_new(5, 51).standard_normal((4, 5))
    xs_aug = xs + prng_new(5, 52).standard_normal(xs.shape)
    value, _ = _consistency(p, [(xs, xs_aug)])
    assert value == 0.0


def test_consistency_linear_region_algebra():
    # single unit biased into the linear branch: F(x) = w2 * (W1 x + b1)
    p = NetworkParams.from_blocks([[0.7, -0.2]], [5.0], [1.3], 0.0)
    x = np.array([0.1, 0.2])
    x_aug = np.array([0.3, -0.1])
    value, _ = _consistency(p, [(x[None, :], x_aug[None, :])])
    w_eff = 1.3 * np.array([0.7, -0.2])
    assert abs(value - (w_eff @ (x_aug - x)) ** 2) < 1e-12


def test_stop_gradient_contract():
    # same-pass targets are constants: the gradient equals the one against a
    # separate target network that holds the same parameters
    p = _params(6)
    xs = prng_new(6, 51).standard_normal((4, 5))
    xs_aug = xs + 0.2 * prng_new(6, 52).standard_normal(xs.shape)
    a_value, a = _consistency(p, [(xs, xs_aug)])
    copy = p.like(p.theta.copy())
    b_value, b = _consistency(p, [(xs, xs_aug)], target=copy)
    assert a_value == b_value
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    # other targets change the value
    copy.b2[...] += 1.0
    shifted, _ = _consistency(p, [(xs, xs_aug)], target=copy)
    assert shifted != b_value


def _world(seed, d=3, h=4, amb=5):
    mm = make_manifold_map(prng_new(seed, 60), d, h, amb)
    p = _params(seed, d_in=amb)
    return mm, p


def _drawn(augmenter, rng, pairs, draws=1):
    """(xs, xs_aug) per (points, xs) pair, points being the rows the
    augmenter moves; the draws of one pair stacked in turn, all rounds of
    one pair first."""
    return [(xs, np.vstack([augmenter(points, rng) for _ in range(draws)]))
            for points, xs in pairs]


def test_balanced_additivity_identical_batches():
    mm, p = _world(7)
    zs = prng_new(7, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.1 * prng_new(7, 62).standard_normal(xs.shape)
    value, grads = _consistency(p, [(xs, fixed), (xs, fixed)])
    one_value, one = _consistency(p, [(xs, fixed)])
    assert abs(value - 2.0 * one_value) < 1e-12
    np.testing.assert_allclose(grads, 2.0 * one, atol=1e-12)


def test_balanced_zero_at_zero_epsilon():
    mm, p = _world(8)
    zs = prng_new(8, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.0, k=3))
    populations = _drawn(aug, prng_new(8, 62), [(zs, xs), (zs, xs)])
    value, _ = _consistency(p, populations)
    assert value == 0.0


def test_balanced_requires_both_populations():
    mm, p = _world(9)
    zs = prng_new(9, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.1, k=3))
    populations = _drawn(aug, prng_new(9, 62), [(zs, xs), (zs[:0], xs[:0])])
    with pytest.raises(ValueError, match="nonempty"):
        _consistency(p, populations)


def test_balanced_reshuffle_invariance():
    mm, p = _world(10)
    zs = prng_new(10, 61).standard_normal((5, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.1 * prng_new(10, 62).standard_normal(xs.shape)
    lookup = {tuple(np.round(x, 12)): fx for x, fx in zip(xs, fixed)}

    def keyed_augmenter(x, rng):
        return np.array([lookup[tuple(np.round(row, 12))] for row in x])

    perm = prng_new(10, 63).permutation(5)
    a_value, a = _consistency(
        p, _drawn(keyed_augmenter, None, [(xs, xs), (xs, xs)]))
    b_value, b = _consistency(
        p, _drawn(keyed_augmenter, None, [(xs[perm], xs[perm]), (xs, xs)]))
    assert abs(a_value - b_value) < 1e-12
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_balanced_mc_converges_to_jacobian_prediction():
    # many draws at small epsilon approach the exact small-amount limit
    mm, p = _world(11)
    z = prng_new(11, 61).standard_normal(3)
    x = phi_forward_batch(mm, z[None, :])[0]
    eps = 1e-3
    aug = Augmenter(mm, AugmentationSpec(epsilon=eps, k=3))
    pair = (z[None, :], x[None, :])
    populations = _drawn(aug, prng_new(11, 62), [pair, pair], draws=10000)
    value, _ = _consistency(p, populations)
    predicted = 2.0 * eps ** 2 * dirichlet_energy(p, mm, z[None], 3)
    assert abs(value - predicted) / predicted < 0.02


def _decomposed_step(p, xs, ys, populations, lam, target):
    """The step objective as separate passes: the supervised gradient plus
    lam times one consistency gradient per population and draw, each from
    its own value_and_grad against targets from their own forward pass."""
    n = xs.shape[0]
    sup_value, grads = network.value_and_grad(
        p, xs, lambda f: (logistic_loss(f, ys)[0].mean(),
                          logistic_loss(f, ys)[1] / n))
    value, total = 0.0, grads.theta.copy()
    for x, aug in populations:
        targets = network.forward_batch(target, x)
        draws = aug.shape[0] // x.shape[0]
        for block in np.split(aug, draws):
            weight = 1.0 / (draws * x.shape[0])
            v, g = network.value_and_grad(
                p, block, lambda f: (weight * float((f - targets) @ (f - targets)),
                                     2.0 * weight * (f - targets)))
            value += v
            total += lam * g.theta
    return sup_value, value, total


@pytest.mark.parametrize("draws", [1, 2])
@pytest.mark.parametrize("method", ["pi_model", "mean_teacher"])
def test_step_gradient_equals_separate_passes(method, draws):
    mm, p = _world(20)
    rng = prng_new(20, 61)
    zs_lab, zs_unl = rng.standard_normal((3, 3)), rng.standard_normal((7, 3))
    xs = phi_forward_batch(mm, zs_lab)
    ys = np.array([1.0, -1.0, 1.0])
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.3, k=2))
    populations = _drawn(aug, rng, [(zs_lab, xs),
                                    (zs_unl, phi_forward_batch(mm, zs_unl))],
                         draws)
    target = p if method == "pi_model" else p.like(
        p.theta + 0.05 * rng.standard_normal(p.theta.shape))
    teacher_out = None if target is p else network.forward_batch(
        target, _inputs(populations))
    (sup, cons), grads = _step(p, xs, ys, populations, 2.5, teacher_out)
    old_sup, old_cons, old = _decomposed_step(p, xs, ys, populations, 2.5,
                                              target)
    assert abs(sup - old_sup) <= 1e-12 * abs(old_sup)
    assert abs(cons - old_cons) <= 1e-12 * old_cons
    assert np.linalg.norm(grads.theta - old) <= 1e-12 * np.linalg.norm(old)
    # the consistency term carries weight in the gradient being compared
    assert np.linalg.norm(old - _step(p, xs, ys, (), 0.0)[1].theta) > (
        1e-3 * np.linalg.norm(old))


@pytest.mark.parametrize("teacher", [False, True])
def test_a_layout_evaluated_at_two_points_gives_what_fresh_layouts_give(teacher):
    # step_loss writes its upstream into one buffer its layout owns: one
    # layout evaluated at p, q and p again returns, bit for bit, what a
    # fresh layout returns at each, and no earlier gradient changes
    mm, p = _world(22)
    q = p.like(p.theta + 0.1 * prng_new(22, 70).standard_normal(p.theta.shape))
    rng = prng_new(22, 61)
    zs_lab, zs_unl = rng.standard_normal((3, 3)), rng.standard_normal((5, 3))
    xs, ys = phi_forward_batch(mm, zs_lab), np.array([1.0, -1.0, 1.0])
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.3, k=2))
    populations = _drawn(aug, rng, [(zs_lab, xs),
                                    (zs_unl, phi_forward_batch(mm, zs_unl))], 2)
    teacher_out = network.forward_batch(q, _inputs(populations)) if teacher else None
    layout = step_layout(xs, ys, "logistic", populations, 1.5, teacher_out)
    results = []
    for params in (p, q, p):
        (value, grads) = network.value_and_grad(params, *layout)
        (want, want_grads) = network.value_and_grad(params, *step_layout(
            xs, ys, "logistic", populations, 1.5, teacher_out))
        assert value == want
        assert grads.theta.tobytes() == want_grads.theta.tobytes()
        results.append((grads, want_grads.theta))
    assert all(g.theta.tobytes() == w.tobytes() for g, w in results)


def test_logistic_loss_without_its_derivative_has_the_same_value():
    f = prng_new(5, 1).standard_normal(50) * 30.0
    y = np.where(prng_new(5, 2).standard_normal(50) > 0, 1.0, -1.0)
    value, dvalue = logistic_loss(f, y, derivative=False)
    assert dvalue is None
    assert value.tobytes() == logistic_loss(f, y)[0].tobytes()


def _appended_layout(xs, ys, populations, lam, teacher_out=None):
    """The step layout with every population's targets appended: without
    teacher_out, each population's inputs, the labelled batch's included,
    are forward-only target rows after the draws."""
    n_sup = len(xs)
    rows = [xs] + [aug for _, aug in populations]
    n_grad = sum(r.shape[0] for r in rows)
    if teacher_out is None:
        rows += [x for x, _ in populations]

    def step_loss(f):
        values, dvalues = logistic_loss(f[:n_sup], ys)
        targets = f[n_grad:] if teacher_out is None else teacher_out
        upstream, consistency, start, t0 = [dvalues / n_sup], 0.0, n_sup, 0
        for x, aug in populations:
            n, n_aug = x.shape[0], aug.shape[0]
            r = (f[start:start + n_aug].reshape(-1, n) - targets[t0:t0 + n]).ravel()
            consistency += float(r @ r) / n_aug
            upstream.append((2.0 * lam / n_aug) * r)
            start, t0 = start + n_aug, t0 + n
        return (float(values.mean()), consistency), np.concatenate(upstream)

    return np.concatenate(rows), step_loss


@pytest.mark.parametrize("draws", [1, 2])
def test_pi_layout_takes_labelled_targets_from_the_supervised_rows(draws):
    # the labelled population, whose inputs are the supervised batch itself,
    # adds no rows, and the step is the one with its targets appended
    mm, p = _world(21)
    rng = prng_new(21, 61)
    zs_lab, zs_unl = rng.standard_normal((3, 3)), rng.standard_normal((7, 3))
    xs, ys = phi_forward_batch(mm, zs_lab), np.array([1.0, -1.0, 1.0])
    aug = Augmenter(mm, AugmentationSpec(epsilon=0.3, k=2))
    populations = _drawn(aug, rng, [(zs_lab, xs),
                                    (zs_unl, phi_forward_batch(mm, zs_unl))],
                         draws)
    rows, step_loss = step_layout(xs, ys, "logistic", populations, 2.5)
    assert rows.shape[0] == 3 + draws * (3 + 7) + 7
    (value, grads), (old_value, old_grads) = (
        network.value_and_grad(p, *layout) for layout in (
            (rows, step_loss), _appended_layout(xs, ys, populations, 2.5)))
    assert value[1] > 0.0
    np.testing.assert_allclose(value, old_value, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grads.theta, old_grads.theta, rtol=1e-12, atol=0)
    # the mean teacher's targets come from its own pass: its layout is the
    # appended one, rows and loss alike
    teacher_out = network.forward_batch(
        p.like(p.theta + 0.05 * rng.standard_normal(p.theta.shape)),
        _inputs(populations))
    rows, step_loss = step_layout(xs, ys, "logistic", populations, 2.5, teacher_out)
    old_rows, old_loss = _appended_layout(xs, ys, populations, 2.5, teacher_out)
    assert np.array_equal(rows, old_rows)
    f = network.forward_batch(p, rows)
    (new_value, new_up), (old_value, old_up) = step_loss(f), old_loss(f)
    assert new_value == old_value and np.array_equal(new_up, old_up)


def test_jacobian_penalty_identity_map_linear_network():
    # trivial embedding, linear response: penalty is the squared weight norm
    d = 4
    mm = make_manifold_map(prng_new(12, 60), d, 6, d)
    mm.w_in = np.eye(6, d)
    mm.w_out = np.eye(d, 6)
    mm.bias = np.full(6, 10.0)  # linear branch, slope one
    w = prng_new(12, 61).standard_normal(d)
    p = NetworkParams.from_blocks(w[None, :], [100.0], [1.0], 0.0)
    full = dirichlet_energy(p, mm, np.zeros((1, d)), d)
    assert abs(full - w @ w) < 1e-9
    partial = dirichlet_energy(p, mm, np.zeros((1, d)), 2)
    assert abs(partial - (w[0] ** 2 + w[1] ** 2)) < 1e-9


def test_jacobian_penalty_zero_output_layer():
    mm, p = _world(13)
    p.w2[:] = 0.0
    assert dirichlet_energy(p, mm, np.zeros((1, 3)), 3) == 0.0


def _consistency_over_eps2(p, mm, zs, k, eps, draws, rng):
    """Consistency of `draws` manifold draws around each row of zs, over
    eps^2, through the training path: Augmenter draws scored by the step's
    layout as the draws of one population."""
    xs_aug = Augmenter(mm, AugmentationSpec(epsilon=eps, k=k))(
        np.tile(zs, (draws, 1)), rng)
    value, _ = _consistency(p, [(phi_forward_batch(mm, zs), xs_aug)])
    return value / eps ** 2


def test_jacobian_penalty_mc_agrees_with_exact():
    # claim (a): the small-eps consistency term is the Jacobian penalty, the
    # batch Dirichlet energy over the perturbed coordinates
    mm, p = _world(14)
    z = prng_new(14, 61).standard_normal((1, 3))
    exact = dirichlet_energy(p, mm, z, 3)
    mc = _consistency_over_eps2(p, mm, z, 3, 1e-3, 100000, prng_new(14, 62))
    assert abs(mc - exact) / exact < 0.02
    zs = prng_new(14, 63).standard_normal((4, 3))
    for k in (1, 2):
        exact = dirichlet_energy(p, mm, zs, k)
        mc = _consistency_over_eps2(p, mm, zs, k, 1e-3, 25000, prng_new(14, 64))
        assert abs(mc - exact) / exact < 0.02


def test_jacobian_penalty_mc_bias_shrinks_with_epsilon():
    # common draws for every epsilon, so the sampling noise cancels and the
    # deviation from the linearized (epsilon = 1e-6) estimate is the bias
    mm, p = _world(15)
    z = prng_new(15, 61).standard_normal((1, 3))

    def mc(eps):
        return _consistency_over_eps2(p, mm, z, 3, eps, 20000, prng_new(15, 62))

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
    # the map's first k coordinates, then the identity map's (the harmonic
    # study's)
    for mmap, params, k in ((mm, p, None), (mm, p, 1), (mm, p, 2),
                            (None, _params(18, d_in=3), None)):
        chain = dirichlet_energy(params, mmap, zs, k)
        probed = objectives._fd_dirichlet_energy(params, mmap, zs, 1e-6, k)
        assert abs(chain - probed) / chain < 1e-6


@pytest.mark.parametrize("zs, k, named", [
    (np.zeros((0, 3)), None, "nonempty"),
    (np.zeros((2, 3)), 0, r"k must be in \[1, 3\], got 0"),
    (np.zeros((2, 3)), 4, r"k must be in \[1, 3\], got 4"),
], ids=["empty-batch", "k-zero", "k-above-latent-dim"])
def test_dirichlet_energy_rejects_empty_batch_and_k_out_of_range(zs, k, named):
    mm, p = _world(18)
    with pytest.raises(ValueError, match=named):
        dirichlet_energy(p, mm, zs, k)


def test_dirichlet_energy_names_the_width_it_expected():
    # the learner reads 5 inputs: 3-wide points under the identity map, or
    # a map into 6 dimensions, fail with the learner's width named
    mm, p = _world(18)
    with pytest.raises(ValueError, match=r"expected \(n, 5\), got \(2, 3\)"):
        dirichlet_energy(p, None, np.zeros((2, 3)))
    wide = make_manifold_map(prng_new(18, 61), 3, 4, 6)
    with pytest.raises(ValueError, match=r"expected \(n, 5\), got \(2, 6\)"):
        dirichlet_energy(p, wide, np.zeros((2, 3)))


def test_balanced_gradient_matches_frozen_finite_differences():
    # freeze targets and augmented inputs, then the consistency part of the
    # step objective is an ordinary function of the parameters
    mm, p = _world(19)
    zs = prng_new(19, 61).standard_normal((4, 3))
    xs = phi_forward_batch(mm, zs)
    fixed = xs + 0.15 * prng_new(19, 62).standard_normal(xs.shape)
    _, analytic = _consistency(p, [(xs, fixed), (xs, fixed)])
    targets = network.forward_batch(p, xs)

    def frozen_value(theta):
        f = network.forward_batch(p.like(theta), fixed)
        return 2.0 * float(np.mean((f - targets) ** 2))

    fd = finite_diff_grad(frozen_value, p.theta, h=1e-5)
    assert np.linalg.norm(analytic - fd) / np.linalg.norm(analytic) < 1e-6


def test_gradient_check_suite_small(monkeypatch):
    drawn = []

    def spy(params, mmap, zs, k):
        drawn.append((k, zs.shape[1]))
        return dirichlet_energy(params, mmap, zs, k)

    monkeypatch.setattr(objectives, "dirichlet_energy", spy)
    rows = gradient_check_suite(n_instances=5)
    assert max(err for _, _, err in rows) <= 1e-6
    assert [name for name, _, _ in rows] == 5 * [
        "supervised_logistic", "supervised_squared", "step_objective",
        "dirichlet_energy"]
    # the penalty row covers both a strict subset of the latent coordinates
    # and all of them
    assert any(k < d for k, d in drawn) and any(k == d for k, d in drawn)


def test_gradient_check_suite_runs_one_backward_pass_per_row(monkeypatch):
    # the finite differences read forward values alone, so the only
    # value_and_grad calls are the three rows' analytic gradients
    calls = []
    real = network.value_and_grad

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "value_and_grad", spy)
    gradient_check_suite(n_instances=5)
    assert len(calls) == 15
