"""Scalar objectives and their exact gradients.

Consistency targets are frozen scalars: no gradient ever flows through the
branch that produced them. The gradient of every objective here is checked
against central finite differences in the test suite and by the gradcheck
command.
"""

from __future__ import annotations

import numpy as np

from . import network
from .manifold import ManifoldMap, phi_forward_batch, phi_vjp
from .network import NetworkParams
from .numerics import RngState, prng_new


def _sigmoid(t):
    # exp(-|t|) never overflows: 1 / (1 + e) for t >= 0, e / (1 + e) otherwise
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(f, y):
    """log(1 + exp(-y f)) for y in {-1, +1}; stable for large |f|.

    Returns (value, dvalue/df), vectorized over f and y.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    value = np.logaddexp(0.0, -y * f)
    dvalue = -y * _sigmoid(-y * f)
    return value, dvalue


def squared_loss(f, y):
    """0.5 (f - y)^2 with derivative (f - y)."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = f - y
    return 0.5 * diff * diff, diff


LOSSES = {"logistic": logistic_loss, "squared": squared_loss}


def supervised_batch(params: NetworkParams, xs: np.ndarray, ys: np.ndarray,
                     kind: str = "logistic"):
    """(value, grads) of the mean loss over a labelled batch."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] == 0:
        raise ValueError("supervised_batch: empty batch")
    loss = LOSSES[kind]
    n = xs.shape[0]

    def mean_loss(f):
        values, dvalues = loss(f, ys)
        return float(values.mean()), dvalues / n

    return network.value_and_grad(params, xs, mean_loss)


def consistency_batch_eval(params: NetworkParams, xs_aug: np.ndarray,
                           targets: np.ndarray, weight: float = 1.0):
    """(value, grads) of weight * mean (F(x_aug) - target)^2.

    targets are plain floats, so no gradient flows through them: supplying
    them from a network or as raw constants gives bit-identical gradients.
    """
    if xs_aug.shape[0] == 0:
        raise ValueError("consistency_batch_eval: empty batch")
    n = xs_aug.shape[0]
    targets = np.asarray(targets, dtype=float)

    def weighted_mse(f):
        residual = f - targets
        return (weight * float(residual @ residual) / n,
                (2.0 * weight / n) * residual)

    return network.value_and_grad(params, xs_aug, weighted_mse)


def balanced_regularizer(params: NetworkParams, populations,
                         target_params: NetworkParams):
    """(value, grads) of the consistency term normalized per population.

    populations is a list of (xs, [xs_aug, ...]) pairs with the augmented
    inputs already drawn; each population contributes its consistency term
    averaged over its draws. Targets are target_params' outputs on xs and
    are constants to the returned gradient.
    """
    total_value = 0.0
    total_grads = np.zeros_like(params.theta)
    for xs, draws in populations:
        if xs.shape[0] == 0:
            raise ValueError(
                "balanced_regularizer: every population must be nonempty")
        targets = network.forward_batch(target_params, xs)
        for xs_aug in draws:
            value, grads = consistency_batch_eval(params, xs_aug, targets,
                                                  1.0 / len(draws))
            total_value += value
            total_grads += grads.theta
    return total_value, params.like(total_grads)


def jacobian_penalty_exact(params: NetworkParams, mmap: ManifoldMap,
                           z: np.ndarray, k: int) -> float:
    """Squared norm of the map-Jacobian (first k columns) applied to the
    input gradient of the learner: the small-amount limit of the
    consistency term under latent perturbations."""
    if not 1 <= k <= mmap.latent_dim:
        raise ValueError(
            f"jacobian_penalty_exact: k must be in [1, {mmap.latent_dim}], got {k}")
    zs = np.asarray(z, dtype=float)[None, :]
    g = network.input_jacobian_batch(params, phi_forward_batch(mmap, zs))
    v = phi_vjp(mmap, zs, g)[0, :k]
    return float(v @ v)


def jacobian_penalty_mc(params: NetworkParams, mmap: ManifoldMap, z: np.ndarray,
                        k: int, epsilon: float, n_samples: int,
                        rng: RngState) -> float:
    """Monte-Carlo estimate (1/eps^2) mean (F(Phi(z + eps*omega)) - F(Phi(z)))^2."""
    if epsilon <= 0:
        raise ValueError(f"jacobian_penalty_mc: epsilon must be > 0, got {epsilon}")
    if n_samples < 1:
        raise ValueError("jacobian_penalty_mc: n_samples must be >= 1")
    if not 1 <= k <= mmap.latent_dim:
        raise ValueError(
            f"jacobian_penalty_mc: k must be in [1, {mmap.latent_dim}], got {k}")
    z = np.asarray(z, dtype=float)
    f0 = network.forward_batch(params, phi_forward_batch(mmap, z[None, :]))[0]
    omega = np.zeros((n_samples, mmap.latent_dim))
    omega[:, :k] = rng.standard_normal((n_samples, k))
    f = network.forward_batch(params, phi_forward_batch(mmap, z[None, :] + epsilon * omega))
    diff = f - f0
    return float(diff @ diff) / n_samples / epsilon ** 2


def dirichlet_energy(params: NetworkParams, mmap: ManifoldMap | None,
                     zs: np.ndarray) -> float:
    """Mean squared latent gradient of the learner composed with the map,
    by the exact chain rule. mmap=None means the identity map (latent space
    is the ambient space)."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2:
        raise ValueError("dirichlet_energy: zs must be (n, latent_dim)")
    if mmap is None:
        grad = network.input_jacobian_batch(params, zs)
    else:
        grad = phi_vjp(mmap, zs, network.input_jacobian_batch(
            params, phi_forward_batch(mmap, zs)))
    return float(np.mean(np.sum(grad * grad, axis=1)))


# ---------------------------------------------------------------------------
# Finite-difference verification suite. Small random instances, every
# gradient-producing objective against the central-difference oracle, plus
# the two value-level cross-checks (exact Jacobian penalty vs a penalty
# rebuilt from finite differences, chain-rule vs probed Dirichlet energy).
# ---------------------------------------------------------------------------

def _fd_jacobian_penalty(params, mmap, z, k, h):
    """Penalty rebuilt with finite-difference map columns and input gradient."""
    x = phi_forward_batch(mmap, z[None, :])[0]
    steps = h * np.eye(x.shape[0])
    g = (network.forward_batch(params, x + steps)
         - network.forward_batch(params, x - steps)) / (2.0 * h)
    steps = h * np.eye(z.shape[0])[:k]
    cols = (phi_forward_batch(mmap, z + steps)
            - phi_forward_batch(mmap, z - steps)) / (2.0 * h)
    v = cols @ g
    return float(v @ v)


def _fd_dirichlet_energy(params, mmap, zs, h):
    """Dirichlet energy with each latent coordinate probed by central
    differences of step h."""
    total = 0.0
    for j in range(zs.shape[1]):
        step = np.zeros(zs.shape[1])
        step[j] = h
        dj = (network.forward_batch(params, phi_forward_batch(mmap, zs + step))
              - network.forward_batch(params, phi_forward_batch(mmap, zs - step))
              ) / (2.0 * h)
        total += float(dj @ dj)
    return total / zs.shape[0]


def gradient_check_suite(n_instances: int = 100, seed: int = 987654321,
                         h: float = 1e-5):
    """Run every objective on random small instances against finite
    differences. Returns a list of (check_name, instance, rel_err) rows."""
    from .numerics import finite_diff_grad

    rows = []
    for inst in range(n_instances):
        rng = prng_new(seed, inst)
        d_lat = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 11))
        n_hid = int(rng.integers(2, 9))
        h_gen = int(rng.integers(3, 7))
        n_batch = int(rng.integers(2, 6))
        from .manifold import make_manifold_map
        mmap = make_manifold_map(rng, d_lat, h_gen, d_in)
        params = network.init_network(rng, d_in, n_hid)
        # biases nonzero so every parameter block participates
        params.b1[:] = 0.3 * rng.standard_normal(n_hid)
        params.b2[...] = 0.3 * rng.standard_normal()
        xs = rng.standard_normal((n_batch, d_in))
        ys = np.where(rng.standard_normal(n_batch) > 0, 1.0, -1.0)

        def rel_err(analytic_vec, fd_vec):
            return float(np.linalg.norm(analytic_vec - fd_vec)
                         / (np.linalg.norm(analytic_vec) + 1e-12))

        for kind in ("logistic", "squared"):
            _, grads = supervised_batch(params, xs, ys, kind)
            fd = finite_diff_grad(
                lambda v: supervised_batch(params.like(v), xs, ys, kind)[0],
                params.theta, h)
            rows.append((f"supervised_{kind}", inst, rel_err(grads.theta, fd)))

        targets = rng.standard_normal(n_batch)  # raw constants: stop-gradient
        xs_aug = xs + 0.1 * rng.standard_normal(xs.shape)
        _, grads = consistency_batch_eval(params, xs_aug, targets, 0.7)
        fd = finite_diff_grad(
            lambda v: consistency_batch_eval(params.like(v), xs_aug, targets,
                                             0.7)[0],
            params.theta, h)
        rows.append(("consistency_stop_gradient", inst,
                     rel_err(grads.theta, fd)))

        z = rng.standard_normal(d_lat)
        k = int(rng.integers(1, d_lat + 1))
        exact = jacobian_penalty_exact(params, mmap, z, k)
        fd_pen = _fd_jacobian_penalty(params, mmap, z, k, 1e-6)
        rows.append(("jacobian_penalty", inst,
                     abs(exact - fd_pen) / (abs(exact) + 1e-12)))

        zs = rng.standard_normal((n_batch, d_lat))
        chain = dirichlet_energy(params, mmap, zs)
        probed = _fd_dirichlet_energy(params, mmap, zs, 1e-6)
        rows.append(("dirichlet_energy", inst,
                     abs(chain - probed) / (abs(chain) + 1e-12)))
    return rows
