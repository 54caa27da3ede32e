"""Scalar objectives and their exact gradients, each checked against
central finite differences in the test suite and by the gradcheck command.

A training step is a layout (step_layout), the stacked rows [supervised
inputs; every augmented draw of every population, in draw order; target
rows] and the loss over their outputs, then one network.value_and_grad pass
over it, with upstream dloss/n_sup on the first block and lam·2/(D·n_p)·r on
each population's D draws of n_p rows, r the residual against frozen
targets. The pi model's targets are its own outputs on the population
inputs: the labelled population's inputs are the supervised batch, so its
targets are the supervised rows' outputs, and every other population's
inputs are target rows, run forward only (value_and_grad's trailing rows).
The stop-gradient is thus a row layout: [supervised; draws; unlabelled
inputs]. The mean teacher's targets are its teacher's outputs, from one
forward pass, and its layout has no target rows. training.draw_step draws a
step and lays it out, on every step of train and once per seed of the fluid
field, whose draws are frozen. Rows are the world's inputs as train sees
them, gen_hidden coordinates in manifold mode (experiments.build_world). The
two-branch gradient (ROADMAP item 2) gives the target rows upstream -2w·r/n.
"""

from __future__ import annotations

import numpy as np

from . import manifold, network
from .manifold import ManifoldMap, elu_layer_vjp, make_manifold_map, phi_forward_batch
from .network import NetworkParams
from .numerics import finite_diff_grad, prng_new


def _sigmoid(t):
    # e = exp(-|t|) floored as in elu, which neither overflows nor underflows
    e = np.exp(np.maximum(-np.abs(t), manifold.ELU_FLOOR))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(f, y, derivative=True):
    """log(1 + exp(-y f)) for y in {-1, +1}; stable for large |f|.

    Returns (value, dvalue/df), vectorized over f and y; dvalue/df is None
    when derivative is false.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    margin = -y * f
    value = np.logaddexp(0.0, margin)
    return value, -y * _sigmoid(margin) if derivative else None


def squared_loss(f, y, derivative=True):
    """0.5 (f - y)^2 and its derivative (f - y), computed either way."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = f - y
    return 0.5 * diff * diff, diff


# each maps outputs f and labels y to (value, dvalue/df); derivative=False
# lets it skip dvalue/df, for a caller that reads only the value
LOSSES = {"logistic": logistic_loss, "squared": squared_loss}


def supervised_batch(params: NetworkParams, xs: np.ndarray, ys: np.ndarray,
                     kind: str = "logistic"):
    """(value, grads) of the mean loss over a labelled batch: step_layout
    with no populations, then one network.value_and_grad pass."""
    # gradcheck and the tests call it; no workload of the benchmark does, so
    # its traced layer reads 0 calls
    (value, _), grads = network.value_and_grad(params, *step_layout(xs, ys, kind))
    return value, grads


def step_layout(xs: np.ndarray, ys: np.ndarray, kind: str = "logistic",
                populations=(), lam: float = 0.0, teacher_out=None) -> tuple:
    """(rows, step_loss) of one training step: the stacked rows, and the
    loss network.value_and_grad applies to their outputs, giving
    (supervised value, consistency value) and the gradient rows' upstream.
    The step's objective is mean loss(F(xs), ys) + lam * consistency.
    populations holds (xs_p, xs_aug_p) pairs, xs_aug_p being D draws of the
    n_p rows of xs_p, one after another; population p adds
    sum r^2 / (D·n_p) over the residuals r of F(xs_aug_p) against its
    targets. teacher_out holds the target network's outputs on the
    population inputs, in order. None makes the network the rows run through
    its own target: a population whose inputs are xs itself (the same
    array) reads its targets from the supervised rows' outputs, and every
    other population's inputs are appended as forward-only rows, so the
    pi model's step over (labelled, unlabelled) populations has
    n_sup + sum of draws + n_unlabelled rows. Both depend only on the
    arguments. step_loss writes its upstream into one buffer the layout
    owns, so the next call overwrites what a call returned: value_and_grad
    reads it at once, and a caller that keeps it copies it.
    """
    n_sup = len(xs)
    if n_sup == 0 or any(x.shape[0] == 0 for x, _ in populations):
        raise ValueError("step_layout: the supervised batch and every "
                         "population must be nonempty")
    rows = [xs] + [aug for _, aug in populations]
    at = sum(r.shape[0] for r in rows) if teacher_out is None else 0
    # each population's n_p, the first and end row of its draws, and its
    # first target row in targets below
    spans, start = [], n_sup
    for x, aug in populations:
        if teacher_out is None and x is xs:
            target_at = 0
        else:
            target_at = at
            at += x.shape[0]
            if teacher_out is None:
                rows.append(x)
        spans.append((x.shape[0], start, start + aug.shape[0], target_at))
        start += aug.shape[0]
    loss = LOSSES[kind]
    upstream = np.empty(start)

    def step_loss(f):
        values, dvalues = loss(f[:n_sup], ys)
        np.divide(dvalues, n_sup, out=upstream[:n_sup])
        targets = f if teacher_out is None else teacher_out
        consistency = 0.0
        for n, a, b, t0 in spans:
            r = upstream[a:b]
            np.subtract(f[a:b].reshape(-1, n), targets[t0:t0 + n],
                        out=r.reshape(-1, n))
            consistency += float(r @ r) / (b - a)
            r *= 2.0 * lam / (b - a)
        return (float(np.add.reduce(values)) / n_sup, consistency), upstream

    return np.concatenate(rows), step_loss


def dirichlet_energy(params: NetworkParams, mmap: ManifoldMap | None,
                     zs: np.ndarray, k: int | None = None) -> float:
    """Mean over the rows of zs of the squared norm of the first k latent
    coordinates of the gradient of the learner composed with the map, by the
    exact chain rule. k=None, every coordinate, gives the Dirichlet energy; a
    k < latent_dim gives the Jacobian penalty, the small-eps limit of
    consistency / eps^2 under perturbations of the first k coordinates.
    mmap=None means the identity map (latent space is the ambient space).

    VAT (Miyato et al., arXiv 1704.03976) has the same leading term: with
    the squared output difference as its divergence, the worst perturbation
    of norm eps in the first k coordinates gives eps^2 * ||g_k||^2 at a
    point, g_k the first k coordinates of the gradient above; under VAT's KL
    on a logistic output that term is weighted per point by
    sigmoid(F) * (1 - sigmoid(F)) / 2."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[0] == 0:
        raise ValueError("dirichlet_energy: zs must be a nonempty (n, latent_dim) array")
    k = zs.shape[1] if k is None else k
    if not 1 <= k <= zs.shape[1]:
        raise ValueError(f"dirichlet_energy: k must be in [1, {zs.shape[1]}], got {k}")
    xs = zs if mmap is None else phi_forward_batch(mmap, zs)
    g = elu_layer_vjp(xs, params.W1, params.b1, params.w2)
    if mmap is not None:
        g = elu_layer_vjp(zs, mmap.w_in, mmap.bias, g @ mmap.w_out)
    g = g[:, :k]
    return float(np.mean(np.sum(g * g, axis=1)))


# ---------------------------------------------------------------------------
# Finite-difference verification suite. Small random instances, every
# gradient-producing objective against the central-difference oracle, plus
# one value-level cross-check: the chain-rule Dirichlet energy over the
# first k coordinates against one that probes the learner composed with the
# map along each of them.
# ---------------------------------------------------------------------------

def _fd_dirichlet_energy(params, mmap, zs, h, k=None):
    """dirichlet_energy with each of the first k latent coordinates (every
    one for k=None) probed by central differences of step h."""
    def learner(z):
        return network.forward_batch(
            params, z if mmap is None else phi_forward_batch(mmap, z))

    total = 0.0
    for j in range(zs.shape[1] if k is None else k):
        step = np.zeros(zs.shape[1])
        step[j] = h
        dj = (learner(zs + step) - learner(zs - step)) / (2.0 * h)
        total += float(dj @ dj)
    return total / zs.shape[0]


def gradient_check_suite(n_instances: int = 100, seed: int = 987654321,
                         h: float = 1e-5):
    """Run every objective on random small instances against finite
    differences. Returns a list of (check_name, instance, rel_err) rows."""
    rows = []
    for inst in range(n_instances):
        rng = prng_new(seed, inst)
        d_lat = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 11))
        n_hid = int(rng.integers(2, 9))
        h_gen = int(rng.integers(3, 7))
        n_batch = int(rng.integers(2, 6))
        mmap = make_manifold_map(rng, d_lat, h_gen, d_in)
        params = network.init_network(rng, d_in, n_hid)
        # biases nonzero so every parameter block participates
        params.b1[:] = 0.3 * rng.standard_normal(n_hid)
        params.b2[...] = 0.3 * rng.standard_normal()
        xs = rng.standard_normal((n_batch, d_in))
        ys = np.where(rng.standard_normal(n_batch) > 0, 1.0, -1.0)

        def rel_err(analytic, fd):  # vectors or scalars
            return float(np.linalg.norm(analytic - fd)
                         / (np.linalg.norm(analytic) + 1e-12))

        for kind in ("logistic", "squared"):
            _, grads = supervised_batch(params, xs, ys, kind)
            fd = finite_diff_grad(
                lambda v: supervised_batch(params.like(v), xs, ys, kind)[0],
                params.theta, h)
            rows.append((f"supervised_{kind}", inst, rel_err(grads.theta, fd)))

        # the step with its targets held fixed: same-pass targets on even
        # instances, a separate target network on odd ones
        dx = 0.1 * rng.standard_normal((2 * n_batch + 1, d_in))
        populations = [(xs, np.vstack([xs, xs]) + dx[1:]), (xs[:1], xs[:1] + dx[:1])]
        target = params if inst % 2 == 0 else params.like(
            params.theta + 0.1 * rng.standard_normal(params.theta.shape))
        frozen = network.forward_batch(target, np.concatenate([xs, xs[:1]]))
        grads = network.value_and_grad(params, *step_layout(
            xs, ys, "logistic", populations, 0.7,
            None if target is params else frozen))[1]
        layout = step_layout(xs, ys, "logistic", populations, 0.7, frozen)
        fd = finite_diff_grad(lambda v: np.dot((1.0, 0.7), network.value_and_grad(
            params.like(v), *layout)[0]), params.theta, h)
        rows.append(("step_objective", inst, rel_err(grads.theta, fd)))

        zs = rng.standard_normal((n_batch, d_lat))
        k = int(rng.integers(1, d_lat + 1))
        rows.append(("dirichlet_energy", inst, rel_err(
            dirichlet_energy(params, mmap, zs, k),
            _fd_dirichlet_energy(params, mmap, zs, 1e-6, k))))
    return rows
