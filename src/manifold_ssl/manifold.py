"""Synthetic data with a controlled low-dimensional structure.

A fixed random one-hidden-layer map embeds latent vectors into ambient
space, and an Augmenter either perturbs in latent space (points stay
exactly on the manifold) or adds isotropic ambient noise. TaskParams holds
a world's sizes and Dataset its drawn splits; one function draws a world,
experiments.build_world: latents y mu + N(0, I) of balanced classes
y = +-1, mapped to inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngState, check_settings, nonneg, positive, setting

MODES = ("manifold", "ambient")


# exp's argument floor in the ELU kernels: below about -37.4 both exp(t) - 1
# and expm1(t) round to -1, and exp(-600) ~ 2.6e-261 keeps the slope and its
# products far from subnormal, so exp never takes its slow underflow path
ELU_FLOOR = -600.0


def elu(t, out=None, slope=None):
    """t for t >= 0, exp(t) - 1 otherwise. Accepts scalars and arrays.

    One exp gives the value and the slope: with e = exp(clip(t, ELU_FLOOR,
    0)), elu = max(t, e - 1) and elu_prime = e. exp(0) == 1 makes it t for
    t >= 0, nan and +inf included; for t < 0 it lies in [t, 0] and differs
    from expm1(t) by at most 2**-52 (-0.0 may come out as 0.0). With slope,
    a float64 array of t's shape, e is written there as well. With out,
    one other than t, the result is written there and t is left as it was,
    so a caller that owns the buffers runs the kernel without allocating.
    """
    t = np.asarray(t, dtype=float)
    e = out if slope is None else slope
    # elu_prime's exp, inlined so that the benchmark's tracer counts only
    # elu_prime's own callers as its calls
    e = np.exp(t.clip(ELU_FLOOR, 0.0, out=e), out=e)
    return np.maximum(t, np.subtract(e, 1.0, out=out), out=out)


def elu_prime(t, out=None):
    """Derivative of elu: 1 for t >= 0, exp(t) otherwise, as
    exp(clip(t, ELU_FLOOR, 0)), so exp(ELU_FLOOR) below the floor. out,
    which may be t itself, receives the result in place.
    """
    t = np.asarray(t, dtype=float)
    return np.exp(t.clip(ELU_FLOOR, 0.0, out=out), out=out)


def _affine(xs, w, b, workspace, count):
    """Check xs (n, d) against w (width, d) before any buffer is touched, and
    return the layer's buffers, kept in workspace under (n, d, width) when it
    is a dict: the (n, d + 1) rows, then at least count (n, width) buffers,
    the first holding xs @ w.T + b as the one product [xs, 1] @ [w.T; b].
    The rows hold a copy of xs beside a column of ones written when they are
    made, and the second operand is contiguous: at the steps' shapes
    scipy-openblas 0.3.31 multiplies a transposed view 30-50% slower, and a
    broadcast add of b can cost as much as the product. Tier-1's shapes keep
    the bits of xs @ w.T + b (ROADMAP aim 1)."""
    xs = np.asarray(xs, dtype=float)
    width, d = w.shape
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ValueError(f"ELU layer: expected (n, {d}), got {xs.shape}")
    workspace = {} if workspace is None else workspace
    buffers = workspace.get((len(xs), d, width))
    if buffers is None:
        buffers = workspace[len(xs), d, width] = [np.ones((len(xs), d + 1))]
    while len(buffers) <= count:
        buffers.append(np.empty((len(xs), width)))
    buffers[0][:, :-1] = xs
    wb = np.empty((d + 1, width))
    wb[:-1] = w.T
    wb[-1] = b
    np.matmul(buffers[0], wb, out=buffers[1])
    return buffers


def elu_layer(xs, w, b, workspace=None, slope=False):
    """Rows elu(xs @ w.T + b) of one ELU layer, w (width, d), for xs (n, d):
    the learner's hidden layer and the map's. workspace, a dict the caller
    owns, keeps the layer's buffers (_affine's) between calls, and the rows
    returned stay in it until the next call at their shape. With slope,
    (rows, elu's slope) is returned, the slope in one more buffer that a
    forward-only call neither holds nor writes."""
    buffers = _affine(xs, w, b, workspace, 3 if slope else 2)
    out = elu(buffers[1], out=buffers[2], slope=buffers[3] if slope else None)
    return (out, buffers[3]) if slope else out


def elu_layer_vjp(xs, w, b, v):
    """Rows (v * elu'(xs @ w.T + b)) @ w: the input gradient of v . elu_layer
    at each row of xs, for v of shape (width,) or one row per x. A (width,)
    v, the learner's w2, scales w's rows, as elu' @ (v[:, None] * w), and
    not the (n, width) slope; one row of v per x scales the slope."""
    pre = _affine(xs, w, b, None, 1)[1]
    slope = elu_prime(pre, out=pre)
    if np.ndim(v) == 1:
        return slope @ (v[:, None] * w)
    slope *= v
    return slope @ w


@dataclass
class ManifoldMap:
    """Fixed embedding z -> w_out @ elu(w_in @ z + bias), an elu_layer read
    out linearly.

    Weight entries are standard normal scaled by 1/sqrt(fan-in), so O(1)
    latent inputs give O(1) ambient coordinates.
    """
    w_in: np.ndarray   # (hidden, latent_dim)
    w_out: np.ndarray  # (ambient_dim, hidden)
    bias: np.ndarray   # (hidden,)

    @property
    def latent_dim(self) -> int:
        return self.w_in.shape[1]


def make_manifold_map(rng: RngState, latent_dim: int, hidden_dim: int,
                      ambient_dim: int) -> ManifoldMap:
    """Draw the map weights. Draw order: w_in, w_out, bias."""
    if min(latent_dim, hidden_dim, ambient_dim) < 1:
        raise ValueError("make_manifold_map: all dimensions must be >= 1")
    w_in = rng.standard_normal((hidden_dim, latent_dim)) / np.sqrt(latent_dim)
    w_out = rng.standard_normal((ambient_dim, hidden_dim)) / np.sqrt(hidden_dim)
    bias = rng.standard_normal(hidden_dim)
    return ManifoldMap(w_in=w_in, w_out=w_out, bias=bias)


def phi_forward_batch(mmap: ManifoldMap, zs: np.ndarray) -> np.ndarray:
    """Row-wise map z -> w_out @ elu(w_in @ z + bias) for zs of shape
    (n, latent_dim)."""
    return elu_layer(zs, mmap.w_in, mmap.bias) @ np.ascontiguousarray(mmap.w_out.T)


@dataclass
class TaskParams:
    """Generation knobs for one synthetic world."""
    latent_dim: int = setting(10, positive, ">= 1", "manifold dimension")
    gen_hidden: int = setting(30, positive, ">= 1", "generator hidden width")
    ambient_dim: int = setting(100, positive, ">= 1", "ambient dimension")
    n_labelled: int = setting(10, lambda v: v >= 2 and v % 2 == 0, "even, >= 2",
                              "labelled sample count")
    n_unlabelled: int = setting(1000, positive, ">= 1", "unlabelled count")
    n_test: int = setting(2000, lambda v: v >= 2 and v % 2 == 0, "even, >= 2",
                          "held-out test count")
    separation: float = setting(3.0, positive, "finite, > 0",
                                "distance between latent class means")

    def __post_init__(self):
        check_settings(self)


@dataclass
class Dataset:
    """Labelled pairs, unlabelled inputs and a held-out test split, as
    experiments.build_world draws them. Where a map made the inputs, mmap is
    that map, writing the coordinates they are held in, and the labelled and
    unlabelled latents are kept so that an Augmenter over mmap can act in
    latent space; the learner never sees them, and the test split, never
    augmented, keeps none. basis, when set, (d_in, r) with orthonormal
    columns, holds each input x as the coordinates of the point basis @ x."""
    x_labelled: np.ndarray
    y_labelled: np.ndarray
    x_unlabelled: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    z_labelled: np.ndarray | None = None
    z_unlabelled: np.ndarray | None = None
    basis: np.ndarray | None = None
    mmap: ManifoldMap | None = None

    @property
    def d_in(self) -> int:  # the dimension of the space the inputs lie in
        return self.x_labelled.shape[1] if self.basis is None else self.basis.shape[0]

    def perturbed(self, mode: str) -> tuple:
        """The (labelled, unlabelled) arrays an Augmenter of mode moves; a
        ValueError for ambient noise on coordinates, which it would not move
        off the basis's span."""
        if mode == "manifold":
            return self.z_labelled, self.z_unlabelled
        if self.basis is not None:
            raise ValueError("Dataset: ambient noise leaves the span its inputs "
                             "are coordinates in")
        return self.x_labelled, self.x_unlabelled


@dataclass
class AugmentationSpec:
    """Amount epsilon, explored latent dimension k (-1 for all of them), and
    perturbation mode. k's upper bound, a map's latent dimension, is known
    only beside the map: dims resolves k against it."""
    epsilon: float = setting(0.3, nonneg, "finite, >= 0", "perturbation amount")
    k: int = setting(-1, lambda v: v == -1 or v >= 1, "-1 (full) or >= 1",
                     "explored latent dimensions; -1 means all of them")
    mode: str = setting("manifold", lambda v: v in MODES, "|".join(MODES),
                        "perturb in latent or ambient space")

    def __post_init__(self):
        check_settings(self)

    def dims(self, latent_dim: int) -> int:
        """The k explored in a map of latent_dim: k, or latent_dim for -1;
        ValueError when k exceeds latent_dim."""
        if self.k > latent_dim:
            raise ValueError(f"AugmentationSpec: k must be in [1, {latent_dim}], "
                             f"got {self.k}")
        return latent_dim if self.k == -1 else self.k


class Augmenter:
    """Batch perturbation callable bundling a map and an AugmentationSpec:
    one perturbed input per row of the array Dataset.perturbed names.

    manifold mode maps latents z + epsilon*omega through the embedding, with
    omega standard normal on its first spec.dims(latent_dim) coordinates and
    zero on the rest, so each result lies exactly on the manifold, in the
    coordinates mmap writes. ambient
    mode adds isotropic Gaussian noise to inputs x; mmap may be None there
    (it is never read).
    """

    def __init__(self, mmap: ManifoldMap | None, spec: AugmentationSpec):
        if spec.mode == "manifold":
            if mmap is None:
                raise ValueError("Augmenter: manifold mode needs the map")
            self.k = spec.dims(mmap.latent_dim)
        self.mmap = mmap
        self.spec = spec

    def __call__(self, points: np.ndarray, rng: RngState) -> np.ndarray:
        spec = self.spec
        points = np.asarray(points, dtype=float)
        if spec.mode == "ambient":
            return points + spec.epsilon * rng.standard_normal(points.shape)
        moved = points.copy()
        moved[:, :self.k] += spec.epsilon * rng.standard_normal((len(points), self.k))
        return phi_forward_batch(self.mmap, moved)
