"""Synthetic data with a controlled low-dimensional structure.

A fixed random one-hidden-layer map embeds latent vectors into ambient
space; two Gaussian latent clusters define a balanced binary task; the
augmentation either perturbs in latent space (points stay exactly on the
manifold) or adds isotropic ambient noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .numerics import RngState, check_settings, nonneg, setting

DATASET_FORMAT_VERSION = 1

MODES = ("manifold", "ambient")


def elu(t, out=None):
    """t for t >= 0, exp(t) - 1 otherwise. Accepts scalars and arrays.

    Computed without a select as expm1(min(t, 0)) + max(t, 0): expm1(0) == 0
    and x + 0.0 == x, so every element, nan and +-inf included, equals its
    branch bit for bit (only -0.0 may come out as 0.0). With out, a float64
    array of t's shape other than t, the result is written there and t is
    overwritten with max(t, 0), so a caller that owns both buffers runs the
    kernel without allocating.
    """
    t = np.asarray(t, dtype=float)
    neg = np.expm1(np.minimum(t, 0.0, out=out), out=out)
    return np.add(neg, np.maximum(t, 0.0, out=None if out is None else t),
                  out=out)


def elu_prime(t, out=None):
    """Derivative of elu: 1 for t >= 0, exp(t) otherwise.

    Computed without a select as exp(min(t, 0)), since exp(0) == 1. out,
    which may be t itself, receives the result in place.
    """
    t = np.asarray(t, dtype=float)
    return np.exp(np.minimum(t, 0.0, out=out), out=out)


@dataclass
class ManifoldMap:
    """Fixed embedding z -> w_out @ elu(w_in @ z + bias).

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
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != mmap.latent_dim:
        raise ValueError(
            f"phi_forward_batch: expected (n, {mmap.latent_dim}), got {zs.shape}")
    return elu(zs @ mmap.w_in.T + mmap.bias) @ mmap.w_out.T


def phi_vjp(mmap: ManifoldMap, zs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Rows u_i @ J(z_i) of shape (n, latent_dim), for us of shape
    (n, ambient_dim), where J(z) is the (ambient_dim, latent_dim) Jacobian
    of the map at z."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != mmap.latent_dim:
        raise ValueError(
            f"phi_vjp: expected (n, {mmap.latent_dim}) latents, got {zs.shape}")
    slope = elu_prime(zs @ mmap.w_in.T + mmap.bias)
    return (slope * (us @ mmap.w_out)) @ mmap.w_in


@dataclass
class TaskSpec:
    """Latent two-cluster binary task with exact class balance."""
    mu_pos: np.ndarray
    mu_neg: np.ndarray
    n_labelled: int
    n_unlabelled: int
    n_test: int

    def __post_init__(self):
        self.mu_pos = np.asarray(self.mu_pos, dtype=float)
        self.mu_neg = np.asarray(self.mu_neg, dtype=float)
        if self.mu_pos.shape != self.mu_neg.shape:
            raise ValueError("TaskSpec: class means must share a shape")
        if not np.linalg.norm(self.mu_pos - self.mu_neg) > 0:
            raise ValueError("TaskSpec: class means must be distinct")
        if self.n_labelled < 2 or self.n_labelled % 2 != 0:
            raise ValueError(
                f"TaskSpec: n_labelled must be even and >= 2, got {self.n_labelled}")
        if self.n_test % 2 != 0:
            raise ValueError(f"TaskSpec: n_test must be even, got {self.n_test}")


def make_task(rng: RngState, latent_dim: int, separation: float,
              n_labelled: int, n_unlabelled: int, n_test: int) -> TaskSpec:
    """Place the class means at +-(separation/2) along a random unit vector."""
    direction = rng.standard_normal(latent_dim)
    direction /= np.linalg.norm(direction)
    half = 0.5 * separation * direction
    return TaskSpec(mu_pos=half, mu_neg=-half, n_labelled=n_labelled,
                    n_unlabelled=n_unlabelled, n_test=n_test)


def _sample_latent_batch(rng: RngState, classes: np.ndarray,
                         task: TaskSpec) -> np.ndarray:
    mus = np.where(classes[:, None] > 0, task.mu_pos[None, :], task.mu_neg[None, :])
    return mus + rng.standard_normal((classes.shape[0], task.mu_pos.shape[0]))


def _balanced_classes(n: int) -> np.ndarray:
    # odd n puts the extra sample in the positive class
    n_pos = (n + 1) // 2
    return np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])


@dataclass
class Dataset:
    """Labelled triples, unlabelled pairs and a held-out test split.

    Latents are retained only so the augmentation oracle can act in latent
    space; the learner itself never sees them.
    """
    z_labelled: np.ndarray
    x_labelled: np.ndarray
    y_labelled: np.ndarray
    z_unlabelled: np.ndarray
    x_unlabelled: np.ndarray
    z_test: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def generate_dataset(rng: RngState, mmap: ManifoldMap, task: TaskSpec) -> Dataset:
    """Materialize the task through the map. Draw order: labelled latents,
    unlabelled latents, test latents. Unlabelled class draws are balanced
    and then discarded."""
    y_lab = _balanced_classes(task.n_labelled)
    z_lab = _sample_latent_batch(rng, y_lab, task)
    y_unl = _balanced_classes(task.n_unlabelled)
    z_unl = _sample_latent_batch(rng, y_unl, task)
    y_test = _balanced_classes(task.n_test)
    z_test = _sample_latent_batch(rng, y_test, task)
    return Dataset(
        z_labelled=z_lab, x_labelled=phi_forward_batch(mmap, z_lab), y_labelled=y_lab,
        z_unlabelled=z_unl, x_unlabelled=phi_forward_batch(mmap, z_unl),
        z_test=z_test, x_test=phi_forward_batch(mmap, z_test), y_test=y_test)


@dataclass
class AugmentationSpec:
    """Amount epsilon, explored latent dimension k, and perturbation mode.
    k is checked against the map's latent dimension by Augmenter."""
    epsilon: float = setting(0.3, nonneg, ">= 0", "perturbation amount")
    k: int = setting(10)
    mode: str = setting("manifold", lambda v: v in MODES, "|".join(MODES),
                        "perturb in latent or ambient space")

    def __post_init__(self):
        check_settings(self)


class Augmenter:
    """Batch perturbation callable bundling a map and an AugmentationSpec.

    manifold mode maps z + epsilon*omega back through the embedding, with
    omega standard normal on its first k coordinates and zero on the rest,
    so each result lies exactly on the manifold. ambient mode adds isotropic
    Gaussian noise to x directly; mmap may be None there (the map is never
    touched).
    """

    def __init__(self, mmap: ManifoldMap | None, spec: AugmentationSpec):
        if spec.mode == "manifold":
            if mmap is None:
                raise ValueError("Augmenter: manifold mode needs the map")
            if not 1 <= spec.k <= mmap.latent_dim:
                raise ValueError(
                    f"Augmenter: k must be in [1, {mmap.latent_dim}], got {spec.k}")
        self.mmap = mmap
        self.spec = spec

    def __call__(self, zs: np.ndarray, xs: np.ndarray, rng: RngState) -> np.ndarray:
        spec = self.spec
        if spec.mode == "manifold":
            n, d = zs.shape
            omega = np.zeros((n, d))
            omega[:, :spec.k] = rng.standard_normal((n, spec.k))
            return phi_forward_batch(self.mmap, zs + spec.epsilon * omega)
        xs = np.asarray(xs, dtype=float)
        return xs + spec.epsilon * rng.standard_normal(xs.shape)


# ---------------------------------------------------------------------------
# On-disk format: header.json + one raw little-endian float64 .bin per array,
# row-major. The header records shapes, dtype and any caller metadata.
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ("z_labelled", "x_labelled", "y_labelled", "z_unlabelled",
                 "x_unlabelled", "z_test", "x_test", "y_test")


def save_dataset(ds: Dataset, directory: str, meta: dict | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    arrays = {}
    for name in _ARRAY_FIELDS:
        arr = np.asarray(getattr(ds, name), dtype="<f8")
        fname = f"{name}.bin"
        with open(os.path.join(directory, fname), "wb") as fh:
            fh.write(arr.tobytes(order="C"))
        arrays[name] = {"file": fname, "shape": list(arr.shape),
                        "dtype": "<f8", "order": "C"}
    header = {"format_version": DATASET_FORMAT_VERSION, "arrays": arrays}
    if meta:
        header["meta"] = meta
    with open(os.path.join(directory, "header.json"), "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)


def load_dataset(directory: str) -> Dataset:
    with open(os.path.join(directory, "header.json")) as fh:
        header = json.load(fh)
    if header.get("format_version") != DATASET_FORMAT_VERSION:
        raise ValueError(
            f"load_dataset: unsupported format version {header.get('format_version')}")
    fields = {}
    for name, info in header["arrays"].items():
        with open(os.path.join(directory, info["file"]), "rb") as fh:
            arr = np.frombuffer(fh.read(), dtype=info["dtype"])
        fields[name] = arr.reshape(info["shape"]).copy()
    return Dataset(**fields)
