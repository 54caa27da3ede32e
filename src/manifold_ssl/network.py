"""Single-hidden-layer scalar-output learner with exact gradients.

forward(x) = b2 + w2 . elu(W1 x + b1). A point or direction in parameter
space (parameters, gradients, momentum velocity, teacher average, ODE
state) is one contiguous float64 vector theta laid out as W1 (row-major),
then b1, w2 and b2; NetworkParams names the four blocks as views onto it.
The parameter gradient is derived by hand; finite differences are the
independent oracle in the test suite.

A network whose inputs all lie in a subspace reads its W1 only through
W1 @ basis, for an orthonormal basis of that span: the network over the
inputs' coordinates with first layer W1 @ basis has the same outputs, and
its W1 gradient, times basis.T, is the full one. init_network starts a
network there.

The hidden layer is manifold.elu_layer, which checks its input and owns
its buffers, and the input gradient is elu_layer_vjp(xs, W1, b1, w2);
value_and_grad takes the W1 gradient as ((upstream * x).T @ s).T.
"""

from __future__ import annotations

import numpy as np

from .manifold import elu_layer
from .numerics import RngState

PARAM_FIELDS = ("W1", "b1", "w2", "b2")


class NetworkParams:
    """theta plus the views W1 (n_hidden, d_in), b1 and w2 (n_hidden,) and
    b2 (0-d). Write into a view (``p.b1[:] = ...``) to change theta; the
    attributes themselves cannot be rebound."""

    __slots__ = ("theta",) + PARAM_FIELDS

    def __init__(self, theta: np.ndarray, n_hidden: int, d_in: int):
        size = n_hidden * (d_in + 2) + 1
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
                and theta.shape == (size,) and theta.flags.c_contiguous):
            raise ValueError(
                f"NetworkParams: theta must be a contiguous float64 vector of "
                f"{size} entries")
        nd = n_hidden * d_in
        bind = object.__setattr__
        bind(self, "theta", theta)
        bind(self, "W1", theta[:nd].reshape(n_hidden, d_in))
        bind(self, "b1", theta[nd:nd + n_hidden])
        bind(self, "w2", theta[nd + n_hidden:nd + 2 * n_hidden])
        bind(self, "b2", theta[-1:].reshape(()))

    def __setattr__(self, name, value):
        # in-place arithmetic such as p.theta += g rebinds the same array
        if value is not getattr(self, name, None):
            raise AttributeError(
                f"NetworkParams.{name} is a view onto theta; write into it "
                f"with [...] instead of rebinding it")

    def __reduce__(self):
        # a copy or pickle rebuilds the views onto its own theta
        return NetworkParams, (self.theta, self.n_hidden, self.d_in)

    @classmethod
    def from_blocks(cls, W1, b1, w2, b2) -> "NetworkParams":
        theta = np.concatenate([np.ravel(W1), b1, w2, [b2]], dtype=float)
        return cls(theta, *np.shape(W1))

    @property
    def d_in(self) -> int:
        return self.W1.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.W1.shape[0]

    def like(self, theta: np.ndarray) -> "NetworkParams":
        """The same network shape over another vector (no copy)."""
        return NetworkParams(theta, self.n_hidden, self.d_in)


def init_network(rng: RngState, d_in: int, n_hidden: int,
                 basis: np.ndarray | None = None) -> NetworkParams:
    """Normal/sqrt(fan-in) weights, zero biases. Draw order: W1, w2. With
    basis, a (d_in, r) matrix with orthonormal columns, the network drawn
    over d_in inputs is returned over their coordinates in basis, first
    layer W1 @ basis, with the drawn network's outputs on its span."""
    if d_in < 1 or n_hidden < 1:
        raise ValueError("init_network: dimensions must be >= 1")
    W1 = rng.standard_normal((n_hidden, d_in)) / np.sqrt(d_in)
    w2 = rng.standard_normal(n_hidden) / np.sqrt(n_hidden)
    if basis is not None:
        W1 = W1 @ basis
    return NetworkParams.from_blocks(W1, np.zeros(n_hidden), w2, 0.0)


def forward_batch(params: NetworkParams, xs: np.ndarray,
                  workspace: dict | None = None) -> np.ndarray:
    """Row-wise forward for xs of shape (n, d_in).

    workspace, a dict the caller owns and hands to any forward_batch and
    value_and_grad call, keeps the hidden layer's buffers between calls
    (manifold.elu_layer); without it they are allocated. The same in-place
    steps run either way and nothing returned refers to the buffers.
    """
    return elu_layer(xs, params.W1, params.b1, workspace) @ params.w2 + params.b2


def value_and_grad(params: NetworkParams, xs: np.ndarray, loss,
                   workspace: dict | None = None):
    """Value and parameter gradient of loss(forward_batch(params, xs)).

    loss maps the (n,) outputs to (value, upstream) with upstream[i] the
    derivative of the value with respect to output i, for the leading m <= n
    rows; the trailing rows are forward only, constants to the gradient.
    Returns (value, grad), grad a NetworkParams over a fresh vector.
    workspace is as in forward_batch; the forward pass keeps the hidden
    layer's slope s (manifold.elu's slope) there too, unscaled: the upstream
    scales the (m, d_in) rows xs[:m], not the (m, n_hidden) slope. The W1
    gradient is ((xs[:m] * upstream[:, None]).T @ s[:m]).T * w2[:, None],
    b1's (upstream @ s[:m]) * w2.
    """
    xs = np.asarray(xs, dtype=float)
    hidden, slope = elu_layer(xs, params.W1, params.b1, workspace, slope=True)
    value, upstream = loss(hidden @ params.w2 + params.b2)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.ndim != 1 or upstream.shape[0] > xs.shape[0]:
        raise ValueError("value_and_grad: loss must give one upstream per leading row")
    m = upstream.shape[0]
    slope = slope[:m]                          # (m, n_hidden)
    xu = xs[:m] * upstream[:, None]            # (m, d_in), the thin operand
    grad = params.like(np.empty_like(params.theta))
    np.multiply((xu.T @ slope).T, params.w2[:, None], out=grad.W1)
    np.matmul(upstream, slope, out=grad.b1)
    grad.b1 *= params.w2
    np.matmul(hidden[:m].T, upstream, out=grad.w2)
    grad.b2[...] = upstream.sum()
    return value, grad

