"""Consistency-based semi-supervised learning on a controlled synthetic
data manifold: generators, exact-gradient objectives, training loops and
scripted experiments."""

__version__ = "0.1.0"

from .manifold import (AugmentationSpec, Augmenter, Dataset, ManifoldMap,
                       TaskParams, elu, elu_layer, elu_layer_vjp, elu_prime,
                       make_manifold_map, phi_forward_batch)
from .network import NetworkParams, forward_batch, init_network, value_and_grad
from .numerics import RngState, finite_diff_grad, prng_new, rk4_step
from .objectives import dirichlet_energy, logistic_loss, squared_loss, step_layout
from .training import (TrainConfig, TrainRecord, TrainState, ema_update,
                       evaluate, frozen_objective_grads, sgd_momentum_step,
                       train)
from .experiments import (FluidConfig, HarmonicConfig, SweepSpec,
                          fluid_limit_experiment, harmonic_experiment,
                          run_sweep)
