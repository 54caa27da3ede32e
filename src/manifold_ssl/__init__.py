"""Consistency-based semi-supervised learning on a controlled synthetic
data manifold: generators, exact-gradient objectives, training loops and
scripted experiments."""

__version__ = "0.1.0"

from .manifold import (AugmentationSpec, Augmenter, Dataset, ManifoldMap,
                       TaskSpec, elu, elu_prime, generate_dataset,
                       make_manifold_map, make_task, phi_forward_batch,
                       phi_vjp)
from .network import (NetworkParams, forward_batch, init_network,
                      input_jacobian_batch, value_and_grad)
from .numerics import RngState, finite_diff_grad, prng_new, rk4_trajectory
from .objectives import (balanced_regularizer, consistency_batch_eval,
                         dirichlet_energy, jacobian_penalty_exact,
                         jacobian_penalty_mc, logistic_loss, squared_loss,
                         supervised_batch)
from .training import (EmaState, Metrics, OptState, TrainConfig, TrainRecord,
                       ema_update, evaluate, frozen_objective_grads,
                       sgd_momentum_step, train)
from .experiments import (FluidConfig, HarmonicConfig, SweepSpec, TaskParams,
                          fluid_limit_experiment, harmonic_experiment,
                          run_sweep)
