"""Optimization drivers.

A run is its TrainState: the epoch it reached, its parameters, velocity and
teacher, and one TrainRecord per epoch of what that epoch measured. train
advances a state; record_rows adds the run's labels when its records become
table rows.

One epoch is one pass over the unlabelled set in batches of batch_unlabelled;
the labelled batch is resampled every step. Warmup epochs run the supervised
objective alone; the consistency term switches on afterwards, with targets
frozen per step (current parameters for the pi model, the exponential moving
average for the mean teacher). The averaging starts at the end of warmup,
initialized to the parameters at that point, and is updated after every
optimizer step.

The averaging coefficient is exposed directly as beta_mt; a per-step rate
alpha with coefficient (1 - alpha * eta) maps onto it via
alpha = (1 - beta_mt) / eta.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import network, objectives
from .manifold import AugmentationSpec, Dataset, TaskParams
from .network import NetworkParams, PARAM_FIELDS
from .numerics import (RngState, check_settings, nonneg, positive, setting,
                       settings, unit_interval_left)

METHODS = ("supervised", "pi_model", "mean_teacher")
# the settings that only the consistency term reads
CONSISTENCY_KEYS = ("method", "warmup_epochs", "lambda", "epsilon", "k", "mode",
                    "beta_mt", "draws_per_sample")


def sgd_momentum_step(velocity: np.ndarray, params: NetworkParams,
                      grads: NetworkParams, eta: float, momentum: float) -> None:
    """Heavy-ball update in place: v <- momentum*v + g; theta <- theta - eta*v."""
    if not np.all(np.isfinite(grads.theta)):
        name = next(n for n in PARAM_FIELDS
                    if not np.all(np.isfinite(getattr(grads, n))))
        raise ValueError(
            f"sgd_momentum_step: non-finite gradient in parameter block {name}")
    velocity *= momentum
    velocity += grads.theta
    params.theta -= eta * velocity


def ema_update(teacher: NetworkParams, params: NetworkParams,
               beta_mt: float) -> None:
    """teacher <- beta_mt * teacher + (1 - beta_mt) * params, in place."""
    teacher.theta *= beta_mt
    teacher.theta += (1 - beta_mt) * params.theta


@dataclass
class TrainConfig:
    """The settings of one run, its world among them; reads says which it reads."""
    method: str = setting("pi_model", lambda v: v in METHODS, "|".join(METHODS),
                          "training method")
    epochs: int = setting(200, positive, ">= 1", "training epochs")
    warmup_epochs: int = setting(
        25, nonneg, ">= 0", "supervised-only epochs before the consistency term")
    lam: float = setting(10.0, nonneg, "finite, >= 0", "consistency weight")
    eta: float = setting(0.01, positive, "finite, > 0", "learning rate")
    momentum: float = setting(0.9, unit_interval_left, "[0, 1)",
                              "heavy-ball momentum")
    batch_labelled: int = setting(10, positive, ">= 1", "labelled batch size")
    batch_unlabelled: int = setting(100, positive, ">= 1", "unlabelled batch size")
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    beta_mt: float = setting(0.99, unit_interval_left, "[0, 1)",
                             "teacher averaging coefficient")
    draws_per_sample: int = setting(1, positive, ">= 1",
                                    "augmentation draws per sample per step")
    loss: str = setting("logistic", lambda v: v in objectives.LOSSES,
                        "|".join(objectives.LOSSES), "supervised loss")
    hidden: int = setting(64, positive, ">= 1", "learner hidden width")
    seed: int = setting(1, nonneg, ">= 0", "run seed")
    # the world the run is built in; like seed, read by its builder, not train
    task: TaskParams = field(default_factory=TaskParams)

    def __post_init__(self):
        check_settings(self)
        if self.warmup_epochs > self.epochs:
            raise ValueError(f"TrainConfig: warmup_epochs must be <= epochs, got "
                             f"{self.warmup_epochs} > {self.epochs}")
        self.augmentation.dims(self.task.latent_dim)  # k fits the run's world

    def consistency_on(self, epoch: int) -> bool:
        """Whether epoch (from 1) runs the consistency term: past warmup, for
        a method that has one. lam == 0 or epsilon == 0 contribute an
        exactly-zero consistency gradient, so those steps skip the term (and
        its rng draws) and reproduce the supervised trajectory bit for bit."""
        return (self.method != "supervised" and epoch > self.warmup_epochs
                and self.lam > 0 and self.augmentation.epsilon > 0)

    def reads(self, epochs: int) -> tuple:
        """(config key, value) of each setting as the run's first epochs
        epochs read it; runs equal in these train those epochs alike, but for
        the rounding between a world's coordinates and its full inputs. Read
        as: epochs for epochs, the set for a batch at least as large, dims for
        k, None for k under ambient noise and beta_mt without a teacher, and
        nothing for CONSISTENCY_KEYS while no epoch runs the term."""
        aug, task, on = self.augmentation, self.task, self.consistency_on(epochs)
        resolved = {"epochs": epochs,
                    "batch_labelled": min(self.batch_labelled, task.n_labelled),
                    "batch_unlabelled": min(self.batch_unlabelled, task.n_unlabelled),
                    "k": aug.dims(task.latent_dim) if aug.mode == "manifold" else None,
                    "beta_mt": self.beta_mt if self.method == "mean_teacher" else None}
        return tuple((key, resolved.get(key, value)) for key, value, _ in settings(self)
                     if on or key not in CONSISTENCY_KEYS)


@dataclass
class TrainRecord:
    """What one epoch measured."""
    epoch: int
    train_loss: float
    test_nll: float
    test_acc: float
    consistency_value: float


CSV_HEADER = ("run_id", "method", "seed", "epoch", "lambda", "epsilon", "k",
              "beta_mt", "train_loss", "test_nll", "test_acc",
              "consistency_value")


def record_rows(config: TrainConfig, run_id: str, records):
    """The records.csv rows (CSV_HEADER) of one run: its labels, from the
    config it ran and run_id, then each epoch's record. k is nan under
    ambient noise, and beta_mt for a method without a teacher."""
    aug = config.augmentation
    k = aug.dims(config.task.latent_dim) if aug.mode == "manifold" else math.nan
    beta_mt = config.beta_mt if config.method == "mean_teacher" else math.nan
    labels = (run_id, config.method, config.seed)
    settings = (float(config.lam), float(aug.epsilon), k, float(beta_mt))
    for r in records:
        yield (*labels, r.epoch, *settings, float(r.train_loss),
               float(r.test_nll), float(r.test_acc), float(r.consistency_value))


def csv_text(header, rows) -> str:
    """The header and rows as CSV text, each line ended by a bare newline.
    A cell that holds a comma, quote or line break is quoted; a Python float
    is written as its repr, so callers convert numpy scalars with float() or
    tolist()."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def evaluate(params: NetworkParams, xs: np.ndarray, ys: np.ndarray,
             kind: str = "logistic", workspace: dict | None = None) -> tuple:
    """(nll, acc): the mean held-out loss and the sign accuracy (sign(0)
    counts as +1; nan for the squared loss). An empty test set is an error.
    workspace, as in network.forward_batch, spares a repeated evaluation
    its hidden-layer arrays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] == 0:
        raise ValueError("evaluate: empty test set")
    f = network.forward_batch(params, xs, workspace)
    values, _ = objectives.LOSSES[kind](f, ys, derivative=False)
    if kind == "logistic":
        predicted = np.where(f >= 0.0, 1.0, -1.0)
        acc = float(np.mean(predicted == ys))
    else:
        acc = math.nan
    return float(values.mean()), acc


def _labelled_batch(rng, n_labelled, batch_size):
    # the whole set as a slice, so the step's rows are views, not copies
    if batch_size >= n_labelled:
        return slice(None)
    return rng.choice(n_labelled, size=batch_size, replace=False)


def draw_step(config: TrainConfig, dataset: Dataset, augmenter, rng: RngState, lab_idx,
              unl_idx=None, teacher=None, workspace: dict | None = None) -> tuple:
    """The objectives.step_layout of a step over labelled rows lab_idx and
    unlabelled rows unl_idx (None: supervised rows alone, rng untouched). One
    augmenter call draws draws_per_sample rounds of the labelled, then of the
    unlabelled rows; targets are the teacher's outputs, or the network's own."""
    x_lab = dataset.x_labelled[lab_idx]
    populations, teacher_out = (), None
    if unl_idx is not None:
        d, moved = config.draws_per_sample, dataset.perturbed(config.augmentation.mode)
        drawn = augmenter(np.concatenate(
            [moved[0][lab_idx]] * d + [moved[1][unl_idx]] * d), rng)
        split = d * len(x_lab)
        x_unl = dataset.x_unlabelled[unl_idx]
        populations = [(x_lab, drawn[:split]), (x_unl, drawn[split:])]
        if teacher is not None:
            teacher_out = network.forward_batch(
                teacher, np.concatenate([x_lab, x_unl]), workspace)
    return objectives.step_layout(x_lab, dataset.y_labelled[lab_idx], config.loss,
                                  populations, config.lam, teacher_out)


@dataclass
class TrainState:
    """A run at an epoch boundary: everything train advances. An empty state
    is a run not yet started, whose network train draws from its rng;
    TrainState(params=p) starts from p. A velocity of None starts at zero,
    and teacher is None until the mean teacher's averaging starts."""
    epoch: int = 0
    params: NetworkParams | None = None
    velocity: np.ndarray | None = None
    teacher: NetworkParams | None = None
    records: list = field(default_factory=list)


def train(config: TrainConfig, dataset: Dataset, augmenter, rng: RngState,
          state: TrainState | None = None, last_epoch: int | None = None) -> TrainState:
    """Advance state (an empty one by default) with config.method from its
    epoch through last_epoch (default config.epochs), in place, and return it.
    An empty state's network is network.init_network over dataset.d_in
    inputs and dataset.basis, so it reads the dataset's inputs as held;
    last_epoch=0 returns the run at epoch 0, which every study starts from.

    supervised: mini-batch SGD on the labelled loss alone (lambda and the
    augmenter are unused). pi_model: warmup, then joint supervised +
    lambda * consistency steps with per-step frozen targets from the current
    parameters. mean_teacher: the pi model with targets from one forward pass
    per step of the parameter average, held as the state's teacher. Each step
    is one draw_step and one network.value_and_grad pass over its layout.
    Each epoch appends one TrainRecord; steps and evaluations share one
    workspace (network.forward_batch). A numpy overflow, invalid value or
    division by zero raises ValueError naming its epoch (and step, if any).

    Resuming a state with the rng as it was at the stop continues the run bit
    for bit; the caller copies both to branch it, or its own network to keep
    it. A mean-teacher state past warmup must hold its teacher, a state under
    another method must hold none, and augmenter may be None only if no epoch
    of the call runs the consistency term; each fault raises ValueError
    before the first epoch.
    """
    method = config.method
    n_lab = dataset.x_labelled.shape[0]
    n_unl = dataset.x_unlabelled.shape[0]
    if n_lab == 0:
        raise ValueError("train: labelled set is empty")
    if method != "supervised" and n_unl == 0:
        raise ValueError(f"train: method {method} needs unlabelled samples")
    state = TrainState() if state is None else state
    last_epoch = config.epochs if last_epoch is None else last_epoch
    if (augmenter is None and last_epoch > state.epoch
            and config.consistency_on(last_epoch)):
        raise ValueError(f"train: epoch {last_epoch} of {method} needs an augmenter")
    if (method == "mean_teacher" and state.epoch > config.warmup_epochs
            and state.teacher is None):
        raise ValueError(f"train: cannot resume mean_teacher at epoch {state.epoch}, "
                         f"past warmup, from a state without a teacher")
    if method != "mean_teacher" and state.teacher is not None:
        raise ValueError(f"train: method {method} has no teacher, but the state "
                         f"holds one")

    if state.params is None:
        state.params = network.init_network(rng, dataset.d_in, config.hidden,
                                            dataset.basis)
    if state.velocity is None:
        state.velocity = np.zeros_like(state.params.theta)
    params, velocity, records = state.params, state.velocity, state.records
    workspace = {}
    steps_per_epoch = max(1, math.ceil(n_unl / config.batch_unlabelled))
    step = None  # the step in progress, None outside an epoch's steps
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(state.epoch + 1, last_epoch + 1):
                consistency_on = config.consistency_on(epoch)
                if method == "mean_teacher" and epoch == config.warmup_epochs + 1:
                    state.teacher = params.like(params.theta.copy())
                teacher = state.teacher
                perm = rng.permutation(n_unl) if consistency_on else None
                cons_values = []
                for step in range(steps_per_epoch):
                    lab_idx = _labelled_batch(rng, n_lab, config.batch_labelled)
                    unl_idx = None if perm is None else perm[
                        step * config.batch_unlabelled:
                        (step + 1) * config.batch_unlabelled]
                    (_, value), grads = network.value_and_grad(params, *draw_step(
                        config, dataset, augmenter, rng, lab_idx, unl_idx,
                        teacher, workspace), workspace)
                    cons_values.append(value)
                    sgd_momentum_step(velocity, params, grads, config.eta,
                                      config.momentum)
                    if teacher is not None:
                        ema_update(teacher, params, config.beta_mt)
                step = None

                train_loss, _ = evaluate(params, dataset.x_labelled,
                                         dataset.y_labelled, config.loss, workspace)
                records.append(TrainRecord(epoch, train_loss, *evaluate(
                    params, dataset.x_test, dataset.y_test, config.loss, workspace),
                    float(np.mean(cons_values)) if consistency_on else 0.0))
                state.epoch = epoch
    except FloatingPointError as exc:
        where = "" if step is None else f", step {step + 1}"
        raise ValueError(f"train: {exc} in epoch {epoch}{where}") from exc
    return state


# ---------------------------------------------------------------------------
# Full-batch deterministic objective for the small-learning-rate study. The
# frozen augmentation draws are materialized once as augmented inputs, which
# makes the stochastic regularizer a fixed function of the parameters; its
# step layout (objectives.step_layout) is built once, and each evaluation is
# one network pass over it, over the world's inputs as train sees them
# (coordinates in manifold mode).
# ---------------------------------------------------------------------------

def frozen_objective_grads(params: NetworkParams, layout: tuple,
                           workspace: dict | None = None) -> NetworkParams:
    """Gradient at params of the objective that layout, an
    objectives.step_layout, lays out: one network.value_and_grad over its
    rows, with workspace as in network.forward_batch."""
    # a named function, not inlined: the benchmark's tracer wraps it
    rows, step_loss = layout
    return network.value_and_grad(params, rows, step_loss, workspace)[1]
