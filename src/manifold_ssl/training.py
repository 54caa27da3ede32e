"""Optimization drivers.

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
from .manifold import AugmentationSpec, Dataset
from .network import NetworkParams, PARAM_FIELDS
from .numerics import (RngState, check_settings, nonneg, positive, setting,
                       unit_interval_left)

CSV_HEADER = ("run_id", "method", "seed", "epoch", "lambda", "epsilon", "k",
              "beta_mt", "train_loss", "test_nll", "test_acc",
              "consistency_value")

METHODS = ("supervised", "pi_model", "mean_teacher")


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
    method: str = setting("pi_model", lambda v: v in METHODS, "|".join(METHODS),
                          "training method")
    epochs: int = setting(200, positive, ">= 1", "training epochs")
    warmup_epochs: int = setting(
        25, nonneg, ">= 0", "supervised-only epochs before the consistency term")
    lam: float = setting(10.0, nonneg, ">= 0", "consistency weight")
    eta: float = setting(0.01, positive, "> 0", "learning rate")
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

    def __post_init__(self):
        check_settings(self)
        if self.warmup_epochs > self.epochs:
            raise ValueError(f"TrainConfig: warmup_epochs must be <= epochs, got "
                             f"{self.warmup_epochs} > {self.epochs}")


@dataclass
class TrainRecord:
    run_id: str
    method: str
    seed: int
    epoch: int
    lam: float
    epsilon: float
    k: int
    beta_mt: float
    train_loss: float
    test_nll: float
    test_acc: float
    consistency_value: float

    def csv_row(self) -> tuple:
        return (self.run_id, self.method, self.seed, self.epoch,
                float(self.lam), float(self.epsilon), self.k,
                float(self.beta_mt), float(self.train_loss),
                float(self.test_nll), float(self.test_acc),
                float(self.consistency_value))


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


def records_to_csv(records) -> str:
    return csv_text(CSV_HEADER, (r.csv_row() for r in records))


@dataclass
class Metrics:
    test_nll: float
    test_acc: float
    n_test: int


def evaluate(params: NetworkParams, xs: np.ndarray, ys: np.ndarray,
             kind: str = "logistic", workspace: tuple | None = None) -> Metrics:
    """Mean held-out loss and sign accuracy (sign(0) counts as +1; nan for
    the squared loss). An empty test set is an error. workspace is the
    caller's network.forward_workspace for xs, reused across calls so that
    repeated evaluation allocates no hidden-layer arrays; without it
    forward_batch allocates its own."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] == 0:
        raise ValueError("evaluate: empty test set")
    f = network.forward_batch(params, xs, workspace)
    values, _ = objectives.LOSSES[kind](f, ys)
    if kind == "logistic":
        predicted = np.where(f >= 0.0, 1.0, -1.0)
        acc = float(np.mean(predicted == ys))
    else:
        acc = math.nan
    return Metrics(test_nll=float(values.mean()), test_acc=acc,
                   n_test=xs.shape[0])


def _labelled_batch(rng, n_labelled, batch_size):
    if batch_size >= n_labelled:
        return np.arange(n_labelled)
    return rng.choice(n_labelled, size=batch_size, replace=False)


def train(config: TrainConfig, dataset: Dataset, augmenter, rng: RngState,
          params0: NetworkParams | None = None, epoch_hook=None,
          run_id: str = "run"):
    """Train with config.method and return (params, teacher, records).

    supervised: mini-batch SGD on the labelled loss alone (lambda and the
    augmenter are unused). pi_model: warmup, then joint supervised +
    lambda * consistency steps with per-step frozen targets from the current
    parameters. mean_teacher: the pi model with targets from the parameter
    average, returned as teacher (None for the other methods). params0 is
    copied, never modified; without it the network is drawn from rng.
    epoch_hook(epoch, params) sees the live parameters, which later steps
    update in place. The test-pass workspace is allocated once here and
    owned by the run; every epoch's evaluate reuses it.
    """
    method = config.method
    n_lab = dataset.x_labelled.shape[0]
    n_unl = dataset.x_unlabelled.shape[0]
    if n_lab == 0:
        raise ValueError("train: labelled set is empty")
    if method != "supervised" and n_unl == 0:
        raise ValueError(f"train: method {method} needs unlabelled samples")

    params = (params0.like(params0.theta.copy()) if params0 is not None
              else network.init_network(rng, dataset.x_labelled.shape[1],
                                        config.hidden))
    velocity = np.zeros_like(params.theta)
    test_workspace = network.forward_workspace(dataset.x_test.shape[0],
                                               params.n_hidden)
    teacher = None
    eps = config.augmentation.epsilon
    k = config.augmentation.k
    steps_per_epoch = max(1, math.ceil(n_unl / config.batch_unlabelled)) if n_unl else 1
    records = []

    for epoch in range(1, config.epochs + 1):
        # lam == 0 or eps == 0 contribute an exactly-zero consistency
        # gradient, so those steps skip the term (and its rng draws) and
        # reproduce the supervised trajectory bit for bit.
        consistency_on = (method != "supervised" and epoch > config.warmup_epochs
                          and config.lam > 0 and eps > 0)
        if method == "mean_teacher" and epoch == config.warmup_epochs + 1:
            teacher = params.like(params.theta.copy())
        perm = rng.permutation(n_unl) if consistency_on else None
        cons_values = []
        for step in range(steps_per_epoch):
            lab_idx = _labelled_batch(rng, n_lab, config.batch_labelled)
            x_lab = dataset.x_labelled[lab_idx]
            _, grads = objectives.supervised_batch(
                params, x_lab, dataset.y_labelled[lab_idx], config.loss)
            if consistency_on:
                unl_idx = perm[step * config.batch_unlabelled:
                               (step + 1) * config.batch_unlabelled]
                # draw order: all labelled rounds, then all unlabelled rounds
                populations = [
                    (xs, [augmenter(zs, xs, rng)
                          for _ in range(config.draws_per_sample)])
                    for zs, xs in ((dataset.z_labelled[lab_idx], x_lab),
                                   (dataset.z_unlabelled[unl_idx],
                                    dataset.x_unlabelled[unl_idx]))]
                value, reg = objectives.balanced_regularizer(
                    params, populations,
                    teacher if teacher is not None else params)
                grads.theta += config.lam * reg.theta
                cons_values.append(value)
            sgd_momentum_step(velocity, params, grads, config.eta,
                              config.momentum)
            if teacher is not None:
                ema_update(teacher, params, config.beta_mt)

        train_loss, _ = objectives.supervised_batch(
            params, dataset.x_labelled, dataset.y_labelled, config.loss)
        test = evaluate(params, dataset.x_test, dataset.y_test, config.loss,
                        test_workspace)
        records.append(TrainRecord(
            run_id=run_id, method=method, seed=config.seed, epoch=epoch,
            lam=config.lam, epsilon=eps, k=k,
            beta_mt=config.beta_mt if method == "mean_teacher" else math.nan,
            train_loss=train_loss, test_nll=test.test_nll,
            test_acc=test.test_acc,
            consistency_value=float(np.mean(cons_values)) if cons_values else 0.0))
        if epoch_hook is not None:
            epoch_hook(epoch, params)
    return params, teacher, records


# ---------------------------------------------------------------------------
# Full-batch deterministic objective for the small-learning-rate study. The
# frozen augmentation draws are materialized once as augmented inputs, which
# makes the stochastic regularizer a fixed function of the parameters.
# ---------------------------------------------------------------------------

def frozen_objective_grads(params: NetworkParams, dataset: Dataset,
                           frozen_augmented, lam: float,
                           loss: str = "logistic") -> NetworkParams:
    """Gradient of the supervised loss on the whole labelled set plus lam
    times the balanced consistency term, with frozen_augmented the
    (labelled, unlabelled) pair of augmented-input arrays, one draw each."""
    _, grads = objectives.supervised_batch(params, dataset.x_labelled,
                                           dataset.y_labelled, loss)
    if lam > 0:
        populations = [(xs, [xs_aug]) for xs, xs_aug in zip(
            (dataset.x_labelled, dataset.x_unlabelled), frozen_augmented)]
        _, reg = objectives.balanced_regularizer(params, populations, params)
        grads.theta += lam * reg.theta
    return grads
