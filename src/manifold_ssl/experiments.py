"""Scripted experiment families: axis sweeps over seeds, the unit-square
harmonic interpolation study, and the learning-rate/gradient-flow
comparison. Every run derives all of its randomness from named streams of
its seed, so identical specs reproduce identical outputs byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from multiprocessing import Pool

import numpy as np

from . import network, objectives, training
from .manifold import (AugmentationSpec, Augmenter, Dataset, generate_dataset,
                       make_manifold_map, make_task)
from .numerics import prng_new, rk4_step
from .training import TrainConfig, csv_text

# named substreams of an experiment seed
STREAM_MAP = 0
STREAM_TASK = 1
STREAM_DATA = 2
STREAM_TRAIN = 3
STREAM_FROZEN = 4

SWEEP_AXES = ("lambda", "epsilon", "k", "beta_mt", "eta")


@dataclass
class TaskParams:
    """Generation knobs for one synthetic world."""
    latent_dim: int = 10
    gen_hidden: int = 30
    ambient_dim: int = 100
    n_labelled: int = 10
    n_unlabelled: int = 1000
    n_test: int = 2000
    separation: float = 3.0


def build_world(tp: TaskParams, seed: int):
    """Map, task and dataset for one experiment seed."""
    mmap = make_manifold_map(prng_new(seed, STREAM_MAP), tp.latent_dim,
                             tp.gen_hidden, tp.ambient_dim)
    task = make_task(prng_new(seed, STREAM_TASK), tp.latent_dim, tp.separation,
                     tp.n_labelled, tp.n_unlabelled, tp.n_test)
    dataset = generate_dataset(prng_new(seed, STREAM_DATA), mmap, task)
    return mmap, task, dataset


def apply_axis(config: TrainConfig, axis: str, value) -> TrainConfig:
    if axis == "lambda":
        return replace(config, lam=float(value))
    if axis == "epsilon":
        return replace(config, augmentation=replace(config.augmentation,
                                                    epsilon=float(value)))
    if axis == "k":
        if not float(value).is_integer():
            raise ValueError(f"apply_axis: k must be a whole number, got {value!r}")
        return replace(config, augmentation=replace(config.augmentation,
                                                    k=int(value)))
    if axis == "beta_mt":
        return replace(config, method="mean_teacher", beta_mt=float(value))
    if axis == "eta":
        return replace(config, eta=float(value))
    raise ValueError(f"apply_axis: unknown axis {axis!r}")


def _check_seeds(owner: str, seeds) -> None:
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise ValueError(
            f"{owner}: seeds must be nonempty, distinct and >= 0, got {list(seeds)}")


@dataclass
class RunResult:
    run_id: str
    value: float
    records: list
    error: str | None = None


def run_single(tp: TaskParams, config: TrainConfig, run_id: str) -> list:
    """One full training run derived entirely from config.seed; returns
    its per-epoch records."""
    mmap, _, dataset = build_world(tp, config.seed)
    augmenter = (None if config.method == "supervised"
                 else Augmenter(mmap, config.augmentation))
    _, _, records = training.train(config, dataset, augmenter,
                                   prng_new(config.seed, STREAM_TRAIN),
                                   run_id=run_id)
    return records


@dataclass
class SweepSpec:
    task: TaskParams
    train: TrainConfig
    axis: str
    values: list
    seeds: list

    def __post_init__(self):
        # a run id holds its value as {value:g}, so two values within 6
        # significant digits would write their runs under one id
        if not self.values or len({f"{v:g}" for v in self.values}) < len(self.values):
            raise ValueError(f"SweepSpec: values must be nonempty and distinct "
                             f"to 6 significant digits, got {self.values}")
        _check_seeds("SweepSpec", self.seeds)
        for value in self.values:  # also rejects an unknown axis
            k = apply_axis(self.train, self.axis, value).augmentation.k
            if self.axis == "k" and not 1 <= k <= self.task.latent_dim:
                raise ValueError(f"SweepSpec: k must be in [1, "
                                 f"{self.task.latent_dim}], got {value!r}")


@dataclass
class SummaryRow:
    axis_value: float
    mean_final_nll: float
    std_final_nll: float
    n_seeds: int


@dataclass
class SweepResult:
    runs: list
    summary: list


def _sweep_worker(args):
    tp, config, axis, value, seed = args
    cfg = apply_axis(replace(config, seed=seed), axis, value)
    run_id = f"{cfg.method}-{axis}{value:g}-s{seed}"
    try:
        return RunResult(run_id, value, run_single(tp, cfg, run_id))
    except Exception as exc:  # a failed point must not sink the sweep
        return RunResult(run_id, value, [], error=repr(exc))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Full factorial over values x seeds with per-value aggregation; at
    most one worker process per point."""
    work = [(spec.task, spec.train, spec.axis, value, seed)
            for value in spec.values for seed in spec.seeds]
    jobs = min(jobs, len(work))
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            runs = pool.map(_sweep_worker, work)
    else:
        runs = [_sweep_worker(w) for w in work]
    summary = []
    for value in spec.values:
        finals = [r.records[-1].test_nll for r in runs
                  if r.value == value and r.error is None]
        if finals:
            mean = float(np.mean(finals))
            std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
        else:
            mean, std = math.nan, math.nan
        summary.append(SummaryRow(axis_value=float(value), mean_final_nll=mean,
                                  std_final_nll=std, n_seeds=len(finals)))
    return SweepResult(runs=runs, summary=summary)


def sweep_records_csv(result: SweepResult) -> str:
    return training.records_to_csv(
        rec for run in sorted(result.runs, key=lambda r: r.run_id)
        for rec in run.records)


def sweep_summary_csv(result: SweepResult) -> str:
    return csv_text(("axis_value", "mean_final_nll", "std_final_nll", "n_seeds"),
                    map(astuple, result.summary))


# ---------------------------------------------------------------------------
# Harmonic interpolation on the unit square. Boundary labels are 0 on the
# u=0 side and 1 on the u=1 side, so the energy-minimizing interpolant is
# f(u, v) = u; the trained network is compared against it on a regular grid
# and probed for harmonicity with a 5-point Laplacian stencil.
# ---------------------------------------------------------------------------

@dataclass
class HarmonicConfig:
    boundary_per_side: int = 20
    n_unlabelled: int = 1000
    hidden: int = 100
    lam: float = 10.0
    epsilon: float = 0.03
    epochs: int = 400
    warmup_epochs: int = 20
    eta: float = 0.05
    momentum: float = 0.9
    batch_unlabelled: int = 100
    grid: int = 21
    seed: int = 1

    def __post_init__(self):
        if self.grid < 3:
            raise ValueError("HarmonicConfig: grid must be >= 3")
        if self.boundary_per_side < 1:
            raise ValueError("HarmonicConfig: boundary_per_side must be >= 1")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError(
                f"HarmonicConfig: warmup_epochs must be in [0, epochs], got "
                f"{self.warmup_epochs} vs {self.epochs}")


@dataclass
class HarmonicReport:
    grid_u: np.ndarray
    grid_v: np.ndarray
    grid_f: np.ndarray
    grid_analytic: np.ndarray
    abs_err: np.ndarray
    rms_error: float
    mean_abs_laplacian_init: float
    mean_abs_laplacian_trained: float
    energy_trajectory: list
    records: list


def grid_mean_abs_laplacian(f_grid: np.ndarray, spacing: float) -> float:
    """Mean absolute 5-point-stencil Laplacian over interior grid points."""
    interior = (f_grid[2:, 1:-1] + f_grid[:-2, 1:-1] + f_grid[1:-1, 2:]
                + f_grid[1:-1, :-2] - 4.0 * f_grid[1:-1, 1:-1]) / spacing ** 2
    return float(np.mean(np.abs(interior)))


def harmonic_experiment(config: HarmonicConfig):
    """Train a pi model with squared loss on boundary-labelled data and
    report grid error against f(u, v) = u plus harmonicity and energy
    diagnostics. Every draw comes from the STREAM_TRAIN stream of
    config.seed."""
    rng = prng_new(config.seed, STREAM_TRAIN)
    n_side = config.boundary_per_side
    v_pts = np.linspace(0.0, 1.0, n_side)
    x_lab = np.vstack([np.column_stack([np.zeros(n_side), v_pts]),
                       np.column_stack([np.ones(n_side), v_pts])])
    y_lab = np.concatenate([np.zeros(n_side), np.ones(n_side)])
    x_unl = rng.uniform(0.0, 1.0, size=(config.n_unlabelled, 2))

    lin = np.linspace(0.0, 1.0, config.grid)
    uu, vv = np.meshgrid(lin, lin, indexing="ij")
    grid_pts = np.column_stack([uu.ravel(), vv.ravel()])
    analytic = uu.ravel().copy()

    dataset = Dataset(z_labelled=x_lab.copy(), x_labelled=x_lab,
                      y_labelled=y_lab, z_unlabelled=x_unl.copy(),
                      x_unlabelled=x_unl, z_test=grid_pts.copy(),
                      x_test=grid_pts, y_test=analytic)
    aug = AugmentationSpec(epsilon=config.epsilon, k=2, mode="ambient")
    cfg = TrainConfig(method="pi_model", epochs=config.epochs,
                      warmup_epochs=config.warmup_epochs, lam=config.lam,
                      eta=config.eta, momentum=config.momentum,
                      batch_labelled=x_lab.shape[0],
                      batch_unlabelled=config.batch_unlabelled,
                      augmentation=aug, loss="squared", hidden=config.hidden,
                      seed=config.seed)
    params0 = network.init_network(rng, 2, config.hidden)
    spacing = lin[1] - lin[0]
    f_init = network.forward_batch(params0, grid_pts).reshape(config.grid,
                                                              config.grid)
    lap_init = grid_mean_abs_laplacian(f_init, spacing)

    energy_trajectory = []

    def on_epoch(epoch, params):
        energy_trajectory.append(
            objectives.dirichlet_energy(params, None, x_unl))

    params, _, records = training.train(
        cfg, dataset, Augmenter(None, aug), rng, params0=params0,
        epoch_hook=on_epoch, run_id=f"harmonic-s{config.seed}")

    f_grid = network.forward_batch(params, grid_pts)
    abs_err = np.abs(f_grid - analytic)
    report = HarmonicReport(
        grid_u=uu.ravel().copy(), grid_v=vv.ravel().copy(), grid_f=f_grid,
        grid_analytic=analytic, abs_err=abs_err,
        rms_error=float(np.sqrt(np.mean((f_grid - analytic) ** 2))),
        mean_abs_laplacian_init=lap_init,
        mean_abs_laplacian_trained=grid_mean_abs_laplacian(
            f_grid.reshape(config.grid, config.grid), spacing),
        energy_trajectory=energy_trajectory, records=records)
    return params, report


def harmonic_grid_csv(report: HarmonicReport) -> str:
    columns = (report.grid_u, report.grid_v, report.grid_f,
               report.grid_analytic, report.abs_err)
    return csv_text(("u", "v", "f", "analytic", "abs_err"),
                    zip(*(c.tolist() for c in columns)))


# ---------------------------------------------------------------------------
# Learning-rate study: full-batch updates with frozen augmentation draws
# against the RK4 path of the same deterministic field, compared on the
# shared step grid; the sup-norm gap should shrink roughly linearly in eta.
# ---------------------------------------------------------------------------

@dataclass
class FluidConfig:
    task: TaskParams = field(default_factory=lambda: TaskParams(
        n_unlabelled=200, n_test=0))
    etas: tuple = (0.02, 0.01, 0.005)
    horizon: float = 5.0
    lam: float = 1.0
    epsilon: float = 0.3
    k: int = 10
    hidden: int = 64
    loss: str = "logistic"
    seeds: tuple = (1, 2, 3, 4, 5)

    def __post_init__(self):
        etas = self.etas = tuple(self.etas)
        self.seeds = tuple(self.seeds)
        if not etas or len(set(etas)) < len(etas) or not all(e > 0 for e in etas):
            raise ValueError(
                f"FluidConfig: etas must be nonempty, distinct and > 0, got {list(etas)}")
        if self.horizon < max(etas):
            raise ValueError(f"FluidConfig: horizon {self.horizon} is shorter than "
                             f"the largest eta {max(etas)}")
        # each eta runs round(horizon / eta) steps; a remainder would
        # compare the etas over different horizons
        steps = [self.horizon / e for e in etas]
        if not all(math.isfinite(n) and math.isclose(n, round(n), rel_tol=1e-9)
                   for n in steps):
            raise ValueError(f"FluidConfig: horizon {self.horizon} is not a whole "
                             f"number of steps of every eta {list(etas)}")
        _check_seeds("FluidConfig", self.seeds)


@dataclass
class FluidResult:
    rows: list        # (eta, seed, sup_distance)
    mean_by_eta: list  # (eta, mean sup_distance) in config order
    ratios: list      # consecutive mean ratios


def fluid_limit_experiment(config: FluidConfig) -> FluidResult:
    rows = []
    for seed in config.seeds:
        mmap, _, dataset = build_world(config.task, seed)
        params0 = network.init_network(prng_new(seed, STREAM_TRAIN),
                                       config.task.ambient_dim, config.hidden)
        rng_frozen = prng_new(seed, STREAM_FROZEN)
        augment = Augmenter(mmap, AugmentationSpec(config.epsilon, config.k))
        frozen_aug = [augment(zs, None, rng_frozen)
                      for zs in (dataset.z_labelled, dataset.z_unlabelled)]

        def neg_grad(theta):
            return -training.frozen_objective_grads(
                params0.like(theta), dataset, frozen_aug, config.lam,
                config.loss).theta

        for eta in config.etas:
            # RK4 and Euler advance in lockstep, so no path is stored
            ode = theta = params0.theta
            sup_dist = 0.0
            for step in range(1, round(config.horizon / eta) + 1):
                ode = rk4_step(neg_grad, ode, eta)
                if not np.all(np.isfinite(ode)):
                    raise ValueError(f"fluid_limit_experiment: non-finite "
                                     f"state at t={step * eta:.6g}")
                theta = theta + eta * neg_grad(theta)
                sup_dist = max(sup_dist, float(np.linalg.norm(theta - ode)))
            rows.append((float(eta), int(seed), sup_dist))
    mean_by_eta = []
    for eta in config.etas:
        dists = [d for e, _, d in rows if e == eta]
        mean_by_eta.append((float(eta), float(np.mean(dists))))
    ratios = [mean_by_eta[i][1] / mean_by_eta[i + 1][1]
              for i in range(len(mean_by_eta) - 1)]
    return FluidResult(rows=rows, mean_by_eta=mean_by_eta, ratios=ratios)


def fluid_csv(result: FluidResult) -> str:
    return csv_text(("eta", "seed", "sup_distance"), result.rows)
