"""Scripted experiment families: axis sweeps over seeds, the unit-square
harmonic interpolation study, and the learning-rate/gradient-flow
comparison. A world is one Dataset, holding its map (build_world). Every
run derives all of its randomness from named streams of its seed, so
identical specs reproduce identical outputs byte for byte. Each returns
numbers; the command line names and writes the files.
"""

from __future__ import annotations

import copy
import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import network, objectives, training
from .manifold import (AugmentationSpec, Augmenter, Dataset, TaskParams,
                       make_manifold_map, phi_forward_batch)
from .numerics import (check_settings, fill, positive, prng_new, rk4_step,
                       setting, settings)
from .training import TrainConfig, TrainState

# named substreams of an experiment seed
STREAM_MAP = 0
STREAM_TASK = 1
STREAM_DATA = 2
STREAM_TRAIN = 3
STREAM_FROZEN = 4


def _thin_qr(a: np.ndarray) -> tuple:
    """(q, r) with a = q @ r to rounding, q's columns orthonormal and r upper
    triangular, for a of full column rank: classical Gram-Schmidt, each
    column projected out twice. It runs on BLAS alone, since np.linalg.qr
    pages in about 0.65 MB of LAPACK, which a train run's peak RSS shows."""
    q, r = np.zeros_like(a), np.zeros((a.shape[1], a.shape[1]))
    for j in range(a.shape[1]):
        v = a[:, j]
        for _ in range(2):
            h = q[:, :j].T @ v
            v = v - q[:, :j] @ h
            r[:j, j] += h
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


def build_world(tp: TaskParams, seed: int, mode: str) -> Dataset:
    """The Dataset of one experiment seed's world, perturbed in mode, with
    the map that wrote its inputs. Draw order: the map from STREAM_MAP; u
    from STREAM_TASK, made unit, and the class mean mu = (separation/2) u;
    then from STREAM_DATA the labelled, unlabelled and test latents
    y mu + N(0, I), y = +-1 balanced (an odd split's extra point positive).
    All three are drawn, then mapped. The map has no output bias, so in
    manifold mode every input is a point of span(w_out), a proper subspace
    when gen_hidden < ambient_dim: then one thin QR w_out = basis @ r, and
    the map with r in place of w_out, the one the dataset holds, writes
    gen_hidden coordinates, held with the basis. Ambient noise leaves that
    span, so ambient mode keeps full inputs."""
    mmap = make_manifold_map(prng_new(seed, STREAM_MAP), tp.latent_dim,
                             tp.gen_hidden, tp.ambient_dim)
    u = prng_new(seed, STREAM_TASK).standard_normal(tp.latent_dim)
    mu = 0.5 * tp.separation * (u / np.linalg.norm(u))
    basis = None
    if mode == "manifold" and tp.gen_hidden < tp.ambient_dim:
        basis, r = _thin_qr(mmap.w_out)
        mmap = replace(mmap, w_out=r)
    rng = prng_new(seed, STREAM_DATA)
    ys = [np.repeat([1.0, -1.0], [(n + 1) // 2, n // 2])
          for n in (tp.n_labelled, tp.n_unlabelled, tp.n_test)]
    zs = [y[:, None] * mu + rng.standard_normal((len(y), tp.latent_dim))
          for y in ys]
    xs = [phi_forward_batch(mmap, z) for z in zs]
    return Dataset(x_labelled=xs[0], y_labelled=ys[0], x_unlabelled=xs[1],
                   x_test=xs[2], y_test=ys[2], z_labelled=zs[0],
                   z_unlabelled=zs[1], basis=basis, mmap=mmap)


def _distinct(items) -> bool:
    return len(items) > 0 and len(set(items)) == len(items)


def _seeds(default, help):
    return setting(default, lambda v: _distinct(v) and min(v) >= 0,
                   "nonempty, distinct, each >= 0", help)


def value_text(value) -> str:
    """A sweep value as its run ids write it: a number as {:g}, a word as
    itself."""
    return value if isinstance(value, str) else f"{value:g}"


def _typed(axis: str, current, value):
    """value as the type of current, the setting axis names: a number as a
    float, a whole number as an int; a word is left to the setting's rule."""
    if isinstance(current, str):
        return value
    if isinstance(value, str) or not (isinstance(current, float)
                                      or float(value).is_integer()):
        kind = "number" if isinstance(current, float) else "whole number"
        raise ValueError(f"SweepSpec: {axis} must be a {kind}, got {value!r}")
    return type(current)(value)


@dataclass
class RunResult:
    """One sweep point: its run's config, which labels its records, and its
    records, or none and the error that stopped it."""
    run_id: str
    value: float | str
    config: TrainConfig
    records: list
    error: str | None = None


def run_single(config: TrainConfig) -> list:
    """One full training run in config.task's world, derived entirely from
    config.seed; returns its per-epoch records."""
    dataset = build_world(config.task, config.seed, config.augmentation.mode)
    return training.train(config, dataset,
                          TrainState(prng_new(config.seed, STREAM_TRAIN))).records


@dataclass
class SweepSpec:
    """The run train at each axis value and seed. The point of a value and
    a seed is fill(train, {axis: value, "seed": seed}), where axis names any
    setting of train's tree but its seed and each value takes that
    setting's type. Values whose points read alike (TrainConfig.reads) are
    one run, an error. Within a seed, points with an equal task and mode
    share one world, and points that read alike over their warmup share one
    warmup, trained once; each point's records are its standalone run's."""
    train: TrainConfig = field(default_factory=TrainConfig)
    axis: str = setting(
        "lambda", lambda v: v != "seed" and v in {key for key, _, _ in
                                                  settings(TrainConfig())},
        "a [task], [train] or [augment] key but seed", "swept run setting")
    # a run id holds its value as {value:g}, so two values within 6
    # significant digits would write their runs under one id
    values: tuple = setting((0.5, 1.0, 5.0, 10.0, 50.0),
                            lambda v: _distinct([value_text(x) for x in v]),
                            "nonempty, distinct to 6 significant digits or as words",
                            "axis values, numbers or words")
    seeds: tuple = _seeds((1, 2, 3, 4, 5), "seeds per value")

    def __post_init__(self):
        check_settings(self)
        current = {key: value for key, value, _ in settings(self.train)}[self.axis]
        self.values = [_typed(self.axis, current, value) for value in self.values]
        # each point checks its own settings, k <= latent_dim among them
        reads = [p.reads(p.epochs) for p in (fill(self.train, {
            self.axis: value, "seed": self.seeds[0]}) for value in self.values)]
        for i, r in enumerate(reads):
            if r in reads[:i]:
                raise ValueError(f"SweepSpec: axis {self.axis} values "
                                 f"{value_text(self.values[reads.index(r)])} and "
                                 f"{value_text(self.values[i])} are one run")


@dataclass
class SummaryRow:
    axis_value: float | str
    mean_final_nll: float
    std_final_nll: float
    n_seeds: int


@dataclass
class SweepResult:
    runs: list
    summary: list


def _groups(runs, key) -> list:
    """runs in lists whose configs agree on key, in order of first appearance."""
    groups = {}
    for run in runs:
        groups.setdefault(key(run.config), []).append(run)
    return list(groups.values())


def _seed_runs(runs: list) -> list:
    """One seed's points, RunResults without records, run in place and
    returned: one world per task and mode they hold (build_world), then one
    warmup per group of them that read alike over it (TrainConfig.reads), and
    each point's run continued from a copy of its warmup's TrainState, which
    holds the warmup's generator. A point that raises keeps no records; a
    failure in a world or a warmup fails every point that shares it."""
    for world in _groups(runs, lambda c: (astuple(c.task), c.augmentation.mode)):
        head = world[0].config
        try:
            dataset = build_world(head.task, head.seed, head.augmentation.mode)
        except Exception as exc:  # a failed world must not sink the sweep
            for run in world:
                run.error = repr(exc)
            continue
        for warmup in _groups(world, lambda c: c.reads(c.warmup_epochs)):
            head = warmup[0].config
            try:
                warm = training.train(head, dataset,
                                      TrainState(prng_new(head.seed, STREAM_TRAIN)),
                                      last_epoch=head.warmup_epochs)
            except Exception as exc:
                for run in warmup:
                    run.error = repr(exc)
                continue
            for run in warmup:
                try:
                    run.records = training.train(run.config, dataset,
                                                 copy.deepcopy(warm)).records
                except Exception as exc:
                    run.error = repr(exc)
    return runs


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Full factorial over values x seeds with per-value aggregation. Each
    seed is one task (_seed_runs), which shares worlds and warmups among its
    points as SweepSpec says; the tasks run in this process, one at a time,
    or in one pool of min(jobs, len(seeds)) workers. A task carries only
    settings, never a world or a state. Each point's records are those of
    its standalone run_single, byte for byte, and its RunResult carries the
    config that labels them. A failed point keeps no records."""
    tasks = []
    for seed in spec.seeds:
        points = [(value, fill(spec.train, {spec.axis: value, "seed": seed}))
                  for value in spec.values]
        tasks.append([RunResult(f"{config.method}-{spec.axis}{value_text(value)}"
                                f"-s{seed}", value, config, [])
                      for value, config in points])
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing  # only a parallel sweep pays for the import
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            per_seed = pool.map(_seed_runs, tasks)
    else:
        per_seed = map(_seed_runs, tasks)
    # value-major, the order failures.csv lists them in
    runs = sorted((run for seed_runs in per_seed for run in seed_runs),
                  key=lambda r: spec.values.index(r.value))
    summary = []
    for value in spec.values:
        finals = [r.records[-1].test_nll for r in runs
                  if r.value == value and r.error is None]
        mean = float(np.mean(finals)) if finals else math.nan
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else math.nan
        summary.append(SummaryRow(
            axis_value=value if isinstance(value, str) else float(value),
            mean_final_nll=mean, std_final_nll=std, n_seeds=len(finals)))
    return SweepResult(runs=runs, summary=summary)


# ---------------------------------------------------------------------------
# Harmonic interpolation on the unit square. Boundary labels are 0 on the
# u=0 side and 1 on the u=1 side, so the energy-minimizing interpolant is
# f(u, v) = u; the trained network is compared against it on a regular grid
# and probed for harmonicity with a 5-point Laplacian stencil.
# ---------------------------------------------------------------------------

@dataclass
class HarmonicConfig:
    boundary_per_side: int = setting(20, positive, ">= 1",
                                     "labelled points on each vertical edge")
    grid: int = setting(21, lambda v: v >= 3, ">= 3",
                        "evaluation grid points per side")
    # the run it trains, on the whole boundary and task.n_unlabelled interior points
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=400, warmup_epochs=20, eta=0.05, hidden=100, loss="squared",
        augmentation=AugmentationSpec(0.03, mode="ambient")))

    def __post_init__(self):
        check_settings(self)
        if self.train.loss != "squared":  # the boundary labels are 0 and 1
            raise ValueError(f"HarmonicConfig: train.loss must be squared, got "
                             f"{self.train.loss!r}")
        mode = self.train.augmentation.mode
        if mode != "ambient":  # the square has no manifold map
            raise ValueError(f"HarmonicConfig: train.augmentation.mode must be "
                             f"ambient, got {mode!r}")


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
    """Train config.train, with the whole boundary as its labelled batch, on
    boundary-labelled data and report grid error against f(u, v) = u plus
    harmonicity and energy diagnostics. Every draw comes from the
    STREAM_TRAIN stream of config.train.seed."""
    rng = prng_new(config.train.seed, STREAM_TRAIN)
    n_side = config.boundary_per_side
    v_pts = np.linspace(0.0, 1.0, n_side)
    x_lab = np.vstack([np.column_stack([np.zeros(n_side), v_pts]),
                       np.column_stack([np.ones(n_side), v_pts])])
    y_lab = np.concatenate([np.zeros(n_side), np.ones(n_side)])
    x_unl = rng.uniform(0.0, 1.0, size=(config.train.task.n_unlabelled, 2))

    lin = np.linspace(0.0, 1.0, config.grid)
    uu, vv = np.meshgrid(lin, lin, indexing="ij")
    grid_pts = np.column_stack([uu.ravel(), vv.ravel()])
    analytic = uu.ravel().copy()

    dataset = Dataset(x_labelled=x_lab, y_labelled=y_lab, x_unlabelled=x_unl,
                      x_test=grid_pts, y_test=analytic)
    cfg = replace(config.train, batch_labelled=x_lab.shape[0])
    state = training.train(cfg, dataset, TrainState(rng), last_epoch=0)
    params = state.params
    spacing = lin[1] - lin[0]
    f_init = network.forward_batch(params, grid_pts).reshape(config.grid,
                                                             config.grid)
    lap_init = grid_mean_abs_laplacian(f_init, spacing)

    # from epoch 0, one epoch per call; each call advances params in place
    energy_trajectory = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(1, cfg.epochs + 1):
                training.train(cfg, dataset, state, last_epoch=epoch)
                energy_trajectory.append(
                    objectives.dirichlet_energy(params, None, x_unl))
    except FloatingPointError as exc:
        raise ValueError(f"harmonic_experiment: {exc} in the Dirichlet energy "
                         f"of epoch {epoch}") from exc

    f_grid = network.forward_batch(params, grid_pts)
    abs_err = np.abs(f_grid - analytic)
    report = HarmonicReport(
        grid_u=uu.ravel().copy(), grid_v=vv.ravel().copy(), grid_f=f_grid,
        grid_analytic=analytic, abs_err=abs_err,
        rms_error=float(np.sqrt(np.mean((f_grid - analytic) ** 2))),
        mean_abs_laplacian_init=lap_init,
        mean_abs_laplacian_trained=grid_mean_abs_laplacian(
            f_grid.reshape(config.grid, config.grid), spacing),
        energy_trajectory=energy_trajectory, records=state.records)
    return params, report


# ---------------------------------------------------------------------------
# Learning-rate study: full-batch updates with frozen augmentation draws
# against one RK4 path of the same deterministic field per seed, integrated
# on the finest eta's grid; each eta is compared on its own grid points, and
# the sup-norm gap should shrink roughly linearly in eta.
# ---------------------------------------------------------------------------

@dataclass
class FluidConfig:
    """The learning-rate study of train, in its world train.task, built without
    the test split it never reads. From a config, train is [task], [train]
    and [augment], with [fluid] lambda, epsilon and n_unlabelled in place of
    [train] lambda, [augment] epsilon and [task] n_unlabelled. Its Euler
    paths are plain gradient steps. Per seed the field is one
    training.draw_step over every row, its augmenter train.augmentation over
    the world's map, whose draws (draws_per_sample of each point, none when
    lambda is 0) stay frozen, and each evaluation of the field is one network
    pass over it (training.frozen_objective_grads), over the inputs of its
    world (build_world): gen_hidden coordinates in manifold mode."""
    etas: tuple = setting((0.02, 0.01, 0.005),
                          lambda v: _distinct(v) and all(map(positive, v)),
                          "nonempty, distinct, each finite > 0",
                          "learning rates to compare")
    horizon: float = setting(5.0, positive, "finite, > 0", "rescaled time horizon")
    # the field's world and objective, and its frozen draws' augmentation
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lam=1.0, task=TaskParams(n_unlabelled=200)))
    seeds: tuple = _seeds((1, 2, 3, 4, 5), "seeds to average")

    def __post_init__(self):
        check_settings(self)
        etas = self.etas = tuple(self.etas)
        self.seeds = tuple(self.seeds)
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
        # each eta is compared with the reference on every eta/min(etas)-th step
        ratios = [e / min(etas) for e in etas]
        if not all(math.isclose(r, round(r), rel_tol=1e-9) for r in ratios):
            raise ValueError(f"FluidConfig: etas {list(etas)} are not all whole "
                             f"multiples of the smallest eta {min(etas)}")


@dataclass
class FluidResult:
    rows: list        # (eta, seed, sup_distance)
    mean_by_eta: list  # (eta, mean sup_distance) in config order
    ratios: list      # consecutive mean ratios


def fluid_limit_experiment(config: FluidConfig) -> FluidResult:
    """Per seed, the sup distance of each eta's Euler path from one RK4
    reference of the field, integrated at dt = min(etas). Path eta steps,
    and is compared, on every fine step that is a multiple of eta/min(etas);
    one reference state and one state per eta are held, never a path. The
    field is the pi model's; another train.method raises ValueError. Each
    seed builds its world and its field's layout once, and starts every path
    from the seed's run at epoch 0 (training.train). In manifold mode that
    network reads coordinates, first layer W1 @ basis; the part of W1 off
    the span never moves and ||dW1|| = ||dW1 @ basis||, so the distances
    match those over the full rows to rounding (about 1e-13 relative). The
    first numpy overflow, invalid value or division by zero, or non-finite
    state or distance, in the reference or an eta's path raises ValueError
    naming the path and the time."""
    train = config.train
    if train.method != "pi_model":
        raise ValueError(f"fluid_limit_experiment: method {train.method} is not "
                         f"supported; the field is the pi model's")
    fine = min(config.etas)
    strides = [round(eta / fine) for eta in config.etas]
    rows = []
    for seed in config.seeds:
        # the study reads no test split; 2 points is the fewest a world holds
        dataset = build_world(replace(train.task, n_test=2), seed,
                              train.augmentation.mode)
        params0 = training.train(train, dataset, TrainState(prng_new(
            seed, STREAM_TRAIN)), last_epoch=0).params
        layout = training.draw_step(
            train, dataset, Augmenter(dataset.mmap, train.augmentation),
            prng_new(seed, STREAM_FROZEN), slice(None),
            slice(None) if train.lam > 0 else None)
        workspace = {}

        def neg_grad(theta):
            return -training.frozen_objective_grads(
                params0.like(theta), layout, workspace).theta

        ode = params0.theta
        thetas = [params0.theta] * len(strides)
        sup_dists = [0.0] * len(strides)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for step in range(1, round(config.horizon / fine) + 1):
                    path = "reference"  # the path being advanced, for an error
                    ode = rk4_step(neg_grad, ode, fine)
                    if not np.all(np.isfinite(ode)):
                        raise FloatingPointError("non-finite state")
                    for i, (eta, stride) in enumerate(zip(config.etas, strides)):
                        if step % stride == 0:
                            path = f"eta={eta:g} path"
                            thetas[i] = thetas[i] + eta * neg_grad(thetas[i])
                            if not np.all(np.isfinite(thetas[i])):
                                raise FloatingPointError("non-finite state")
                            with np.errstate(over="ignore"):  # named below
                                dist = float(np.linalg.norm(thetas[i] - ode))
                            if not math.isfinite(dist):
                                raise FloatingPointError("non-finite distance")
                            sup_dists[i] = max(sup_dists[i], dist)
        except FloatingPointError as exc:
            raise ValueError(f"fluid_limit_experiment: {exc} in the {path} "
                             f"at t={step * fine:.6g}") from exc
        rows.extend((float(eta), int(seed), d)
                    for eta, d in zip(config.etas, sup_dists))
    mean_by_eta = [(float(eta), float(np.mean([d for e, _, d in rows if e == eta])))
                   for eta in config.etas]
    ratios = [mean_by_eta[i][1] / mean_by_eta[i + 1][1]
              for i in range(len(mean_by_eta) - 1)]
    return FluidResult(rows=rows, mean_by_eta=mean_by_eta, ratios=ratios)
