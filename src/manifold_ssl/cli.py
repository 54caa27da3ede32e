"""Command-line entry point.

The config file, then each flag as one more setting, resolve through
config.parse_config, so bad settings exit with status 2 before any run
directory exists. Every run writes its outputs into one directory named from
the subcommand, the relevant seed and a hash of the resolved configuration,
together with a manifest recording the full configuration snapshot. A
directory can be regenerated exactly from its manifest alone, whose config
passes the same checks. The output root comes from --out, the
MANIFOLD_SSL_OUT environment variable, or ./results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, experiments, network, objectives, training
from .config import (AppConfig, ConfigError, config_lines, format_value,
                     parse_config, schema_help)
from .manifold import save_dataset

MANIFEST_VERSION = 1
GRADCHECK_TOLERANCE = 1e-6

COMMANDS = ("generate", "train", "sweep", "harmonic", "fluidlimit", "gradcheck")

_METHOD_ALIASES = {"pi": "pi_model", "mt": "mean_teacher"}

# (flag, section, key): the settings each flag overrides
_FLAGS = (("seed", "train", "seed"), ("seed", "harmonic", "seed"),
          ("method", "train", "method"), ("axis", "sweep", "axis"),
          ("values", "sweep", "values"), ("seeds", "sweep", "seeds"))


def _config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def _write(run_dir: str, name: str, text: str) -> str:
    path = os.path.join(run_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return name


def _write_manifest(run_dir, command, app, outputs, timings=None):
    manifest = {"manifest_version": MANIFEST_VERSION, "command": command,
                "code_version": __version__, "config": app.raw,
                "outputs": outputs, "timings": timings}
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _execute(command: str, app: AppConfig, run_dir: str, jobs: int = 1) -> list:
    """Run one subcommand into run_dir; returns the written file names."""
    if command not in COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    outputs = []
    if command == "generate":
        seed = app.train.seed
        mmap, task, dataset = experiments.build_world(app.task, seed)
        meta = {"seed": seed, "task": app.raw["task"],
                "mu_pos": list(task.mu_pos), "mu_neg": list(task.mu_neg)}
        save_dataset(dataset, os.path.join(run_dir, "dataset"), meta=meta)
        outputs.append("dataset")
    elif command == "train":
        run_id = f"{app.train.method}-s{app.train.seed}"
        records = experiments.run_single(app.task, app.train, run_id)
        outputs.append(_write(run_dir, "records.csv",
                              training.records_to_csv(records)))
        print(f"{run_id}: final test nll {records[-1].test_nll:.4f} "
              f"acc {records[-1].test_acc:.4f}")
    elif command == "sweep":
        result = experiments.run_sweep(app.sweep, jobs=jobs)
        outputs.append(_write(run_dir, "records.csv",
                              experiments.sweep_records_csv(result)))
        outputs.append(_write(run_dir, "summary.csv",
                              experiments.sweep_summary_csv(result)))
        failures = [r for r in result.runs if r.error is not None]
        if failures:
            outputs.append(_write(run_dir, "failures.csv", training.csv_text(
                ("run_id", "error"), ((r.run_id, r.error) for r in failures))))
            print(f"warning: {len(failures)} run(s) failed; see failures.csv",
                  file=sys.stderr)
        for row in result.summary:
            print(f"{app.sweep.axis}={row.axis_value:g}: "
                  f"nll {row.mean_final_nll:.4f} +- {row.std_final_nll:.4f} "
                  f"({row.n_seeds} seeds)")
    elif command == "harmonic":
        params, report = experiments.harmonic_experiment(app.harmonic)
        outputs.append(_write(run_dir, "grid.csv",
                              experiments.harmonic_grid_csv(report)))
        outputs.append(_write(run_dir, "records.csv",
                              training.records_to_csv(report.records)))
        outputs.append(_write(run_dir, "energy.csv", training.csv_text(
            ("epoch", "dirichlet_energy"),
            enumerate(report.energy_trajectory, start=1))))
        network.save_checkpoint(params, os.path.join(run_dir, "checkpoint"))
        outputs.extend(["checkpoint.json", "checkpoint.bin"])
        print(f"harmonic: rms grid error {report.rms_error:.4f}, "
              f"mean |laplacian| {report.mean_abs_laplacian_init:.3f} -> "
              f"{report.mean_abs_laplacian_trained:.3f}")
    elif command == "fluidlimit":
        result = experiments.fluid_limit_experiment(app.fluid)
        outputs.append(_write(run_dir, "distances.csv",
                              experiments.fluid_csv(result)))
        outputs.append(_write(run_dir, "summary.csv", training.csv_text(
            ("eta", "mean_sup_distance"), result.mean_by_eta)))
        ratios = ", ".join(f"{r:.2f}" for r in result.ratios)
        print(f"fluidlimit: halving ratios {ratios}")
    elif command == "gradcheck":
        rows = objectives.gradient_check_suite()
        outputs.append(_write(run_dir, "gradcheck.csv", training.csv_text(
            ("check", "instance", "rel_err"), rows)))
        worst = max(err for _, _, err in rows)
        by_check = {}
        for name, _, err in rows:
            by_check[name] = max(by_check.get(name, 0.0), err)
        for name, err in sorted(by_check.items()):
            print(f"gradcheck {name}: max rel err {err:.3e}")
        print(f"gradcheck overall: max rel err {worst:.3e} "
              f"(tolerance {GRADCHECK_TOLERANCE:g})")
        if worst > GRADCHECK_TOLERANCE:
            raise RuntimeError(
                f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:g}")
    return outputs


def dispatch(command: str, app: AppConfig, out_root: str, jobs: int = 1) -> int:
    """Resolve the run directory, write the manifest, run, record timings."""
    if command in ("train", "harmonic", "generate"):
        seed_tag = f"s{(app.harmonic.train if command == 'harmonic' else app.train).seed}"
    else:
        seed_tag = "multi"
    run_dir = os.path.join(out_root,
                           f"{command}-{seed_tag}-{_config_hash(app.raw)}")
    os.makedirs(run_dir, exist_ok=True)
    for line in config_lines(app):
        print(line)
    print(f"output directory: {run_dir}")
    _write_manifest(run_dir, command, app, outputs=[])
    t0 = time.monotonic()
    try:
        outputs = _execute(command, app, run_dir, jobs=jobs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(run_dir, command, app, outputs=outputs,
                    timings={"wall_seconds": time.monotonic() - t0})
    return 0


def rerun_from_manifest(manifest_path: str, dest_dir: str, jobs: int = 1) -> list:
    """Regenerate a run's outputs from its manifest alone. The recorded
    config is checked like a config file; ConfigError if it fails."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ConfigError(f"{manifest_path}: unsupported manifest_version {version!r}")
    if manifest.get("command") not in COMMANDS:
        raise ConfigError(f"{manifest_path}: unknown command "
                          f"{manifest.get('command')!r}, expected one of {COMMANDS}")
    config = manifest.get("config")
    if not (isinstance(config, dict)
            and all(isinstance(keys, dict) for keys in config.values())):
        raise ConfigError(f"{manifest_path}: config is not a table of sections")
    app = parse_config(overrides=[
        (manifest_path, section, key, format_value(value))
        for section, keys in config.items()
        for key, value in keys.items()], command=manifest["command"])
    os.makedirs(dest_dir, exist_ok=True)
    return _execute(manifest["command"], app, dest_dir, jobs=jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-ssl",
        description=("Consistency-based semi-supervised learning on a "
                     "controlled synthetic data manifold."),
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--out", help="output root "
                        "(default: $MANIFOLD_SSL_OUT or ./results)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweeps: one task per "
                        "seed trains the shared warmup, then one per point")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("generate", help="materialize a dataset")
    p.add_argument("--seed")
    p = sub.add_parser("train", help="one training run")
    p.add_argument("--method", type=lambda m: _METHOD_ALIASES.get(m, m),
                   help="supervised | pi | mean_teacher")
    p.add_argument("--seed")
    p = sub.add_parser("sweep", help="axis sweep over seeds")
    p.add_argument("--axis", help="|".join(experiments.SWEEP_AXES))
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--seeds", help="comma-separated seeds")
    p = sub.add_parser("harmonic", help="unit-square interpolation study")
    p.add_argument("--seed")
    sub.add_parser("fluidlimit", help="learning-rate vs gradient-flow study")
    sub.add_parser("gradcheck", help="finite-difference verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    flags = [(f"--{flag}", section, key, getattr(args, flag))
             for flag, section, key in _FLAGS if getattr(args, flag, None) is not None]
    try:
        app = parse_config(args.config, flags, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_root = args.out or os.environ.get("MANIFOLD_SSL_OUT", "results")
    return dispatch(args.command, app, out_root, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
