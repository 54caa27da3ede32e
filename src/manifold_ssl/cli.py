"""Command-line entry point.

Each subcommand is a study: a function of the resolved configuration that
returns its files, each a name mapped to a CSV table (header, rows), and
its summary lines. One loop writes the files into the run directory and
prints the lines, and the names it wrote become the manifest's
outputs. STUDIES holds every subcommand: its study, its help, its flags and
the one setting each flag sets, and the seed its run directory is named for.

The config file, then each flag as one more setting, resolve through
config.parse_config, so bad settings exit with status 2 before any run
directory exists. A run directory is named from the subcommand, the seed and
a hash of the resolved configuration, and holds a manifest recording the full
configuration snapshot. A directory can be regenerated exactly from its
manifest alone, whose config passes the same checks. The output root comes
from --out, the MANIFOLD_SSL_OUT environment variable, or ./results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, dataclass, field
from typing import Callable

from . import __version__, experiments, objectives, training
from .config import (SCHEMA, AppConfig, ConfigError, config_lines,
                     format_value, parse_config, schema_help)

MANIFEST_VERSION = 1
GRADCHECK_TOLERANCE = 1e-6

_METHOD_ALIASES = {"pi": "pi_model", "mt": "mean_teacher"}


@dataclass
class Outcome:
    """What a study hands the writer. error, when set, fails the run once
    its files are written."""
    files: dict
    lines: list
    error: str | None = None


def _train(app: AppConfig, jobs: int) -> Outcome:
    run_id = f"{app.train.method}-s{app.train.seed}"
    records = experiments.run_single(app.train)
    rows = training.record_rows(app.train, run_id, records)
    return Outcome({"records.csv": (training.CSV_HEADER, rows)},
                   [f"{run_id}: final test nll {records[-1].test_nll:.4f} "
                    f"acc {records[-1].test_acc:.4f}"])


def _sweep(app: AppConfig, jobs: int) -> Outcome:
    result = experiments.run_sweep(app.sweep, jobs=jobs)
    files = {
        "records.csv": (training.CSV_HEADER, (
            row for run in sorted(result.runs, key=lambda r: r.run_id)
            for row in training.record_rows(run.config, run.run_id, run.records))),
        "summary.csv": (("axis_value", "mean_final_nll", "std_final_nll",
                         "n_seeds"), map(astuple, result.summary))}
    lines = [f"{app.sweep.axis}={experiments.value_text(row.axis_value)}: "
             f"nll {row.mean_final_nll:.4f} +- {row.std_final_nll:.4f} "
             f"({row.n_seeds} seeds)" for row in result.summary]
    failures = [(r.run_id, r.error) for r in result.runs if r.error is not None]
    if failures:
        files["failures.csv"] = ("run_id", "error"), failures
        lines.append(f"warning: {len(failures)} run(s) failed; see failures.csv")
    return Outcome(files, lines)


def _harmonic(app: AppConfig, jobs: int) -> Outcome:
    _, report = experiments.harmonic_experiment(app.harmonic)
    run = app.harmonic.train
    grid = (report.grid_u, report.grid_v, report.grid_f, report.grid_analytic,
            report.abs_err)
    return Outcome(
        {"grid.csv": (("u", "v", "f", "analytic", "abs_err"),
                      zip(*(c.tolist() for c in grid))),
         "records.csv": (training.CSV_HEADER, training.record_rows(
             run, f"harmonic-s{run.seed}", report.records)),
         "energy.csv": (("epoch", "dirichlet_energy"),
                        enumerate(report.energy_trajectory, start=1))},
        [f"harmonic: rms grid error {report.rms_error:.4f}, "
         f"mean |laplacian| {report.mean_abs_laplacian_init:.3f} -> "
         f"{report.mean_abs_laplacian_trained:.3f}"])


def _fluidlimit(app: AppConfig, jobs: int) -> Outcome:
    result = experiments.fluid_limit_experiment(app.fluid)
    etas = [eta for eta, _ in result.mean_by_eta]
    ratios = ("mean distance ratio " + ", ".join(
        f"{r:.2f} at eta {a:g}/{b:g}" for r, a, b in zip(result.ratios, etas, etas[1:]))
        if result.ratios else "one eta gives no halving ratio")
    return Outcome({"distances.csv": (("eta", "seed", "sup_distance"), result.rows),
                    "summary.csv": (("eta", "mean_sup_distance"),
                                    result.mean_by_eta)},
                   [f"fluidlimit: {ratios}; its Euler paths take plain "
                    "gradient steps, so [train] momentum is recorded, not run"])


def _gradcheck(app: AppConfig, jobs: int) -> Outcome:
    rows = objectives.gradient_check_suite()
    by_check = {}
    for name, _, err in rows:
        by_check[name] = max(by_check.get(name, 0.0), err)
    worst = max(err for _, _, err in rows)
    lines = [f"gradcheck {name}: max rel err {err:.3e}"
             for name, err in sorted(by_check.items())]
    lines.append(f"gradcheck overall: max rel err {worst:.3e} "
                 f"(tolerance {GRADCHECK_TOLERANCE:g})")
    error = (f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:g}"
             if worst > GRADCHECK_TOLERANCE else None)
    return Outcome({"gradcheck.csv": (("check", "instance", "rel_err"), rows)},
                   lines, error)


@dataclass(frozen=True)
class Study:
    run: Callable[[AppConfig, int], Outcome]  # (app, jobs)
    help: str
    seed: Callable[[AppConfig], int] | None = None  # names the run directory
    # flag -> ((section, key) it sets, add_argument keywords)
    flags: dict = field(default_factory=dict)


STUDIES = {
    "train": Study(_train, "one training run", lambda app: app.train.seed, {
        "--method": (("train", "method"),
                     {"type": lambda m: _METHOD_ALIASES.get(m, m),
                      "help": "supervised | pi_model (pi) | mean_teacher (mt)"}),
        "--seed": (("train", "seed"), {})}),
    "sweep": Study(_sweep, "axis sweep over seeds", flags={
        "--axis": (("sweep", "axis"), {"help": SCHEMA["sweep"]["axis"].constraint}),
        "--values": (("sweep", "values"), {"help": "comma-separated axis values"}),
        "--seeds": (("sweep", "seeds"), {"help": "comma-separated seeds"})}),
    "harmonic": Study(_harmonic, "unit-square interpolation study",
                      lambda app: app.harmonic.train.seed,
                      {"--seed": (("harmonic", "seed"), {})}),
    "fluidlimit": Study(_fluidlimit, "learning-rate vs gradient-flow study"),
    "gradcheck": Study(_gradcheck, "finite-difference verification suite"),
}

COMMANDS = tuple(STUDIES)


def _config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def _write_manifest(run_dir, command, app, outputs, timings=None):
    manifest = {"manifest_version": MANIFEST_VERSION, "command": command,
                "code_version": __version__, "config": app.raw,
                "outputs": outputs, "timings": timings}
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _execute(command: str, app: AppConfig, run_dir: str, jobs: int = 1):
    """Run the command's study, write its files into run_dir and print its
    summary lines; returns the names written and the study's error."""
    outcome = STUDIES[command].run(app, jobs)
    for name, (header, rows) in outcome.files.items():
        with open(os.path.join(run_dir, name), "wb") as fh:
            fh.write(training.csv_text(header, rows).encode())
    for line in outcome.lines:
        print(line)
    return list(outcome.files), outcome.error


def dispatch(command: str, app: AppConfig, out_root: str, jobs: int = 1) -> int:
    """Resolve the run directory, write the manifest, run, record timings."""
    seed = STUDIES[command].seed
    seed_tag = "multi" if seed is None else f"s{seed(app)}"
    run_dir = os.path.join(out_root,
                           f"{command}-{seed_tag}-{_config_hash(app.raw)}")
    os.makedirs(run_dir, exist_ok=True)
    for line in config_lines(app):
        print(line)
    print(f"output directory: {run_dir}")
    _write_manifest(run_dir, command, app, outputs=[])
    t0 = time.monotonic()
    try:
        outputs, error = _execute(command, app, run_dir, jobs=jobs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(run_dir, command, app, outputs=outputs,
                    timings={"wall_seconds": time.monotonic() - t0})
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def rerun_from_manifest(manifest_path: str, dest_dir: str, jobs: int = 1) -> list:
    """Regenerate a run's outputs from its manifest alone. The recorded
    config is checked like a config file; ConfigError if it fails, and
    RuntimeError, once the files are written, if the study reports an error."""
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
    outputs, error = _execute(manifest["command"], app, dest_dir, jobs=jobs)
    if error is not None:
        raise RuntimeError(error)
    return outputs


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
                        "seed builds its worlds, trains the warmups its "
                        "points share and then each point")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, study in STUDIES.items():
        p = sub.add_parser(command, help=study.help)
        for flag, ((section, key), keywords) in study.flags.items():
            p.add_argument(flag, **{"help": f"sets [{section}] {key}", **keywords})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    flags = [(flag, section, key, value)
             for flag, ((section, key), _) in STUDIES[args.command].flags.items()
             if (value := getattr(args, flag[2:])) is not None]
    try:
        app = parse_config(args.config, flags, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_root = args.out or os.environ.get("MANIFOLD_SSL_OUT", "results")
    return dispatch(args.command, app, out_root, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
