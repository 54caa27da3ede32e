"""The benchmark's four workloads and the checks on what they write.

Each workload is one manifold-ssl subcommand with a config file the
benchmark writes. Only the values the workload is defined by are pinned;
everything else is the shipped default, so a later change of a default shows
in the numbers. Two workloads depart from a shipped default, and each of
them also runs that default once, untimed and cut only in epochs or seeds,
as a known-failure probe: pi_train (shipped lambda) and fluid (shipped
horizon and seeds).

A check reads a run's output directory and its exit code and returns an
Outcome: operations attempted and failed, SGD steps completed (counted from
the resolved config in the manifest; 0 for a failed run or one that fails
its check), the result value and a description of any failed check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

GRADCHECK_TOLERANCE = 1e-6

# result_error of an operation that produced no result: large, so that a
# failure reads as a regression and not as an improvement.
NO_RESULT = 1e9


@dataclass
class Outcome:
    attempted: int
    failed: int
    steps: int
    result_error: float
    info: dict = field(default_factory=dict)
    problem: str | None = None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_config(run_dir: Path) -> dict:
    with open(run_dir / "manifest.json") as fh:
        return json.load(fh)["config"]


def _nonfinite(rows, columns) -> str | None:
    for i, row in enumerate(rows):
        for col in columns:
            if not math.isfinite(float(row[col])):
                return f"non-finite {col} in row {i + 1}"
    return None


RECORD_COLUMNS = ("train_loss", "test_nll", "test_acc", "consistency_value")


def _steps_per_epoch(n_unlabelled, batch_unlabelled) -> int:
    return max(1, math.ceil(n_unlabelled / batch_unlabelled))


def check_train(run_dir: Path, exit_code: int) -> Outcome:
    cfg = _manifest_config(run_dir)
    epochs = cfg["train"]["epochs"]
    if exit_code != 0:
        return Outcome(1, 1, 0, NO_RESULT)
    rows = _read_csv(run_dir / "records.csv")
    if len(rows) != epochs:
        return Outcome(1, 0, 0, NO_RESULT,
                       problem=f"{len(rows)} records for {epochs} epochs")
    problem = _nonfinite(rows, RECORD_COLUMNS)
    last = rows[-1]
    steps = epochs * _steps_per_epoch(cfg["task"]["n_unlabelled"],
                                      cfg["train"]["batch_unlabelled"])
    return Outcome(1, 0, 0 if problem else steps, float(last["test_nll"]),
                   {"test_nll": float(last["test_nll"]),
                    "test_acc": float(last["test_acc"])}, problem)


def check_sweep(run_dir: Path, exit_code: int) -> Outcome:
    """One operation per sweep point; a diverged point is a failed one."""
    cfg = _manifest_config(run_dir)
    points = len(cfg["sweep"]["values"]) * len(cfg["sweep"]["seeds"])
    epochs = cfg["train"]["epochs"]
    if exit_code != 0:
        return Outcome(points, points, 0, NO_RESULT)
    rows = _read_csv(run_dir / "records.csv")
    runs: dict[str, list] = {}
    for row in rows:
        runs.setdefault(row["run_id"], []).append(row)
    failures_csv = run_dir / "failures.csv"
    failed = len(_read_csv(failures_csv)) if failures_csv.exists() else 0
    problem = _nonfinite(rows, RECORD_COLUMNS)
    if len(runs) + failed != points:
        problem = f"{len(runs)} completed + {failed} failed != {points} points"
    if any(len(recs) != epochs for recs in runs.values()):
        problem = f"a completed point has fewer than {epochs} records"
    finals = [float(recs[-1]["test_nll"]) for recs in runs.values()]
    steps = len(runs) * epochs * _steps_per_epoch(
        cfg["task"]["n_unlabelled"], cfg["train"]["batch_unlabelled"])
    # the best point is what a sweep is run for; completing more points
    # can only improve it
    best = min(finals) if finals else NO_RESULT
    return Outcome(points, failed, 0 if problem else steps, best,
                   {"best_final_test_nll": best}, problem)


def check_fluid(run_dir: Path, exit_code: int) -> Outcome:
    cfg = _manifest_config(run_dir)["fluid"]
    steps = len(cfg["seeds"]) * sum(round(cfg["horizon"] / eta)
                                    for eta in cfg["etas"])
    if exit_code != 0:
        return Outcome(1, 1, 0, NO_RESULT)
    dists = [float(r["sup_distance"])
             for r in _read_csv(run_dir / "distances.csv")]
    means = [float(r["mean_sup_distance"])
             for r in _read_csv(run_dir / "summary.csv")]
    ratios = [a / b for a, b in zip(means, means[1:])]
    problem = None
    if len(dists) != len(cfg["seeds"]) * len(cfg["etas"]):
        problem = f"{len(dists)} distances for {len(cfg['seeds'])} seeds"
    if not all(math.isfinite(v) for v in dists + means):
        problem = "non-finite distance"
    if not all(math.isfinite(r) and r > 1 for r in ratios):
        problem = f"halving ratios {ratios} not all finite and above 1"
    return Outcome(1, 0, 0 if problem else steps, means[-1],
                   {"halving_ratios": ratios,
                    "finest_mean_sup_distance": means[-1]}, problem)


def check_harmonic(run_dir: Path, exit_code: int) -> Outcome:
    cfg = _manifest_config(run_dir)["harmonic"]
    if exit_code != 0:
        return Outcome(1, 1, 0, NO_RESULT)
    grid = _read_csv(run_dir / "grid.csv")
    records = _read_csv(run_dir / "records.csv")
    energy = _read_csv(run_dir / "energy.csv")
    # squared loss: test_acc is nan by design
    problem = (_nonfinite(records, ("train_loss", "test_nll",
                                    "consistency_value"))
               or _nonfinite(grid, ("f", "abs_err"))
               or _nonfinite(energy, ("dirichlet_energy",)))
    if len(grid) != cfg["grid"] ** 2:
        problem = f"grid.csv has {len(grid)} rows, not {cfg['grid'] ** 2}"
    rms = math.sqrt(sum((float(r["f"]) - float(r["analytic"])) ** 2
                        for r in grid) / max(1, len(grid)))
    steps = cfg["epochs"] * _steps_per_epoch(cfg["n_unlabelled"],
                                             cfg["batch_unlabelled"])
    return Outcome(1, 0, 0 if problem else steps, rms, {"rms_error": rms},
                   problem)


def check_gradcheck(run_dir: Path, exit_code: int) -> str | None:
    """The correctness gate: None when every analytic gradient passes."""
    path = run_dir / "gradcheck.csv"
    if not path.exists():
        return f"gradcheck wrote nothing (exit code {exit_code})"
    worst = max(float(r["rel_err"]) for r in _read_csv(path))
    if exit_code != 0 or not worst <= GRADCHECK_TOLERANCE:
        return f"gradcheck max relative error {worst:.3e}"
    return None


def output_hash(out_root: Path) -> str:
    """sha256 over every file a run wrote, without the manifest timings."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timings", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(str(path.relative_to(out_root)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict            # section -> key -> value
    check: object           # (run_dir, exit_code) -> Outcome
    tiny: dict              # overrides for the self-test scale
    probe: dict | None = None  # shipped-default config cut in epochs/seeds


def config_text(config: dict, overrides: dict | None = None) -> str:
    lines = []
    for section in sorted(set(config) | set(overrides or {})):
        lines.append(f"[{section}]")
        values = {**config.get(section, {}), **(overrides or {}).get(section, {})}
        for key, value in values.items():
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "pi_train", "train",
        {"train": {"method": "pi_model", "lambda": 1.0, "epochs": 200,
                   "seed": 1}},
        check_train, tiny={"train": {"epochs": 26}},
        probe={"train": {"epochs": 30}}),
    Workload(
        "mt_sweep", "sweep",
        {"train": {"method": "mean_teacher", "epochs": 50,
                   "warmup_epochs": 25},
         "sweep": {"seeds": [1, 2]}},
        check_sweep, tiny={"train": {"epochs": 26}}),
    Workload(
        "fluid", "fluidlimit",
        {"fluid": {"horizon": 0.5, "seeds": [1, 2, 3]}},
        check_fluid, tiny={"fluid": {"horizon": 0.02}},
        probe={"fluid": {"seeds": [1]}}),
    Workload(
        "harmonic", "harmonic",
        {"harmonic": {"epochs": 150}},
        check_harmonic, tiny={"harmonic": {"epochs": 21}}),
)}
