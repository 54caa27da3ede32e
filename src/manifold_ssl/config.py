"""Declarative run configuration.

Flat ``key = value`` lines under ``[section]`` headers. ``parse_config`` is
the only way a run's settings enter the program. It starts from the
documented defaults below, then applies the lines of the config file, then
the overrides (command-line flags, or the config recorded in a manifest).
Each setting is parsed and checked against ``SCHEMA`` on its own and
reported with its file:line, flag or manifest. Then every section is built
into its dataclass, so every invariant those enforce fails before anything
runs. Parsing is strict: unknown sections or keys, bad values and invariant
violations are fatal. An empty (or absent) file resolves to the defaults.
"""

from __future__ import annotations

import copy
import difflib
import itertools
from dataclasses import dataclass, replace

from .experiments import (FluidConfig, HarmonicConfig, SweepSpec, TaskParams,
                          SWEEP_AXES)
from .manifold import AugmentationSpec
from .training import METHODS, TrainConfig


class ConfigError(Exception):
    pass


def _list_of(item):
    """Parser of a nonempty comma-separated list of item(text) values."""
    def parse(text):
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            raise ValueError("expected a comma-separated list")
        return [item(t) for t in items]
    return parse


def _positive(v):
    return v > 0


def _nonneg(v):
    return v >= 0


def _unit_interval_left(v):
    return 0 <= v < 1


@dataclass
class Key:
    parse: callable
    default: object
    check: callable = None
    constraint: str = ""
    help: str = ""


# Defaults come from the dataclasses the sections build; only the sweep
# lists and the augment.k sentinel have no dataclass to hold them.
_TASK = TaskParams()
_AUG = AugmentationSpec()
_TRAIN = TrainConfig()
_HARMONIC = HarmonicConfig()
_FLUID = FluidConfig()

SCHEMA = {
    "task": {
        "latent_dim": Key(int, _TASK.latent_dim, _positive, ">= 1",
                          "manifold dimension"),
        "gen_hidden": Key(int, _TASK.gen_hidden, _positive, ">= 1",
                          "generator hidden width"),
        "ambient_dim": Key(int, _TASK.ambient_dim, _positive, ">= 1",
                           "ambient dimension"),
        "n_labelled": Key(int, _TASK.n_labelled, lambda v: v >= 2 and v % 2 == 0,
                          "even, >= 2", "labelled sample count"),
        "n_unlabelled": Key(int, _TASK.n_unlabelled, _positive, ">= 1",
                            "unlabelled count"),
        "n_test": Key(int, _TASK.n_test, lambda v: v >= 2 and v % 2 == 0,
                      "even, >= 2", "held-out test count"),
        "separation": Key(float, _TASK.separation, _positive, "> 0",
                          "distance between latent class means"),
    },
    "augment": {
        "epsilon": Key(float, _AUG.epsilon, _nonneg, ">= 0", "perturbation amount"),
        "k": Key(int, -1, lambda v: v == -1 or v >= 1, "-1 (full) or >= 1",
                 "explored latent dimensions; -1 means all of them"),
        "mode": Key(str, _AUG.mode, lambda v: v in ("manifold", "ambient"),
                    "manifold|ambient", "perturb in latent or ambient space"),
    },
    "train": {
        "method": Key(str, _TRAIN.method, lambda v: v in METHODS,
                      "|".join(METHODS), "training method"),
        "epochs": Key(int, _TRAIN.epochs, _positive, ">= 1", "training epochs"),
        "warmup_epochs": Key(int, _TRAIN.warmup_epochs, _nonneg, ">= 0",
                             "supervised-only epochs before the consistency term"),
        "lambda": Key(float, _TRAIN.lam, _nonneg, ">= 0", "consistency weight"),
        "eta": Key(float, _TRAIN.eta, _positive, "> 0", "learning rate"),
        "momentum": Key(float, _TRAIN.momentum, _unit_interval_left, "[0, 1)",
                        "heavy-ball momentum"),
        "batch_labelled": Key(int, _TRAIN.batch_labelled, _positive, ">= 1",
                              "labelled batch size"),
        "batch_unlabelled": Key(int, _TRAIN.batch_unlabelled, _positive, ">= 1",
                                "unlabelled batch size"),
        "beta_mt": Key(float, _TRAIN.beta_mt, _unit_interval_left, "[0, 1)",
                       "teacher averaging coefficient"),
        "draws_per_sample": Key(int, _TRAIN.draws_per_sample, _positive, ">= 1",
                                "augmentation draws per sample per step"),
        "loss": Key(str, _TRAIN.loss, lambda v: v in ("logistic", "squared"),
                    "logistic|squared", "supervised loss"),
        "hidden": Key(int, _TRAIN.hidden, _positive, ">= 1", "learner hidden width"),
        "seed": Key(int, _TRAIN.seed, _nonneg, ">= 0", "run seed"),
    },
    "sweep": {
        "axis": Key(str, "lambda", lambda v: v in SWEEP_AXES,
                    "|".join(SWEEP_AXES), "swept configuration axis"),
        "values": Key(_list_of(float), [0.5, 1.0, 5.0, 10.0, 50.0], None, "",
                      "axis values"),
        "seeds": Key(_list_of(int), [1, 2, 3, 4, 5], None, "", "seeds per value"),
    },
    "harmonic": {
        "boundary_per_side": Key(int, _HARMONIC.boundary_per_side, _positive, ">= 1",
                                 "labelled points on each vertical edge"),
        "n_unlabelled": Key(int, _HARMONIC.n_unlabelled, _positive, ">= 1",
                            "uniform interior points"),
        "hidden": Key(int, _HARMONIC.hidden, _positive, ">= 1", "learner hidden width"),
        "lambda": Key(float, _HARMONIC.lam, _nonneg, ">= 0", "consistency weight"),
        "epsilon": Key(float, _HARMONIC.epsilon, _nonneg, ">= 0", "ambient noise scale"),
        "epochs": Key(int, _HARMONIC.epochs, _positive, ">= 1", "training epochs"),
        "warmup_epochs": Key(int, _HARMONIC.warmup_epochs, _nonneg, ">= 0",
                             "supervised-only epochs"),
        "eta": Key(float, _HARMONIC.eta, _positive, "> 0", "learning rate"),
        "momentum": Key(float, _HARMONIC.momentum, _unit_interval_left, "[0, 1)",
                        "heavy-ball momentum"),
        "batch_unlabelled": Key(int, _HARMONIC.batch_unlabelled, _positive, ">= 1",
                                "unlabelled batch size"),
        "grid": Key(int, _HARMONIC.grid, lambda v: v >= 3, ">= 3",
                    "evaluation grid points per side"),
        "seed": Key(int, _HARMONIC.seed, _nonneg, ">= 0", "run seed"),
    },
    "fluid": {
        "etas": Key(_list_of(float), list(_FLUID.etas), None, "",
                    "learning rates to compare"),
        "horizon": Key(float, _FLUID.horizon, _positive, "> 0", "rescaled time horizon"),
        "lambda": Key(float, _FLUID.lam, _nonneg, ">= 0", "consistency weight"),
        "epsilon": Key(float, _FLUID.epsilon, _nonneg, ">= 0", "perturbation amount"),
        "n_unlabelled": Key(int, _FLUID.task.n_unlabelled, _positive, ">= 1",
                            "unlabelled count for the comparison"),
        "seeds": Key(_list_of(int), list(_FLUID.seeds), None, "", "seeds to average"),
    },
}


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved configuration: raw maps section -> key -> value (the
    manifest record and the input to the config hash); the other fields are
    the dataclasses built from it."""
    raw: dict
    task: TaskParams
    train: TrainConfig
    sweep: SweepSpec
    harmonic: HarmonicConfig
    fluid: FluidConfig


def _suggest(word, candidates):
    match = difflib.get_close_matches(word, candidates, n=1)
    return f", did you mean {match[0]!r}?" if match else ""


def _unknown_section(where, name) -> ConfigError:
    return ConfigError(f"{where}: unknown section [{name}]{_suggest(name, SCHEMA.keys())}")


def _file_settings(path):
    """(where, section, key, text) for each setting line of the file."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    section = None
    seen = set()
    for lineno, raw_line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: malformed section header")
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise _unknown_section(where, section)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) in seen:
            raise ConfigError(f"{where}: duplicate key {section}.{key}")
        seen.add((section, key))
        yield where, section, key, value.strip()


def _assign(raw, where, section, key, text):
    """Parse and check one setting against SCHEMA and store it in raw."""
    if section not in SCHEMA:
        raise _unknown_section(where, section)
    if key not in SCHEMA[section]:
        raise ConfigError(
            f"{where}: unknown key {key!r} in [{section}]"
            f"{_suggest(key, SCHEMA[section].keys())}")
    spec = SCHEMA[section][key]
    try:
        parsed = spec.parse(text)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: {section}.{key}: cannot parse {text!r} ({exc})") from exc
    if spec.check is not None and not spec.check(parsed):
        raise ConfigError(
            f"{where}: {section}.{key}: value {parsed!r} violates "
            f"constraint {spec.constraint}")
    raw[section][key] = parsed


def parse_config(path: str | None = None, overrides=()) -> AppConfig:
    """Resolve a run's settings: the defaults, then the lines of the file at
    path (none when path is None), then overrides, each a (where, section,
    key, text) tuple whose errors name `where`. Every section is then built
    into its dataclass once, so each invariant is checked before anything
    runs, and the AppConfig holds what was built."""
    raw = {section: {key: copy.copy(spec.default) for key, spec in keys.items()}
           for section, keys in SCHEMA.items()}
    settings = () if path is None else _file_settings(path)
    for where, section, key, text in itertools.chain(settings, overrides):
        _assign(raw, where, section, key, text)
    if raw["augment"]["k"] > raw["task"]["latent_dim"]:
        raise ConfigError(
            f"augment.k: must be <= task.latent_dim "
            f"({raw['task']['latent_dim']}), got {raw['augment']['k']}")

    def fields(section, *skip) -> dict:
        """A section's keys as dataclass fields; only 'lambda' is renamed."""
        return {("lam" if key == "lambda" else key): value
                for key, value in raw[section].items() if key not in skip}

    def build(section, make):
        try:
            return make()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    k = raw["task"]["latent_dim"] if raw["augment"]["k"] == -1 else raw["augment"]["k"]
    task = TaskParams(**fields("task"))
    train = build("train", lambda: TrainConfig(
        augmentation=AugmentationSpec(k=k, **fields("augment", "k")),
        **fields("train")))
    fluid_task = replace(task, n_test=0, n_unlabelled=raw["fluid"]["n_unlabelled"])
    return AppConfig(
        raw=raw, task=task, train=train,
        sweep=build("sweep", lambda: SweepSpec(task=task, train=train,
                                               **fields("sweep"))),
        harmonic=build("harmonic", lambda: HarmonicConfig(**fields("harmonic"))),
        fluid=build("fluid", lambda: FluidConfig(
            task=fluid_task, k=k, hidden=train.hidden, loss=train.loss,
            **fields("fluid", "n_unlabelled"))))


def format_value(value) -> str:
    """A setting as config-file text; lists are comma-separated."""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def config_lines(app: AppConfig) -> list:
    """Resolved configuration as config-file-format lines."""
    out = []
    for section, keys in SCHEMA.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {format_value(app.raw[section][key])}" for key in keys)
        out.append("")
    return out


def schema_help() -> str:
    """Every config key with its default, for --help."""
    out = ["configuration keys (flat 'key = value' under [section] headers):"]
    for section, keys in SCHEMA.items():
        out.append(f"  [{section}]")
        for key, spec in keys.items():
            constraint = f" ({spec.constraint})" if spec.constraint else ""
            out.append(f"    {key} = {format_value(spec.default)}{constraint}"
                       f"  -- {spec.help}")
    return "\n".join(out)
