"""Declarative run configuration.

Flat ``key = value`` lines under ``[section]`` headers. Parsing is strict:
unknown sections or keys, bad values and invariant violations are fatal and
reported with file/line/field identification. An empty (or absent) file
resolves to the documented defaults below.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from .experiments import (FluidConfig, HarmonicConfig, SweepSpec, TaskParams,
                          SWEEP_AXES)
from .manifold import AugmentationSpec
from .training import METHODS, TrainConfig


class ConfigError(Exception):
    pass


def _int(text):
    return int(text)


def _float(text):
    return float(text)


def _str(text):
    return text


def _float_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return [float(t) for t in items]


def _int_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return [int(t) for t in items]


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
        "latent_dim": Key(_int, _TASK.latent_dim, _positive, ">= 1",
                          "manifold dimension"),
        "gen_hidden": Key(_int, _TASK.gen_hidden, _positive, ">= 1",
                          "generator hidden width"),
        "ambient_dim": Key(_int, _TASK.ambient_dim, _positive, ">= 1",
                           "ambient dimension"),
        "n_labelled": Key(_int, _TASK.n_labelled, lambda v: v >= 2 and v % 2 == 0,
                          "even, >= 2", "labelled sample count"),
        "n_unlabelled": Key(_int, _TASK.n_unlabelled, _positive, ">= 1",
                            "unlabelled count"),
        "n_test": Key(_int, _TASK.n_test, lambda v: v >= 2 and v % 2 == 0,
                      "even, >= 2", "held-out test count"),
        "separation": Key(_float, _TASK.separation, _positive, "> 0",
                          "distance between latent class means"),
    },
    "augment": {
        "epsilon": Key(_float, _AUG.epsilon, _nonneg, ">= 0", "perturbation amount"),
        "k": Key(_int, -1, lambda v: v == -1 or v >= 1, "-1 (full) or >= 1",
                 "explored latent dimensions; -1 means all of them"),
        "mode": Key(_str, _AUG.mode, lambda v: v in ("manifold", "ambient"),
                    "manifold|ambient", "perturb in latent or ambient space"),
    },
    "train": {
        "method": Key(_str, _TRAIN.method, lambda v: v in METHODS,
                      "|".join(METHODS), "training method"),
        "epochs": Key(_int, _TRAIN.epochs, _positive, ">= 1", "training epochs"),
        "warmup_epochs": Key(_int, _TRAIN.warmup_epochs, _nonneg, ">= 0",
                             "supervised-only epochs before the consistency term"),
        "lambda": Key(_float, _TRAIN.lam, _nonneg, ">= 0", "consistency weight"),
        "eta": Key(_float, _TRAIN.eta, _positive, "> 0", "learning rate"),
        "momentum": Key(_float, _TRAIN.momentum, _unit_interval_left, "[0, 1)",
                        "heavy-ball momentum"),
        "batch_labelled": Key(_int, _TRAIN.batch_labelled, _positive, ">= 1",
                              "labelled batch size"),
        "batch_unlabelled": Key(_int, _TRAIN.batch_unlabelled, _positive, ">= 1",
                                "unlabelled batch size"),
        "beta_mt": Key(_float, _TRAIN.beta_mt, _unit_interval_left, "[0, 1)",
                       "teacher averaging coefficient"),
        "draws_per_sample": Key(_int, _TRAIN.draws_per_sample, _positive, ">= 1",
                                "augmentation draws per sample per step"),
        "loss": Key(_str, _TRAIN.loss, lambda v: v in ("logistic", "squared"),
                    "logistic|squared", "supervised loss"),
        "hidden": Key(_int, _TRAIN.hidden, _positive, ">= 1", "learner hidden width"),
        "seed": Key(_int, _TRAIN.seed, _nonneg, ">= 0", "run seed"),
    },
    "sweep": {
        "axis": Key(_str, "lambda", lambda v: v in SWEEP_AXES,
                    "|".join(SWEEP_AXES), "swept configuration axis"),
        "values": Key(_float_list, [0.5, 1.0, 5.0, 10.0, 50.0], None, "",
                      "axis values"),
        "seeds": Key(_int_list, [1, 2, 3, 4, 5], None, "", "seeds per value"),
    },
    "harmonic": {
        "boundary_per_side": Key(_int, _HARMONIC.boundary_per_side, _positive, ">= 1",
                                 "labelled points on each vertical edge"),
        "n_unlabelled": Key(_int, _HARMONIC.n_unlabelled, _positive, ">= 1",
                            "uniform interior points"),
        "hidden": Key(_int, _HARMONIC.hidden, _positive, ">= 1", "learner hidden width"),
        "lambda": Key(_float, _HARMONIC.lam, _nonneg, ">= 0", "consistency weight"),
        "epsilon": Key(_float, _HARMONIC.epsilon, _nonneg, ">= 0", "ambient noise scale"),
        "epochs": Key(_int, _HARMONIC.epochs, _positive, ">= 1", "training epochs"),
        "warmup_epochs": Key(_int, _HARMONIC.warmup_epochs, _nonneg, ">= 0",
                             "supervised-only epochs"),
        "eta": Key(_float, _HARMONIC.eta, _positive, "> 0", "learning rate"),
        "momentum": Key(_float, _HARMONIC.momentum, _unit_interval_left, "[0, 1)",
                        "heavy-ball momentum"),
        "batch_unlabelled": Key(_int, _HARMONIC.batch_unlabelled, _positive, ">= 1",
                                "unlabelled batch size"),
        "grid": Key(_int, _HARMONIC.grid, lambda v: v >= 3, ">= 3",
                    "evaluation grid points per side"),
        "seed": Key(_int, _HARMONIC.seed, _nonneg, ">= 0", "run seed"),
    },
    "fluid": {
        "etas": Key(_float_list, list(_FLUID.etas), None, "",
                    "learning rates to compare"),
        "horizon": Key(_float, _FLUID.horizon, _positive, "> 0", "rescaled time horizon"),
        "lambda": Key(_float, _FLUID.lam, _nonneg, ">= 0", "consistency weight"),
        "epsilon": Key(_float, _FLUID.epsilon, _nonneg, ">= 0", "perturbation amount"),
        "n_unlabelled": Key(_int, _FLUID.task.n_unlabelled, _positive, ">= 1",
                            "unlabelled count for the comparison"),
        "seeds": Key(_int_list, list(_FLUID.seeds), None, "", "seeds to average"),
    },
}


@dataclass
class AppConfig:
    """Fully resolved configuration; raw maps section -> key -> value."""
    raw: dict

    def get(self, section, key):
        return self.raw[section][key]

    def _k(self):
        k = self.get("augment", "k")
        return self.get("task", "latent_dim") if k == -1 else k

    def task_params(self) -> TaskParams:
        t = self.raw["task"]
        return TaskParams(latent_dim=t["latent_dim"], gen_hidden=t["gen_hidden"],
                          ambient_dim=t["ambient_dim"], n_labelled=t["n_labelled"],
                          n_unlabelled=t["n_unlabelled"], n_test=t["n_test"],
                          separation=t["separation"])

    def augmentation(self) -> AugmentationSpec:
        a = self.raw["augment"]
        return AugmentationSpec(epsilon=a["epsilon"], k=self._k(), mode=a["mode"])

    def train_config(self) -> TrainConfig:
        t = self.raw["train"]
        return TrainConfig(method=t["method"], epochs=t["epochs"],
                           warmup_epochs=t["warmup_epochs"], lam=t["lambda"],
                           eta=t["eta"], momentum=t["momentum"],
                           batch_labelled=t["batch_labelled"],
                           batch_unlabelled=t["batch_unlabelled"],
                           augmentation=self.augmentation(),
                           beta_mt=t["beta_mt"],
                           draws_per_sample=t["draws_per_sample"],
                           loss=t["loss"], hidden=t["hidden"], seed=t["seed"])

    def sweep_spec(self) -> SweepSpec:
        s = self.raw["sweep"]
        return SweepSpec(task=self.task_params(), train=self.train_config(),
                         axis=s["axis"], values=list(s["values"]),
                         seeds=list(s["seeds"]))

    def harmonic_config(self) -> HarmonicConfig:
        h = self.raw["harmonic"]
        return HarmonicConfig(boundary_per_side=h["boundary_per_side"],
                              n_unlabelled=h["n_unlabelled"], hidden=h["hidden"],
                              lam=h["lambda"], epsilon=h["epsilon"],
                              epochs=h["epochs"],
                              warmup_epochs=h["warmup_epochs"], eta=h["eta"],
                              momentum=h["momentum"],
                              batch_unlabelled=h["batch_unlabelled"],
                              grid=h["grid"], seed=h["seed"])

    def fluid_config(self) -> FluidConfig:
        f = self.raw["fluid"]
        t = self.task_params()
        task = TaskParams(latent_dim=t.latent_dim, gen_hidden=t.gen_hidden,
                          ambient_dim=t.ambient_dim, n_labelled=t.n_labelled,
                          n_unlabelled=f["n_unlabelled"], n_test=0,
                          separation=t.separation)
        return FluidConfig(task=task, etas=tuple(f["etas"]),
                           horizon=f["horizon"], lam=f["lambda"],
                           epsilon=f["epsilon"], k=self._k(),
                           hidden=self.get("train", "hidden"),
                           loss=self.get("train", "loss"),
                           seeds=tuple(f["seeds"]))


def _defaults() -> dict:
    return {section: {key: spec.default for key, spec in keys.items()}
            for section, keys in SCHEMA.items()}


def _suggest(word, candidates):
    match = difflib.get_close_matches(word, candidates, n=1)
    return f", did you mean {match[0]!r}?" if match else ""


def _cross_validate(raw):
    k = raw["augment"]["k"]
    if k != -1 and k > raw["task"]["latent_dim"]:
        raise ConfigError(
            f"augment.k: must be <= task.latent_dim "
            f"({raw['task']['latent_dim']}), got {k}")
    for section in ("train", "harmonic"):
        if raw[section]["warmup_epochs"] > raw[section]["epochs"]:
            raise ConfigError(
                f"{section}.warmup_epochs: must be <= {section}.epochs, got "
                f"{raw[section]['warmup_epochs']} vs {raw[section]['epochs']}")


def parse_config(path: str | None = None) -> AppConfig:
    """Parse a config file; path=None resolves to pure defaults."""
    raw = _defaults()
    if path is None:
        _cross_validate(raw)
        return AppConfig(raw=raw)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc

    section = None
    seen = set()
    for lineno, raw_line in enumerate(lines, 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: malformed section header")
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section [{name}]"
                    f"{_suggest(name, SCHEMA.keys())}")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(
                f"{path}:{lineno}: key outside any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} in [{section}]"
                f"{_suggest(key, SCHEMA[section].keys())}")
        if (section, key) in seen:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {section}.{key}")
        seen.add((section, key))
        spec = SCHEMA[section][key]
        try:
            parsed = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: {section}.{key}: cannot parse "
                f"{value!r} ({exc})") from exc
        if spec.check is not None and not spec.check(parsed):
            raise ConfigError(
                f"{path}:{lineno}: {section}.{key}: value {parsed!r} violates "
                f"constraint {spec.constraint}")
        raw[section][key] = parsed
    _cross_validate(raw)
    return AppConfig(raw=raw)


def config_lines(app: AppConfig) -> list:
    """Resolved configuration as config-file-format lines."""
    out = []
    for section, keys in SCHEMA.items():
        out.append(f"[{section}]")
        for key in keys:
            value = app.raw[section][key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            out.append(f"{key} = {value}")
        out.append("")
    return out


def schema_help() -> str:
    """Every config key with its default, for --help."""
    out = ["configuration keys (flat 'key = value' under [section] headers):"]
    for section, keys in SCHEMA.items():
        out.append(f"  [{section}]")
        for key, spec in keys.items():
            default = spec.default
            if isinstance(default, list):
                default = ",".join(str(v) for v in default)
            constraint = f" ({spec.constraint})" if spec.constraint else ""
            out.append(f"    {key} = {default}{constraint}  -- {spec.help}")
    return "\n".join(out)
