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

A key's default, rule and help text are declared once, on the dataclass
field that holds the setting (``numerics.setting``). ``SCHEMA`` reads them
from the fields, and each dataclass checks the same rules for direct API
callers; only rules that span fields are code in ``__post_init__``.
"""

from __future__ import annotations

import copy
import difflib
import itertools
from dataclasses import dataclass, fields, replace

from .experiments import (FluidConfig, HarmonicConfig, SweepSpec, TaskParams,
                          SWEEP_AXES)
from .manifold import AugmentationSpec
from .numerics import config_key, positive
from .training import TrainConfig


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


@dataclass
class Key:
    parse: callable
    default: object
    check: callable = None
    constraint: str = ""
    help: str = ""


def _keys(cls, *skip) -> dict:
    """A Key for each setting field of cls, in field order and under its
    config key, with the field's default, rule and help; skip names setting
    fields that are not config keys. A value parses as its default's type,
    and a tuple default makes a comma-separated list."""
    out = {}
    for f in fields(cls):
        if f.metadata and f.name not in skip:
            d = f.default
            out[config_key(f.name)] = (
                Key(_list_of(type(d[0])), list(d), **f.metadata)
                if isinstance(d, tuple) else Key(type(d), d, **f.metadata))
    return out


# By hand: keys no field holds (fluid.n_unlabelled, [sweep]) and keys whose
# rule differs from their field's (augment.k's -1 sentinel, task.n_test >= 2).
SCHEMA = {
    "task": {**_keys(TaskParams),
             "n_test": Key(int, TaskParams().n_test, lambda v: v >= 2 and v % 2 == 0,
                           "even, >= 2", "held-out test count")},
    "augment": {**_keys(AugmentationSpec),
                "k": Key(int, -1, lambda v: v == -1 or v >= 1, "-1 (full) or >= 1",
                         "explored latent dimensions; -1 means all of them")},
    "train": _keys(TrainConfig),
    "sweep": {
        "axis": Key(str, "lambda", lambda v: v in SWEEP_AXES,
                    "|".join(SWEEP_AXES), "swept configuration axis"),
        "values": Key(_list_of(float), [0.5, 1.0, 5.0, 10.0, 50.0], None, "",
                      "axis values"),
        "seeds": Key(_list_of(int), [1, 2, 3, 4, 5], None, "", "seeds per value"),
    },
    "harmonic": _keys(HarmonicConfig),
    "fluid": {
        **_keys(FluidConfig, "hidden", "loss", "seeds"),
        "epsilon": _keys(AugmentationSpec)["epsilon"],
        "n_unlabelled": Key(int, FluidConfig().task.n_unlabelled, positive, ">= 1",
                            "unlabelled count for the comparison"),
        "seeds": _keys(FluidConfig)["seeds"],
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

    def settings(cls, section) -> dict:
        """The fields of cls that section holds, by field name."""
        return {f.name: raw[section][config_key(f.name)] for f in fields(cls)
                if config_key(f.name) in raw[section]}

    def build(section, make):
        try:
            return make()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    k = raw["task"]["latent_dim"] if raw["augment"]["k"] == -1 else raw["augment"]["k"]
    task = TaskParams(**settings(TaskParams, "task"))
    train = build("train", lambda: TrainConfig(
        augmentation=AugmentationSpec(**{**settings(AugmentationSpec, "augment"),
                                         "k": k}),
        **settings(TrainConfig, "train")))
    fluid_task = replace(task, n_test=0, n_unlabelled=raw["fluid"]["n_unlabelled"])
    return AppConfig(
        raw=raw, task=task, train=train,
        sweep=build("sweep", lambda: SweepSpec(task=task, train=train,
                                               **settings(SweepSpec, "sweep"))),
        harmonic=build("harmonic", lambda: HarmonicConfig(
            **settings(HarmonicConfig, "harmonic"))),
        fluid=build("fluid", lambda: FluidConfig(
            task=fluid_task, hidden=train.hidden, loss=train.loss,
            augmentation=replace(train.augmentation, epsilon=raw["fluid"]["epsilon"]),
            **settings(FluidConfig, "fluid"))))


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
