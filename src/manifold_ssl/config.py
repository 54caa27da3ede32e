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

A key's rule and help are declared once, on the dataclass field that holds
the setting (``numerics.setting``); its default is the value a default
instance of the section's dataclass holds there. Written here are only the
parse of ``[sweep] values`` and the keys that ``[harmonic]`` and ``[fluid]``
list from their trees. ``numerics.fill`` sets a section's keys by name
anywhere in that dataclass's tree (``[harmonic] lambda`` is
``HarmonicConfig.train.lam``) and rejects a key that names no setting there.
Each dataclass checks the same rules for direct API callers; only rules that
span fields are code.
"""

from __future__ import annotations

import copy
import difflib
import itertools
from dataclasses import dataclass, fields, replace

from .experiments import FluidConfig, HarmonicConfig, SweepSpec
from .manifold import AugmentationSpec, TaskParams
from .numerics import config_key, fill, settings
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


def _key_tree(obj):
    """(config key, Key) of each setting field in obj's dataclass tree: the
    default is obj's value, which a value parses as (a tuple as a
    comma-separated list), and the rule and help are the field's."""
    for key, d, f in settings(obj):
        yield key, (Key(_list_of(type(d[0])), list(d), **f.metadata)
                    if isinstance(d, tuple) else Key(type(d), d, **f.metadata))


def _number_or_word(text):
    """A sweep value: a number where text is one, else the word itself.
    SweepSpec gives it the type of the setting its axis names."""
    try:
        return float(text)
    except ValueError:
        return text


def _keys(default, *names) -> dict:
    """The Keys of default's tree that names lists, in that order; by default
    those of default's own setting fields, in field order."""
    tree = dict(_key_tree(default))
    return {key: tree[key] for key in
            names or [config_key(f.name) for f in fields(default) if f.metadata]}


# By hand: sweep.values' parse and the [harmonic] and [fluid] key lists.
_SWEEP = _keys(SweepSpec())
SCHEMA = {
    "task": _keys(TaskParams()),
    "augment": _keys(AugmentationSpec()),
    "train": _keys(TrainConfig()),
    "sweep": {**_SWEEP, "values": replace(_SWEEP["values"],
                                          parse=_list_of(_number_or_word))},
    "harmonic": _keys(HarmonicConfig(), "boundary_per_side", "n_unlabelled",
                      "hidden", "lambda", "epsilon", "epochs", "warmup_epochs",
                      "eta", "momentum", "batch_unlabelled", "grid", "seed"),
    "fluid": _keys(FluidConfig(), "etas", "horizon", "lambda", "epsilon",
                   "n_unlabelled", "seeds"),
}


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved configuration: raw maps section -> key -> value (the
    manifest record and the input to the config hash); the other fields are
    the dataclasses built from it. sweep is None when the settings were
    resolved for another command."""
    raw: dict
    train: TrainConfig
    sweep: SweepSpec | None
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


def parse_config(path: str | None = None, overrides=(),
                 command: str | None = None) -> AppConfig:
    """Resolve a run's settings: the defaults, then the lines of the file at
    path (none when path is None), then overrides, each a (where, section,
    key, text) tuple whose errors name `where`. Every section is then built
    into its dataclass once, so each invariant is checked before anything
    runs, and the AppConfig holds what was built; for a command other than
    sweep, [sweep] is checked key by key but not built."""
    raw = {section: {key: copy.copy(spec.default) for key, spec in keys.items()}
           for section, keys in SCHEMA.items()}
    settings = () if path is None else _file_settings(path)
    for where, section, key, text in itertools.chain(settings, overrides):
        _assign(raw, where, section, key, text)

    def build(section, make):
        try:
            return make()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    train = build("train", lambda: fill(
        TrainConfig(), {**raw["task"], **raw["train"], **raw["augment"]}))
    return AppConfig(
        raw=raw, train=train,
        sweep=None if command not in (None, "sweep") else build(
            "sweep", lambda: SweepSpec(train=train, **raw["sweep"])),
        harmonic=build("harmonic", lambda: fill(HarmonicConfig(), raw["harmonic"])),
        fluid=build("fluid", lambda: fill(FluidConfig(train=train), raw["fluid"])))


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
