import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from manifold_ssl import cli, objectives, training
from manifold_ssl.config import SCHEMA, ConfigError, parse_config, schema_help
from manifold_ssl.experiments import (FluidConfig, HarmonicConfig, SweepSpec,
                                      TaskParams, fluid_limit_experiment)
from manifold_ssl.manifold import AugmentationSpec
from manifold_ssl.numerics import config_key, fill, settings
from manifold_ssl.training import TrainConfig


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_empty_config_resolves_documented_defaults(tmp_path):
    app = parse_config(write(tmp_path, "# nothing configured\n"))
    assert app.raw["train"]["lambda"] == app.train.lam == 10.0
    assert app.raw["augment"]["epsilon"] == app.train.augmentation.epsilon == 0.3
    # k keeps its -1 sentinel in every run, which resolves it as its world's
    # full latent dimension
    assert (app.raw["augment"]["k"] == app.train.augmentation.k
            == app.fluid.train.augmentation.k == -1)
    assert app.train.augmentation.dims(app.train.task.latent_dim) == 10
    assert app.raw["train"]["eta"] == app.train.eta == 0.01
    assert app.raw["train"]["epochs"] == app.train.epochs == 200
    assert app.raw["sweep"]["seeds"] == app.sweep.seeds == [1, 2, 3, 4, 5]


def test_missing_path_is_pure_defaults():
    app = parse_config(None)
    assert app.train.task.latent_dim == 10
    assert app.train.lam == 10.0 and app.train.augmentation.k == -1
    # each section is built once and shared, never rebuilt
    assert app.sweep.train is app.train
    assert app.fluid.train.task.n_test == app.raw["task"]["n_test"]
    assert app.fluid.train.task.n_unlabelled == app.raw["fluid"]["n_unlabelled"]
    # the fluid study's run is the one TrainConfig, but for its [fluid] keys
    fluid = {key: app.raw["fluid"][key] for key in ("lambda", "epsilon", "n_unlabelled")}
    assert app.fluid.train == fill(app.train, fluid)
    assert app.harmonic.train.seed == app.raw["harmonic"]["seed"]
    with pytest.raises(FrozenInstanceError):
        app.train = None


def test_negative_lambda_rejected_with_field_name(tmp_path):
    path = write(tmp_path, "[train]\nlambda = -1\n")
    with pytest.raises(ConfigError, match=r"train\.lambda"):
        parse_config(path)


def _holders(obj):
    """(dataclass, field) of each setting field in the dataclass tree of obj."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _holders(value)
        elif f.metadata:
            yield obj, f


# the dataclass tree each section's keys are filled into
_SECTION_TREES = {"task": TrainConfig(), "augment": TrainConfig(),
                  "train": TrainConfig(), "sweep": SweepSpec(),
                  "harmonic": HarmonicConfig(), "fluid": FluidConfig()}


@pytest.mark.parametrize("section", list(_SECTION_TREES))
def test_each_key_names_one_setting_field(section):
    names = [config_key(f.name) for _, f in _holders(_SECTION_TREES[section])]
    assert all(names.count(key) == 1 for key in SCHEMA[section]), names


@pytest.mark.parametrize("section", list(_SECTION_TREES))
def test_each_key_is_its_fields_rule(section):
    # a key's default, parse, check, constraint and help come from the one
    # field it names; only sweep.values' parse is written in SCHEMA
    fields_of = {config_key(f.name): (getattr(obj, f.name), f.metadata)
                 for obj, f in _holders(_SECTION_TREES[section])}
    for key, spec in SCHEMA[section].items():
        default, metadata = fields_of[key]
        assert (spec.check, spec.constraint, spec.help) == (
            metadata["check"], metadata["constraint"], metadata["help"])
        if not isinstance(default, (tuple, list)):
            assert spec.default == default and spec.parse is type(default)
        elif (section, key) == ("sweep", "values"):
            assert spec.parse("0.5, pi_model") == [0.5, "pi_model"]
        else:
            assert spec.default == list(default)
            assert spec.parse(",".join(map(str, default))) == list(default)


_RUN_KEYS = [key for key, _, _ in settings(TrainConfig())]


@pytest.mark.parametrize("axis", sorted(set(_RUN_KEYS) - {"seed"}))
def test_each_sweep_axis_names_one_train_setting(axis):
    # any [task], [train] or [augment] key but seed is an axis; a point
    # fills every field the axis names, so it must name exactly one
    assert _RUN_KEYS.count(axis) == 1, _RUN_KEYS
    app = parse_config(None, [("flag", "sweep", "axis", axis)], command="train")
    assert app.raw["sweep"]["axis"] == axis


@pytest.mark.parametrize("axis", ["seed", "etas", "width"])
def test_sweep_axis_must_name_a_run_setting_but_its_seed(axis):
    # the seed is each point's own; etas is a [fluid] key
    with pytest.raises(ConfigError, match=rf"^flag: sweep\.axis: value '{axis}' "
                       r"violates constraint a \[task\], \[train\] or \[augment\] "
                       r"key but seed$"):
        parse_config(None, [("flag", "sweep", "axis", axis)], command="train")
    with pytest.raises(ValueError, match=rf"^SweepSpec: axis must be .*, got '{axis}'$"):
        SweepSpec(axis=axis)


def test_fill_rejects_a_key_that_names_no_setting():
    # it used to skip such a key, so a misnamed setting changed nothing
    for obj, key in ((TrainConfig(), "etas"), (TrainConfig(), "grid"),
                     (HarmonicConfig(), "horizon"), (SweepSpec(), "grid")):
        with pytest.raises(ValueError, match=rf"^{type(obj).__name__} has no "
                           rf"setting '{key}'$"):
            fill(obj, {"seed": 3, key: 1})


def test_study_keys_land_on_the_fields_they_name():
    given = {
        "harmonic": {"boundary_per_side": "7", "n_unlabelled": "30",
                     "hidden": "5", "lambda": "2.5", "epsilon": "0.07",
                     "epochs": "9", "warmup_epochs": "3", "eta": "0.02",
                     "momentum": "0.5", "batch_unlabelled": "11", "grid": "4",
                     "seed": "6"},
        "fluid": {"etas": "0.1,0.05", "horizon": "0.2", "lambda": "2.5",
                  "epsilon": "0.07", "n_unlabelled": "30", "seeds": "4,5"}}
    overrides = []
    for section, values in given.items():
        assert list(values) == list(SCHEMA[section])
        for key, text in values.items():
            assert SCHEMA[section][key].parse(text) != SCHEMA[section][key].default
            overrides.append(("flag", section, key, text))
    app = parse_config(None, overrides)
    h, ht = app.harmonic, app.harmonic.train
    assert (h.boundary_per_side, ht.task.n_unlabelled, h.grid) == (7, 30, 4)
    assert (ht.hidden, ht.lam, ht.augmentation.epsilon, ht.epochs,
            ht.warmup_epochs, ht.eta, ht.momentum, ht.batch_unlabelled,
            ht.seed) == (5, 2.5, 0.07, 9, 3, 0.02, 0.5, 11, 6)
    # settings no [harmonic] key names keep the study's own defaults
    assert (ht.method, ht.loss, ht.augmentation.mode, ht.augmentation.k) == (
        "pi_model", "squared", "ambient", -1)
    f, ft = app.fluid, app.fluid.train
    assert (f.etas, f.horizon, f.seeds) == ((0.1, 0.05), 0.2, (4, 5))
    assert (ft.lam, ft.augmentation.epsilon, ft.task.n_unlabelled) == (2.5, 0.07, 30)
    # the rest of the fluid study comes from [task], [train] and [augment]
    assert ft.task == TaskParams(n_unlabelled=30)
    assert ft == fill(app.train, {"lambda": 2.5, "epsilon": 0.07,
                                  "n_unlabelled": 30})
    assert (app.train.lam, app.train.augmentation.epsilon) == (10.0, 0.3)


# one bad value per checked key, with the dataclass its section fills; the
# error names the dataclass that holds the setting
_BAD_SETTINGS = [
    ("task", TaskParams, {"latent_dim": "0", "gen_hidden": "0", "ambient_dim": "0",
                          "n_labelled": "3", "n_unlabelled": "0", "n_test": "3",
                          "separation": "0"}),
    ("augment", AugmentationSpec, {"epsilon": "-1", "k": "0", "mode": "sideways"}),
    ("train", TrainConfig, {
        "method": "adam", "epochs": "0", "warmup_epochs": "-1", "lambda": "-1",
        "eta": "0", "momentum": "1", "batch_labelled": "0",
        "batch_unlabelled": "0", "beta_mt": "1", "draws_per_sample": "0",
        "loss": "hinge", "hidden": "0", "seed": "-1"}),
    ("harmonic", HarmonicConfig, {
        "boundary_per_side": "0", "n_unlabelled": "0", "hidden": "0",
        "lambda": "-1", "epsilon": "-1", "epochs": "0", "warmup_epochs": "-1",
        "eta": "0", "momentum": "1", "batch_unlabelled": "0", "grid": "2",
        "seed": "-1"}),
    ("fluid", FluidConfig, {"horizon": "0", "lambda": "nan"}),
    ("fluid", AugmentationSpec, {"epsilon": "-1"}),
    ("fluid", TaskParams, {"n_unlabelled": "0"}),
    ("sweep", SweepSpec, {"axis": "width"}),
]


@pytest.mark.parametrize("section, cls, key, text", [
    (section, cls, key, text) for section, cls, bad in _BAD_SETTINGS
    for key, text in bad.items()],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_each_rule_guards_config_and_api(section, cls, key, text):
    # one declared rule, two entry points: a config line and a direct build
    with pytest.raises(ConfigError,
                       match=rf"^flag: {section}\.{key}: value .* violates constraint "):
        parse_config(None, [("flag", section, key, text)])
    (holder,) = {type(obj).__name__ for obj, f in _holders(cls())
                 if config_key(f.name) == key}
    with pytest.raises(ValueError, match=rf"^{holder}: {key} must be "):
        fill(cls(), {key: SCHEMA[section][key].parse(text)})


def test_unknown_key_suggests_fix(tmp_path):
    path = write(tmp_path, "[augment]\nepsilonn = 0.5\n")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[trai]\nepochs = 5\n")
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config(path)


def test_parse_error_reports_line(tmp_path):
    path = write(tmp_path, "[train]\nepochs = ten\n")
    with pytest.raises(ConfigError, match=r":2:"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "[train]\nepochs = 5\nepochs = 6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_key_outside_section_rejected(tmp_path):
    path = write(tmp_path, "epochs = 5\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config(path)


def test_cross_field_validation(tmp_path):
    path = write(tmp_path, "[train]\nepochs = 5\nwarmup_epochs = 9\n")
    with pytest.raises(ConfigError, match="warmup_epochs"):
        parse_config(path)
    path = write(tmp_path, "[task]\nlatent_dim = 4\n[augment]\nk = 9\n")
    with pytest.raises(ConfigError,
                       match=r"^\[train\] AugmentationSpec: k must be in \[1, 4\], got 9$"):
        parse_config(path)
    path = write(tmp_path, "[harmonic]\nepochs = 5\nwarmup_epochs = 9\n")
    with pytest.raises(ConfigError,
                       match=r"^\[harmonic\] TrainConfig: warmup_epochs must be <= epochs"):
        parse_config(path)
    with pytest.raises(ValueError, match="warmup_epochs"):
        fill(HarmonicConfig(), {"epochs": 5, "warmup_epochs": 9})


def test_values_parse_lists(tmp_path):
    path = write(tmp_path, "[sweep]\nvalues = 0.1, 0.2,0.3\nseeds = 7,8\n")
    app = parse_config(path)
    assert app.raw["sweep"]["values"] == app.sweep.values == [0.1, 0.2, 0.3]
    assert app.raw["sweep"]["seeds"] == app.sweep.seeds == [7, 8]


def test_help_enumerates_every_key():
    text = schema_help()
    from manifold_ssl.config import SCHEMA
    for section, keys in SCHEMA.items():
        assert f"[{section}]" in text
        for key in keys:
            assert key in text


def test_cli_help_includes_schema(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert "epsilon" in out and "warmup_epochs" in out and "lambda" in out


def test_cli_flag_help_names_its_values_or_setting(capsys):
    for command, lines in (
            ("train", ["--method METHOD  supervised | pi_model (pi) | mean_teacher (mt)",
                       "--seed SEED      sets [train] seed"]),
            ("harmonic", ["--seed SEED  sets [harmonic] seed"]),
            ("sweep", ["--axis AXIS      a [task], [train] or [augment] key but seed",
                       "--values VALUES  comma-separated axis values"])):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        out = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert all(line in out for line in lines), out
    # every spelling the help lists is accepted
    for method in ("supervised", "pi_model", "pi", "mean_teacher", "mt"):
        args = cli.build_parser().parse_args(["train", "--method", method])
        assert args.method in training.METHODS


# a small world, so that an input the checks miss runs quickly
_SMALL = """
[task]
latent_dim = 4
gen_hidden = 6
ambient_dim = 8
n_labelled = 6
n_unlabelled = 20
n_test = 20
[train]
epochs = 2
warmup_epochs = 1
hidden = 6
batch_labelled = 6
batch_unlabelled = 20
"""


@pytest.mark.parametrize("settings, argv, named", [
    ("[train]\nlambda = -3\n", ["train"], r"train\.lambda"),
    ("", ["train", "--seed", "-1"], r"--seed: train\.seed"),
    ("[sweep]\nvalues = -1\nseeds = 1\n", ["sweep"], r"\[sweep\].*lambda"),
    ("[sweep]\naxis = k\nvalues = 3.7\nseeds = 1\n", ["sweep"], r"\[sweep\].*k must"),
    ("[sweep]\nvalues = 1,1.0\nseeds = 1\n", ["sweep"], r"cfg:\d+: sweep\.values"),
    ("[sweep]\nseeds = -2\n", ["sweep"], r"cfg:\d+: sweep\.seeds"),
    ("[sweep]\naxis = eta\nvalues = -1\nseeds = 1\n", ["sweep"], r"\[sweep\].*eta"),
    ("[fluid]\netas = -0.01\nseeds = 1\n", ["fluidlimit"], r"cfg:\d+: fluid\.etas"),
    ("[fluid]\netas = 0.04,0.04\nhorizon = 0.08\nseeds = 1\n", ["fluidlimit"],
     r"cfg:\d+: fluid\.etas"),
    ("[fluid]\netas = 0.1\nhorizon = 0.05\nseeds = 1\n", ["fluidlimit"],
     r"\[fluid\].*horizon"),
    ("[sweep]\nvalues = nan\nseeds = 1\n", ["sweep"], r"\[sweep\].*lambda"),
    ("[sweep]\naxis = epsilon\nvalues = nan\nseeds = 1\n", ["sweep"],
     r"\[sweep\].*epsilon"),
    ("[fluid]\netas = 0.04,0.02\nhorizon = 0.5\nseeds = 1\n", ["fluidlimit"],
     r"\[fluid\].*horizon 0\.5"),
    ("[fluid]\netas = 0.04\nhorizon = inf\nseeds = 1\n", ["fluidlimit"],
     r"fluid\.horizon: value inf violates constraint finite, > 0"),
    ("[sweep]\naxis = k\nvalues = 2,99\nseeds = 1\n", ["sweep"],
     r"\[sweep\].*k must be in \[1, 4\], got 99"),
    ("[sweep]\naxis = k\nvalues = 0\nseeds = 1\n", ["sweep"],
     r"\[sweep\].*k must be -1 \(full\) or >= 1, got 0"),
    # -1 is the full latent dimension, 4 here: both values are one run
    ("[sweep]\naxis = k\nvalues = 4,-1\nseeds = 1\n", ["sweep"],
     r"^error: \[sweep\] SweepSpec: axis k values 4 and -1 are one run$"),
    # a point's world is checked by the rule of a [task] n_test line
    ("[sweep]\naxis = n_test\nvalues = 0,20\nseeds = 1\n", ["sweep"],
     r"^error: \[sweep\] TaskParams: n_test must be even, >= 2, got 0$"),
    ("[sweep]\nvalues = 1.0000001,1.0000002\nseeds = 1\n", ["sweep"],
     r"sweep\.values: value \[1\.0000001, 1\.0000002\] violates constraint "
     r"nonempty, distinct to 6 significant digits"),
    ("[fluid]\netas = 0.03,0.02\nhorizon = 0.06\nseeds = 1\n", ["fluidlimit"],
     r"\[fluid\].*etas \[0\.03, 0\.02\] are not all whole multiples of the "
     r"smallest eta 0\.02"),
    ("[train]\nlambda = inf\n", ["train"], r"train\.lambda: value inf"),
    ("[train]\neta = inf\n", ["train"], r"train\.eta: value inf"),
    ("[augment]\nepsilon = inf\n", ["train"], r"augment\.epsilon: value inf"),
    ("[sweep]\nvalues = 1,inf\nseeds = 1\n", ["sweep"],
     r"\[sweep\].*lambda must be finite, >= 0, got inf"),
    # list keys are checked for every command, not only the one that runs them
    ("[sweep]\nseeds = 3,-1\n", ["train"], r"cfg:\d+: sweep\.seeds"),
    ("[sweep]\nvalues = 1,1\n", ["train"], r"cfg:\d+: sweep\.values"),
    ("[fluid]\nseeds = 1,1\n", ["train"], r"cfg:\d+: fluid\.seeds"),
], ids=["file-lambda", "flag-seed", "sweep-lambda", "sweep-k-fraction",
        "sweep-repeated-value", "sweep-negative-seed", "sweep-eta",
        "fluid-negative-eta", "fluid-repeated-eta", "fluid-short-horizon",
        "sweep-nan-lambda", "sweep-nan-epsilon", "fluid-horizon-not-whole",
        "fluid-infinite-horizon", "sweep-k-above-latent-dim", "sweep-k-zero",
        "sweep-k-full-twice",
        "sweep-n-test-zero",
        "sweep-values-share-run-id", "fluid-eta-off-finest-grid", "infinite-lambda",
        "infinite-eta", "infinite-epsilon", "sweep-infinite-lambda",
        "train-sweep-negative-seed", "train-sweep-repeated-value",
        "train-fluid-repeated-seed"])
def test_cli_rejects_bad_config(tmp_path, capsys, settings, argv, named):
    out = tmp_path / "o"
    code = cli.main(["--config", write(tmp_path, _SMALL + settings),
                     "--out", str(out)] + argv)
    assert code == 2
    assert not out.exists()
    assert re.search(named, capsys.readouterr().err)


_ONE_RUN = "axis {} values {} and {} are one run"


@pytest.mark.parametrize("settings, ignored", [
    (_SMALL + "[augment]\nmode = ambient\n[sweep]\naxis = k\nvalues = 1,2\n",
     _ONE_RUN.format("k", 1, 2)),
    (_SMALL + "[train]\nmethod = supervised\n[sweep]\naxis = lambda\n",
     _ONE_RUN.format("lambda", 0.5, 1)),
    (_SMALL + "[train]\nmethod = supervised\n[sweep]\naxis = epsilon\n"
     "values = 0.1,0.2\n", _ONE_RUN.format("epsilon", 0.1, 0.2)),
    (_SMALL + "[train]\nmethod = supervised\n[sweep]\naxis = k\nvalues = 1,2\n",
     _ONE_RUN.format("k", 1, 2)),
    (_SMALL + "lambda = 0\nmethod = mean_teacher\n[sweep]\naxis = beta_mt\n"
     "values = 0.9,0.99\n", _ONE_RUN.format("beta_mt", 0.9, 0.99)),
    (_SMALL + "[train]\nlambda = 0\n[sweep]\naxis = epsilon\nvalues = 0.1,0.2\n",
     _ONE_RUN.format("epsilon", 0.1, 0.2)),
    (_SMALL + "[train]\nlambda = 0\n[sweep]\naxis = k\nvalues = 1,2\n",
     _ONE_RUN.format("k", 1, 2)),
    (_SMALL + "[augment]\nepsilon = 0\n[sweep]\naxis = lambda\n",
     _ONE_RUN.format("lambda", 0.5, 1)),
    (_SMALL.replace("warmup_epochs = 1", "warmup_epochs = 2")
     + "[sweep]\naxis = epsilon\nvalues = 0.1,0.2\n",
     _ONE_RUN.format("epsilon", 0.1, 0.2)),
    (_SMALL + "[augment]\nmode = ambient\n[sweep]\naxis = epsilon\n"
     "values = 0.1,0.2\n", None),
    (_SMALL + "[train]\nlambda = 0\n[sweep]\naxis = eta\nvalues = 0.01,0.02\n",
     None),
    (_SMALL + "[sweep]\naxis = lambda\nvalues = 0,1\n", None),
    # a beta_mt sweep used to switch every point to the mean teacher
    (_SMALL + "[sweep]\naxis = beta_mt\nvalues = 0.9,0.99\n",
     _ONE_RUN.format("beta_mt", 0.9, 0.99)),
    (_SMALL + "[train]\nlambda = 0\n[sweep]\naxis = method\n"
     "values = supervised,pi_model,mean_teacher\n",
     _ONE_RUN.format("method", "supervised", "pi_model")),
    (_SMALL + "[train]\nmethod = supervised\n[sweep]\naxis = warmup_epochs\n"
     "values = 0,1\n", _ONE_RUN.format("warmup_epochs", 0, 1)),
    (_SMALL + "[sweep]\naxis = method\nvalues = supervised,pi_model,mean_teacher\n",
     None),
    (_SMALL + "[train]\nmethod = supervised\n[sweep]\naxis = momentum\n"
     "values = 0,0.5\n", None),
    # a batch at least as large as its set is the whole set: 6 labelled and
    # 20 unlabelled points here
    (_SMALL + "[sweep]\naxis = batch_labelled\nvalues = 6,12\n",
     _ONE_RUN.format("batch_labelled", 6, 12)),
    (_SMALL + "[sweep]\naxis = batch_unlabelled\nvalues = 20,40\n",
     _ONE_RUN.format("batch_unlabelled", 20, 40)),
    (_SMALL + "[sweep]\naxis = batch_labelled\nvalues = 4,6\n", None),
], ids=["ambient-k", "supervised-lambda", "supervised-epsilon", "supervised-k",
        "no-lambda-beta_mt", "no-lambda-epsilon", "no-lambda-k",
        "no-epsilon-lambda", "all-warmup-epsilon", "ambient-epsilon",
        "no-lambda-eta", "lambda-from-zero", "pi_model-beta_mt", "no-lambda-method",
        "supervised-warmup_epochs", "method", "supervised-momentum",
        "oversized-batch_labelled", "oversized-batch_unlabelled",
        "batch_labelled"])
def test_sweep_rejects_an_axis_the_run_ignores(tmp_path, capsys, settings, ignored):
    # every point of such a sweep would be the same run
    path = write(tmp_path, settings)
    if ignored is None:
        assert parse_config(path, command="sweep").sweep is not None
        return
    with pytest.raises(ConfigError, match=rf"^\[sweep\] SweepSpec: {ignored}$"):
        parse_config(path, command="sweep")
    out = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 2
    assert not out.exists()
    assert ignored in capsys.readouterr().err


def test_supervised_train_does_not_build_the_sweep(tmp_path):
    # the default [sweep] axis is lambda, which a supervised sweep rejects;
    # a supervised train run does not sweep
    path = write(tmp_path, _SMALL)
    assert parse_config(path, [("flag", "train", "method", "supervised")],
                        command="train").sweep is None
    code = cli.main(["--config", path, "--out", str(tmp_path / "o"), "train",
                     "--method", "supervised"])
    assert code == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", jobs, "--out", str(out), "gradcheck"])
    assert exc.value.code == 2
    assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_fluidlimit_honours_augment_mode(tmp_path):
    rows = {}
    for mode in ("manifold", "ambient"):
        app = parse_config(write(tmp_path, _SMALL + f"""
[augment]
mode = {mode}
[fluid]
etas = 0.04,0.02
horizon = 0.4
n_unlabelled = 20
seeds = 1
"""))
        rows[mode] = fluid_limit_experiment(app.fluid).rows
    # ambient noise on x is not a latent perturbation mapped through phi
    assert [d for *_, d in rows["manifold"]] != [d for *_, d in rows["ambient"]]


@pytest.mark.parametrize("method", ["mean_teacher", "supervised"])
def test_fluidlimit_rejects_a_method_it_does_not_run(tmp_path, capsys, method):
    # the field is the pi model's: these used to return the pi model's rows
    path = write(tmp_path, _SMALL + f"method = {method}\n")
    with pytest.raises(ValueError, match=rf"method {method} is not supported"):
        fluid_limit_experiment(parse_config(path, command="fluidlimit").fluid)
    code = cli.main(["--config", path, "--out", str(tmp_path / "o"), "fluidlimit"])
    assert code == 1
    assert (f"error: fluid_limit_experiment: method {method} is not supported"
            in capsys.readouterr().err)


def test_fluidlimit_says_it_records_momentum_but_does_not_run_it(tmp_path, capsys):
    # the Euler paths take plain gradient steps: a momentum of 0.5 reaches
    # the manifest, not one distance, and the summary line says so
    distances = []
    for momentum in (0.5, 0.9):
        path = write(tmp_path, _SMALL + f"momentum = {momentum}\n[fluid]\n"
                     "etas = 0.04,0.02\nhorizon = 0.08\nn_unlabelled = 20\nseeds = 1\n")
        out = tmp_path / f"m{momentum}"
        assert cli.main(["--config", path, "--out", str(out), "fluidlimit"]) == 0
        assert ("its Euler paths take plain gradient steps, so [train] momentum "
                "is recorded, not run") in capsys.readouterr().out
        manifest = json.loads((_run_dir(out) / "manifest.json").read_text())
        assert manifest["config"]["train"]["momentum"] == momentum
        distances.append((_run_dir(out) / "distances.csv").read_bytes())
    assert distances[0] == distances[1]


def test_rerun_from_manifest_rejects_bad_manifest(tmp_path):
    config = parse_config(write(tmp_path, _SMALL)).raw
    bad_lambda = json.loads(json.dumps(config))
    bad_lambda["train"]["lambda"] = -1
    path = tmp_path / "manifest.json"
    for manifest, named in (
            ({"manifest_version": 99, "command": "train", "config": config},
             "manifest_version"),
            ({"manifest_version": 1, "command": "train",
              "config": bad_lambda}, r"train\.lambda"),
            ({"manifest_version": 1, "command": "bogus", "config": {}},
             "manifest.json: unknown command 'bogus'"),
            ({"manifest_version": 1, "command": "bogus"},
             "manifest.json: unknown command 'bogus'"),
            ({"manifest_version": 1, "command": "train"},
             "manifest.json: config is not a table"),
            ({"manifest_version": 1, "command": "train",
              "config": {"train": 5}}, "manifest.json: config is not a table")):
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=named):
            cli.rerun_from_manifest(str(path), str(tmp_path / "redo"))
        assert not (tmp_path / "redo").exists()


def test_commands_are_the_parser_subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert tuple(sub.choices) == cli.COMMANDS


def _fast_cfg(tmp_path):
    return write(tmp_path, """
[task]
latent_dim = 4
gen_hidden = 6
ambient_dim = 8
n_labelled = 6
n_unlabelled = 40
n_test = 20
[augment]
epsilon = 0.2
k = 4
[train]
epochs = 6
warmup_epochs = 2
eta = 0.005
hidden = 6
batch_labelled = 6
batch_unlabelled = 20
[sweep]
axis = lambda
values = 0.5,2
seeds = 1,2
[harmonic]
boundary_per_side = 6
n_unlabelled = 60
hidden = 12
epochs = 10
warmup_epochs = 2
grid = 7
[fluid]
etas = 0.04,0.02
horizon = 0.4
n_unlabelled = 20
seeds = 1
""")


def _small_gradcheck(monkeypatch):
    real = objectives.gradient_check_suite
    monkeypatch.setattr(objectives, "gradient_check_suite",
                        lambda: real(n_instances=3))


def _run_dir(out_root):
    (run_dir,) = Path(out_root).iterdir()
    return run_dir


def _digests(run_dir):
    """sha256 of every file in run_dir; the manifest's without its timings,
    the one entry that differs between identical runs."""
    digests = {}
    for path in Path(run_dir).iterdir():
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timings")
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


_CLI_OUTPUTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_outputs.json").read_text())
# the OpenBLAS kernel those digests were captured under (conftest.blas_kernel)
_CLI_OUTPUTS_KERNEL = (
    Path(__file__).parent / "golden" / "cli_outputs_kernel.txt").read_text().strip()


# the sweep also runs with --jobs 2, through the worker pool, against the
# same hashes
@pytest.mark.parametrize("command, jobs", [
    *(pytest.param(command, "1", id=command) for command in cli.COMMANDS),
    pytest.param("sweep", "2", id="sweep-jobs2")])
def test_cli_outputs_match_golden(tmp_path, monkeypatch, blas_kernel, command, jobs):
    _small_gradcheck(monkeypatch)
    out_root = tmp_path / "results"
    code = cli.main(["--config", _fast_cfg(tmp_path), "--out", str(out_root),
                     "--jobs", jobs, command])
    assert code == 0
    run_dir = _run_dir(out_root)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    digests = _digests(run_dir)
    assert sorted(manifest["outputs"]) == sorted(set(digests) - {"manifest.json"})
    assert digests == _CLI_OUTPUTS[command], (
        f"digests captured under the {_CLI_OUTPUTS_KERNEL} OpenBLAS kernel, "
        f"run under {blas_kernel}")


def test_cli_train_writes_manifest_and_records(tmp_path, capsys):
    out_root = str(tmp_path / "results")
    code = cli.main(["--config", _fast_cfg(tmp_path), "--out", out_root,
                     "train", "--method", "pi", "--seed", "3"])
    assert code == 0
    run_dirs = os.listdir(out_root)
    assert len(run_dirs) == 1
    run_dir = os.path.join(out_root, run_dirs[0])
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["train"]["seed"] == 3
    assert manifest["config"]["train"]["method"] == "pi_model"
    assert manifest["timings"]["wall_seconds"] > 0
    records = Path(run_dir, "records.csv").read_text().splitlines()
    assert records[0].startswith("run_id,method,seed,epoch")
    assert len(records) == 7


@pytest.mark.parametrize("command", ["train", "harmonic"])
def test_seed_flag_sets_only_its_subcommand_setting(tmp_path, command):
    # `<command> --seed 5` is `[<command>] seed = 5`: one run directory, one
    # manifest, and the other subcommand's seed keeps its default
    config = _fast_cfg(tmp_path)
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(Path(config).read_text().replace(
        f"[{command}]\n", f"[{command}]\nseed = 5\n"))
    assert cli.main(["--config", config, "--out", str(tmp_path / "flag"),
                     command, "--seed", "5"]) == 0
    assert cli.main(["--config", str(seeded), "--out", str(tmp_path / "file"),
                     command]) == 0
    by_flag, by_file = _run_dir(tmp_path / "flag"), _run_dir(tmp_path / "file")
    assert by_flag.name == by_file.name
    assert _digests(by_flag) == _digests(by_file)
    config = json.loads((by_flag / "manifest.json").read_text())["config"]
    other = "harmonic" if command == "train" else "train"
    assert (config[command]["seed"], config[other]["seed"]) == (5, 1)


def test_cli_sweep_and_regeneration_byte_identical(tmp_path):
    out_root = str(tmp_path / "results")
    code = cli.main(["--config", _fast_cfg(tmp_path), "--out", out_root,
                     "sweep"])
    assert code == 0
    run_dir = os.path.join(out_root, os.listdir(out_root)[0])
    first_records = Path(run_dir, "records.csv").read_bytes()
    first_summary = Path(run_dir, "summary.csv").read_bytes()
    assert len(first_records.splitlines()) == 1 + 4 * 6

    redo_dir = str(tmp_path / "redo")
    cli.rerun_from_manifest(os.path.join(run_dir, "manifest.json"), redo_dir)
    assert Path(redo_dir, "records.csv").read_bytes() == first_records
    assert Path(redo_dir, "summary.csv").read_bytes() == first_summary


def test_cli_method_sweep_reruns_from_its_manifest(tmp_path, capsys):
    # the paired comparison: every method from one warmup per seed; the
    # manifest holds the words, and its rerun writes the same bytes
    out_root = tmp_path / "results"
    code = cli.main(["--config", _fast_cfg(tmp_path), "--out", str(out_root),
                     "sweep", "--axis", "method",
                     "--values", "supervised,pi_model,mean_teacher"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[-3:]] == [
        "method=supervised", "method=pi_model", "method=mean_teacher"]
    run_dir = _run_dir(out_root)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["sweep"]["values"] == [
        "supervised", "pi_model", "mean_teacher"]
    summary = (run_dir / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in summary] == [
        "axis_value", "supervised", "pi_model", "mean_teacher"]
    records = csv.DictReader((run_dir / "records.csv").read_text().splitlines())
    assert sorted({(r["run_id"], r["method"]) for r in records}) == sorted(
        (f"{m}-method{m}-s{seed}", m)
        for m in ("supervised", "pi_model", "mean_teacher") for seed in (1, 2))
    redo = tmp_path / "redo"
    cli.rerun_from_manifest(str(run_dir / "manifest.json"), str(redo))
    for name in ("records.csv", "summary.csv"):
        assert (redo / name).read_bytes() == (run_dir / name).read_bytes()


def test_cli_latent_dim_sweep_resolves_k_per_point(tmp_path):
    # the default k (-1, full) is resolved in each point's own world; it used
    # to be resolved once against [task] latent_dim, and latent_dim 2 failed
    out_root = tmp_path / "results"
    code = cli.main(["--config", write(tmp_path, _SMALL), "--out", str(out_root),
                     "sweep", "--axis", "latent_dim", "--values", "2,4",
                     "--seeds", "1"])
    assert code == 0
    run_dir = _run_dir(out_root)
    assert not (run_dir / "failures.csv").exists()
    records = csv.DictReader((run_dir / "records.csv").read_text().splitlines())
    assert sorted({(r["run_id"], r["k"]) for r in records}) == [
        ("pi_model-latent_dim2-s1", "2"), ("pi_model-latent_dim4-s1", "4")]


def test_cli_sweep_failures_csv_quotes_the_error(tmp_path, monkeypatch):
    # an error text with a comma stays one CSV field
    train = training.train

    def failing(config, *args, **kwargs):
        if config.lam == 2.0:
            raise ValueError("bad point, on purpose")
        return train(config, *args, **kwargs)

    monkeypatch.setattr(training, "train", failing)
    out_root = tmp_path / "results"
    code = cli.main(["--config", _fast_cfg(tmp_path), "--out", str(out_root),
                     "sweep"])
    assert code == 0
    (run_dir,) = out_root.iterdir()
    text = (run_dir / "failures.csv").read_text()
    assert list(csv.reader(text.splitlines())) == [
        ["run_id", "error"],
        ["pi_model-lambda2-s1", "ValueError('bad point, on purpose')"],
        ["pi_model-lambda2-s2", "ValueError('bad point, on purpose')"]]


def test_cli_gradcheck_passes(tmp_path, capsys, monkeypatch):
    _small_gradcheck(monkeypatch)
    out_root = tmp_path / "results"
    assert cli.main(["--out", str(out_root), "gradcheck"]) == 0
    out = capsys.readouterr().out
    with open(_run_dir(out_root) / "gradcheck.csv", newline="") as fh:
        checks = {row["check"] for row in csv.DictReader(fh)}
    assert len(checks) > 1
    for name in checks:
        assert f"gradcheck {name}: max rel err " in out
    assert "gradcheck overall: max rel err " in out


def test_cli_gradcheck_failure_lists_its_table(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(objectives, "gradient_check_suite",
                        lambda: [("supervised_logistic", 0, 1e-3)])
    out_root = tmp_path / "results"
    assert cli.main(["--out", str(out_root), "gradcheck"]) == 1
    assert "1.000e-03 > 1e-06" in capsys.readouterr().err
    run_dir = _run_dir(out_root)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["outputs"] == ["gradcheck.csv"]
    assert (run_dir / "gradcheck.csv").read_text() == (
        "check,instance,rel_err\nsupervised_logistic,0,0.001\n")
    with pytest.raises(RuntimeError, match="1e-06"):
        cli.rerun_from_manifest(str(run_dir / "manifest.json"),
                                str(tmp_path / "redo"))


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a parallel sweep imports it, so no other command pays for it
    code = ("import sys, manifold_ssl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
