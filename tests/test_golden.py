"""Tiny seeded runs of every training path and the resolved default config,
compared with values recorded before parameters became one flat vector.

runs.json holds, per method, one [train_loss, test_nll, test_acc,
consistency_value] row per epoch; the harmonic run's final theta, grid
values and energy trajectory; and the fluid study's (eta, seed, distance)
rows. config_lines.txt and schema_help.txt are the exact text of the
default configuration and of the --help key listing.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from manifold_ssl.config import config_lines, parse_config, schema_help
from manifold_ssl.experiments import (FluidConfig, HarmonicConfig, TaskParams,
                                      fluid_limit_experiment,
                                      harmonic_experiment, run_single)
from manifold_ssl.manifold import AugmentationSpec
from manifold_ssl.training import TrainConfig

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10


def _golden():
    with open(GOLDEN / "runs.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("method", ["supervised", "pi_model", "mean_teacher"])
def test_training_runs_match_golden(method):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=40, n_test=40, separation=4.0)
    cfg = TrainConfig(method=method, epochs=6, warmup_epochs=2, lam=1.0,
                      eta=0.01, hidden=6, batch_labelled=6, batch_unlabelled=20,
                      augmentation=AugmentationSpec(epsilon=0.2, k=4),
                      beta_mt=0.9, seed=3, task=tp)
    rows = [[r.train_loss, r.test_nll, r.test_acc, r.consistency_value]
            for r in run_single(cfg)]
    np.testing.assert_allclose(rows, _golden()[method], rtol=RTOL, atol=0)


def test_harmonic_run_matches_golden():
    cfg = HarmonicConfig(boundary_per_side=6, grid=5,
                         train=replace(HarmonicConfig().train, hidden=8,
                                       epochs=8, warmup_epochs=2, seed=2,
                                       batch_unlabelled=30,
                                       task=TaskParams(n_unlabelled=60)))
    params, report = harmonic_experiment(cfg)
    golden = _golden()
    np.testing.assert_allclose(params.theta, golden["harmonic_theta"],
                               rtol=RTOL, atol=0)
    np.testing.assert_allclose(report.grid_f, golden["harmonic_grid_f"],
                               rtol=RTOL, atol=0)
    np.testing.assert_allclose(report.energy_trajectory,
                               golden["harmonic_energy"], rtol=RTOL, atol=0)


def _fluid_rows(etas):
    tp = TaskParams(latent_dim=4, gen_hidden=6, ambient_dim=8, n_labelled=6,
                    n_unlabelled=30, n_test=2, separation=4.0)
    cfg = FluidConfig(etas=etas, horizon=0.4,
                      train=TrainConfig(lam=1.0, hidden=6,
                                        augmentation=AugmentationSpec(epsilon=0.2, k=4),
                                        task=tp),
                      seeds=(1, 2))
    return fluid_limit_experiment(cfg).rows


def test_fluid_run_matches_golden():
    rows = _fluid_rows((0.04, 0.02))
    golden = _golden()["fluid"]
    assert [(e, s) for e, s, _ in rows] == [(e, s) for e, s, _ in golden]
    np.testing.assert_allclose([d for _, _, d in rows],
                               [d for _, _, d in golden], rtol=RTOL, atol=0)


# the eta = 0.04 distances of the golden run while every eta had its own RK4
# reference at dt = eta; it now shares the eta = 0.02 reference
_OLD_COARSE = {1: 0.01369858131102788, 2: 0.004745272142242395}


def test_fluid_coarse_rows_moved_toward_a_finer_reference():
    # adding eta = 0.0025 compares the 0.04 path with a reference 8x finer
    # than the golden run's, so it stands in for the exact flow
    golden = {s: d for e, s, d in _golden()["fluid"] if e == 0.04}
    finer = {s: d for e, s, d in _fluid_rows((0.04, 0.02, 0.0025)) if e == 0.04}
    for seed, old in _OLD_COARSE.items():
        assert abs(golden[seed] - finer[seed]) < abs(old - finer[seed])


def test_default_config_text_is_unchanged():
    expected = (GOLDEN / "config_lines.txt").read_text()
    assert "\n".join(config_lines(parse_config(None))) == expected
    assert schema_help() == (GOLDEN / "schema_help.txt").read_text()
