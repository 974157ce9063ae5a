"""Config schema, the variant table and exit-code classification."""
import pytest

import swarmlearn.cli as cli_mod
from swarmlearn.baselines import VARIANTS
from swarmlearn.cli import load_config, run_experiment
from swarmlearn.core import HyperParameters
from swarmlearn.experiment import DataConfig

from test_cli import BASE_CONFIG, write_config


def test_section_keys_are_pinned():
    # derived from the dataclass fields; a new field is a new INI key
    assert cli_mod._SECTION_KEYS["data"] == {
        "source", "classes", "per_class", "dim", "separation", "test_per_class",
        "idx_images", "idx_labels", "idx_test_images", "idx_test_labels",
        "partition", "per_worker", "num_shards", "shards_per_worker",
        "global_train", "global_score",
    }
    assert cli_mod._SECTION_KEYS["hyper"] == {
        "c0", "delta_c1", "delta_c2", "alpha", "batch_size", "rounds",
        "num_workers", "verify_tolerance", "inertia",
    }


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    path = write_config(tmp_path, "[experiment]\nvariants = cbdsl_full\nseeds = 1\n")
    cfg = load_config(str(path))
    assert cfg.data == DataConfig()
    assert cfg.hyper == HyperParameters()


def test_ini_values_reach_the_dataclasses(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path) + "inertia = linear\nalpha = 0.25\n"
    cfg = load_config(str(write_config(tmp_path, text)))
    assert cfg.hyper.inertia_mode == "linear"
    assert cfg.hyper.alpha == 0.25 and cfg.hyper.num_workers == 4
    assert cfg.data.separation == 6.0 and cfg.data.idx_images is None


def test_variant_table_matches_the_paper():
    table = {v.name: (v.swarm, v.global_train, v.score) for v in VARIANTS.values()}
    assert table == {
        "fedavg": (False, False, "none"),
        "fedavg_gtr": (False, True, "none"),
        "cbdsl_plain": (True, False, "local"),
        "cbdsl_gsc": (True, False, "shared"),
        "cbdsl_full": (True, True, "shared"),
    }


@pytest.mark.parametrize(
    "old, new",
    [
        # each of these used to pass load_config and fail only once running
        ("batch_size = 5", "batch_size = 5\n[model]\nkind = mlp\nhidden_dims = 0"),
        ("batch_size = 5", "batch_size = 5\n[attack]\nattackers = 7"),
        # used to run every pair, then die in the Lipschitz estimator (exit 1)
        ("batch_size = 5", "batch_size = 5\n[diagnostics]\ncosine_stats = on\nlipschitz_probes = 1"),
        # used to run and write output that looks valid: every honest upload
        # screened, accuracy nan
        ("batch_size = 5", "batch_size = 5\nverify_tolerance = nan"),
        # used to fail at run time (exit 3) after creating the output directory
        ("batch_size = 5", "batch_size = 5\nalpha = nan"),
        ("batch_size = 5", "batch_size = 5\nc0 = inf"),
        ("batch_size = 5", "batch_size = 5\ndelta_c1 = nan"),
        ("batch_size = 5", "batch_size = 5\ndelta_c2 = inf"),
        ("separation = 6.0", "separation = nan"),
        ("batch_size = 5", "batch_size = 5\n[attack]\nscale = inf"),
    ],
)
def test_rejected_before_anything_runs(tmp_path, old, new):
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    path = write_config(tmp_path, text)
    with pytest.raises(cli_mod.ConfigError):
        load_config(str(path))
    assert run_experiment(str(path)) == 2
    assert not (tmp_path / "out").exists()


def test_infeasible_seed_is_a_config_error(tmp_path, capsys):
    # 4 workers hold 8 of 20 shards, leaving 600 samples (150 per class)
    # for the shared sets; 800 scoring samples cannot be met
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(
        "global_score = 80", "global_score = 800"
    )
    assert run_experiment(str(write_config(tmp_path, text))) == 2
    assert "config error in data setup seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_value_error_while_running_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli_mod, "run_variant", broken)
    assert run_experiment(str(write_config(tmp_path))) == 3
    assert "runtime error in fedavg seed 1" in capsys.readouterr().err
