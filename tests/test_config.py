"""Config schema, the variant table and exit-code classification."""
import dataclasses

import numpy as np

import pytest

import swarmlearn.cli as cli_mod
from swarmlearn.attacks import AttackSpec
from swarmlearn.baselines import VARIANTS, DiagnosticsFlags
from swarmlearn.cli import load_config, run_experiment
from swarmlearn.core import HyperParameters
from swarmlearn.experiment import DataConfig, ModelConfig

from test_cli import BASE_CONFIG, IDX_CONFIG, write_config
from test_data import write_idx_images, write_idx_labels


def test_section_keys_are_pinned():
    # derived from the dataclass fields; a new field is a new INI key
    assert cli_mod._SECTION_KEYS["data"] == {
        "source", "classes", "per_class", "dim", "separation", "test_per_class",
        "idx_images", "idx_labels", "idx_test_images", "idx_test_labels",
        "partition", "per_worker", "num_shards", "shards_per_worker",
        "global_train", "global_score",
    }
    assert cli_mod._SECTION_KEYS["model"] == {"kind", "hidden_dims", "init"}
    assert cli_mod._SECTION_KEYS["hyper"] == {
        "c0", "delta_c1", "delta_c2", "alpha", "batch_size", "rounds",
        "num_workers", "verify_tolerance", "inertia",
    }
    # AttackSpec fields plus the server's verification switch
    assert cli_mod._SECTION_KEYS["attack"] == {"attackers", "strategy", "scale", "verification"}
    assert cli_mod._SECTION_KEYS["diagnostics"] == {"cosine_stats", "divergence", "lipschitz_probes"}


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    path = write_config(tmp_path, "[experiment]\nvariants = cbdsl_full\nseeds = 1\n")
    cfg = load_config(str(path))
    assert cfg.data == DataConfig()
    assert (cfg.model_kind, cfg.hidden_dims, cfg.init_mode) == dataclasses.astuple(ModelConfig())
    assert cfg.hyper == HyperParameters()
    assert cfg.attack == AttackSpec()
    assert cfg.diagnostics == DiagnosticsFlags()
    assert cfg.verification is True


def test_ini_values_reach_the_dataclasses(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace("fedavg, ", "") + (
        "inertia = linear\nalpha = 0.25\n"
        "[attack]\nstrategy = fake_loss_scaled\nattackers = 0, 2\nscale = 3.5\nverification = off\n"
        "[diagnostics]\ncosine_stats = on\ndivergence = yes\nlipschitz_probes = 4\n"
    )
    cfg = load_config(str(write_config(tmp_path, text)))
    assert cfg.hyper.inertia_mode == "linear"
    assert cfg.hyper.alpha == 0.25 and cfg.hyper.num_workers == 4
    assert cfg.data.separation == 6.0 and cfg.data.idx_images is None
    assert cfg.attack == AttackSpec(frozenset({0, 2}), "fake_loss_scaled", 3.5)
    assert cfg.diagnostics == DiagnosticsFlags(cosine_stats=True, divergence=True, lipschitz_probes=4)
    assert cfg.verification is False


def test_variant_table_matches_the_paper():
    table = {v.name: (v.swarm, v.global_train, v.score) for v in VARIANTS.values()}
    assert table == {
        "fedavg": (False, False, "none"),
        "fedavg_gtr": (False, True, "none"),
        "cbdsl_plain": (True, False, "local"),
        "cbdsl_gsc": (True, False, "shared"),
        "cbdsl_full": (True, True, "shared"),
    }


SYNTHETIC = "source = synthetic\nclasses = 4\nper_class = 250\ndim = 5\nseparation = 6.0"
IDX = "source = idx\nidx_images = images.idx\nidx_labels = labels.idx\nclasses = 4"
SHARDS = "partition = shard\nnum_shards = 20\nshards_per_worker = 2"

# A key its section's own switch leaves unread: (text replaced, replacement,
# the message's start). Each used to run as if the key were absent (exit 0).
UNREAD_KEYS = [
    ("partition = shard", "partition = shard\nper_worker = 7",
     "[data] per_worker is unread under partition = shard"),
    (SHARDS, "partition = iid\nnum_shards = 20", "[data] num_shards is unread under partition = iid"),
    (SHARDS, "partition = iid\nshards_per_worker = 2",
     "[data] shards_per_worker is unread under partition = iid"),
    (SYNTHETIC, IDX + "\nper_class = 250", "[data] per_class is unread under source = idx"),
    (SYNTHETIC, IDX + "\ndim = 5", "[data] dim is unread under source = idx"),
    (SYNTHETIC, IDX + "\nseparation = 6.0", "[data] separation is unread under source = idx"),
    (SYNTHETIC, IDX + "\nidx_test_images = test-images.idx\nidx_test_labels = test-labels.idx",
     "[data] test_per_class is unread with idx_test_images set"),
    ("batch_size = 5", "batch_size = 5\n[attack]\nscale = 3.5",
     "[attack] scale is unread under strategy = none"),
    ("batch_size = 5", "batch_size = 5\n[diagnostics]\nlipschitz_probes = 4",
     "[diagnostics] lipschitz_probes is unread with cosine_stats = off"),
]


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
        # used to exit 3 ("batch must be nonempty") after creating the output
        # directory, or 2 with a message that named a different fault
        ("partition = shard", "partition = iid\nper_worker = 0"),
        ("partition = shard", "partition = iid\nper_worker = -5"),
        ("shards_per_worker = 2", "shards_per_worker = 0"),
        ("num_shards = 20", "num_shards = 0"),
        # used to fail only once data was being built
        ("classes = 4", "classes = 1"),
        ("per_class = 250", "per_class = 0"),
        ("dim = 5", "dim = 0"),
        # used to run (exit 0) on a test split of every free row but 5 per class
        ("test_per_class = 25", "test_per_class = -5"),
        # used to run a pair twice and write two identical summary rows
        ("variants = fedavg, cbdsl_full", "variants = fedavg, cbdsl_full, fedavg"),
        ("seeds = 1, 2", "seeds = 1, 1"),
        # used to exit 2 with numpy's "expected non-negative integer", naming no key
        ("seeds = 1, 2", "seeds = 2, -1"),
        # half an IDX test pair used to be dropped for a carved test split
        ("separation = 6.0", "separation = 6.0\nidx_test_images = test-images.idx"),
        ("separation = 6.0", "separation = 6.0\nidx_test_labels = test-labels.idx"),
        # IDX paths under the synthetic source used to be ignored
        ("separation = 6.0", "separation = 6.0\nidx_images = images.idx\nidx_labels = labels.idx"),
        ("separation = 6.0",
         "separation = 6.0\nidx_test_images = test-images.idx\nidx_test_labels = test-labels.idx"),
        # either half of an attack used to run unattacked (exit 0, no detections)
        ("batch_size = 5", "batch_size = 5\n[attack]\nattackers = 0\nstrategy = none"),
        ("batch_size = 5", "batch_size = 5\n[attack]\nstrategy = fake_loss_garbage"),
        *[(old, new) for old, new, _ in UNREAD_KEYS],
    ],
)
def test_rejected_before_anything_runs(tmp_path, old, new):
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    path = write_config(tmp_path, text)
    with pytest.raises(cli_mod.ConfigError):
        load_config(str(path))
    assert run_experiment(str(path)) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("variants = fedavg, cbdsl_full", "variants = cbdsl_full, fedavg, cbdsl_full",
         "[experiment] variants lists cbdsl_full more than once"),
        ("seeds = 1, 2", "seeds = 3, 1, 3, 1", "[experiment] seeds lists 1, 3 more than once"),
        ("seeds = 1, 2", "seeds = 1, -4", "[experiment] seeds must be >= 0, got -4"),
    ],
)
def test_repeated_and_negative_entries_name_their_key(tmp_path, capsys, old, new, message):
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    assert run_experiment(str(write_config(tmp_path, text))) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("old, new, message", UNREAD_KEYS)
def test_an_unread_key_names_its_section_and_key(tmp_path, capsys, old, new, message):
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    assert run_experiment(str(write_config(tmp_path, text))) == 2
    assert capsys.readouterr().err == f"config error: {message}; remove it\n"


def test_an_unread_key_left_empty_is_absent(tmp_path):
    # an empty value takes the default, as for every key
    text = BASE_CONFIG.format(out=tmp_path / "out").replace("partition = shard",
                                                            "partition = shard\nper_worker =")
    assert load_config(str(write_config(tmp_path, text))).data.per_worker == DataConfig().per_worker


# One bad value per dataclass section: (text replaced, replacement, the
# dataclass's message).
SECTION_FAULTS = {
    "data": ("partition = shard", "partition = diagonal",
             "partition must be one of ('iid', 'shard')"),
    "model": ("batch_size = 5", "batch_size = 5\n[model]\ninit = random",
              "init mode must be one of ('shared', 'per_worker')"),
    "hyper": ("batch_size = 5", "batch_size = 0", "batch_size must be >= 1"),
    "attack": ("batch_size = 5", "batch_size = 5\n[attack]\nstrategy = bogus",
               "unknown attack strategy 'bogus'"),
    "diagnostics": ("batch_size = 5",
                    "batch_size = 5\n[diagnostics]\ncosine_stats = on\nlipschitz_probes = 1",
                    "lipschitz_probes must be >= 2 when cosine_stats is on"),
}


@pytest.mark.parametrize("section", sorted(cli_mod._DATACLASS_SECTIONS))
def test_a_dataclass_check_names_its_section(tmp_path, capsys, section):
    old, new, message = SECTION_FAULTS[section]
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    assert run_experiment(str(write_config(tmp_path, text))) == 2
    assert capsys.readouterr().err == f"config error: [{section}] {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        # each used to exit 1 with a traceback from configparser or the decoder
        "[experiment]\nvariants = fedavg\nvariants = cbdsl_full\nseeds = 1\n",
        "variants = fedavg\n[experiment]\nseeds = 1\n",
        "[experiment]\nvariants = fedavg\nseeds = 1\nno equals sign here\n",
        "[experiment]\nvariants = fedavg\nseeds = 1\n# caf\xe9\n",
    ],
    ids=["duplicate-key", "no-section-header", "line-without-equals", "not-utf8"],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "exp.ini"
    path.write_bytes(text.replace("[experiment]\n", f"[experiment]\noutput_dir = {tmp_path / 'out'}\n")
                     .encode("latin-1"))
    assert run_experiment(str(path)) == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {path} is malformed: ")
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    assert run_experiment(str(write_config(tmp_path)), seed_override=-1) == 2
    assert capsys.readouterr().err == "config error: --seed-override must be >= 0, got -1\n"
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


def test_a_later_infeasible_seed_leaves_nothing_behind(tmp_path, monkeypatch, capsys):
    import swarmlearn.data as data_mod

    shards, calls, ran = data_mod.partition_shards, [], []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("too few held-out samples of class 3")
        return shards(*args)

    monkeypatch.setattr(data_mod, "partition_shards", second_call_fails)
    monkeypatch.setattr(cli_mod, "run_variant", lambda *args, **kwargs: ran.append(args))
    assert run_experiment(str(write_config(tmp_path))) == 2
    assert "config error in data setup seed 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not ran


def test_a_repeated_attacker_is_a_config_error(tmp_path, capsys):
    # used to run (exit 0) against attackers {0, 3}, the repeat dropped
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(
        "variants = fedavg, cbdsl_full", "variants = cbdsl_full"
    ).replace("rounds = 5", "rounds = 3") + (
        "[attack]\nstrategy = fake_loss_garbage\nattackers = 0, 0, 3\n"
    )
    assert run_experiment(str(write_config(tmp_path, text))) == 2
    assert capsys.readouterr().err == "config error: [attack] attackers: lists 0 more than once\n"
    assert not (tmp_path / "out").exists()


def test_value_error_while_running_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli_mod, "run_variant", broken)
    assert run_experiment(str(write_config(tmp_path))) == 3
    assert "runtime error in fedavg seed 1" in capsys.readouterr().err


def idx_files(tmp_path):
    """A 200-row IDX image/label pair of 4 classes under ``tmp_path``."""
    rng = np.random.default_rng(0)
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    write_idx_images(paths["images"], rng.integers(0, 256, size=(200, 3, 3), dtype=np.uint8))
    write_idx_labels(paths["labels"], rng.integers(0, 4, size=200).tolist())
    return paths


@pytest.mark.parametrize("which", ["images", "labels"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_input_file_is_a_config_error(tmp_path, capsys, which, kind):
    # each used to exit 3 as a runtime error, though nothing had run
    paths = idx_files(tmp_path)
    paths[which] = tmp_path / f"{which}-{kind}"
    if kind == "directory":
        paths[which].mkdir()
    config = write_config(tmp_path, IDX_CONFIG.format(**paths))
    assert run_experiment(str(config), output_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error in data setup seed 1: ") and str(paths[which]) in err
    assert not (tmp_path / "out").exists()


def test_an_input_file_lost_while_running_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    paths = idx_files(tmp_path)
    config = write_config(tmp_path, IDX_CONFIG.format(**paths).replace("seeds = 1", "seeds = 1, 2"))
    run = cli_mod.run_variant

    def run_then_lose_images(*args, **kwargs):
        result = run(*args, **kwargs)
        paths["images"].unlink()
        return result

    monkeypatch.setattr(cli_mod, "run_variant", run_then_lose_images)
    assert run_experiment(str(config), output_dir=str(tmp_path / "out")) == 3
    assert "runtime error in data setup seed 2: " in capsys.readouterr().err
