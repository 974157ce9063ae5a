import hashlib
from pathlib import Path

import pytest

from swarmlearn.cli import load_config, main, report_communication, run_experiment

BASE_CONFIG = """\
[experiment]
variants = fedavg, cbdsl_full
seeds = 1, 2
output_dir = {out}

[data]
source = synthetic
classes = 4
per_class = 250
dim = 5
separation = 6.0
test_per_class = 25
partition = shard
num_shards = 20
shards_per_worker = 2
global_train = 80
global_score = 80

[hyper]
rounds = 5
num_workers = 4
batch_size = 5
"""


def write_config(tmp_path, text=None, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text if text is not None else BASE_CONFIG.format(out=tmp_path / "out"))
    return path


def hash_tree(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv"))
    }


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(str(write_config(tmp_path)))
        assert cfg.variants == ("fedavg", "cbdsl_full")
        assert cfg.seeds == (1, 2)
        assert cfg.hyper.rounds == 5

    def test_unknown_key_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path) + "\nmomentum = 0.9\n"
        path = write_config(tmp_path, text)
        with pytest.raises(Exception, match="momentum"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path) + "\n[plotting]\nstyle = dark\n"
        with pytest.raises(Exception, match="plotting"):
            load_config(str(write_config(tmp_path, text)))

    def test_missing_score_set_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path).replace("global_score = 80", "global_score = 0")
        with pytest.raises(Exception, match="missing global scoring"):
            load_config(str(write_config(tmp_path, text)))

    def test_pure_pso_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path).replace(
            "variants = fedavg, cbdsl_full", "variants = pure_pso"
        )
        with pytest.raises(Exception, match="unknown variant"):
            load_config(str(write_config(tmp_path, text)))

    def test_attack_with_fedavg_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path) + (
            "\n[attack]\nstrategy = fake_loss_garbage\nattackers = 0\n"
        )
        with pytest.raises(Exception, match="swarm"):
            load_config(str(write_config(tmp_path, text)))

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_experiment(str(tmp_path / "nope.ini")) == 2

    def test_runtime_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        from swarmlearn.core import NonFiniteError
        import swarmlearn.cli as cli_mod

        def explode(*args, **kwargs):
            raise NonFiniteError("non-finite values in worker 2 parameters at round 4")

        monkeypatch.setattr(cli_mod, "run_variant", explode)
        path = write_config(tmp_path)
        assert run_experiment(str(path)) == 3
        err = capsys.readouterr().err
        assert "runtime error in fedavg seed 1" in err
        assert "worker 2" in err and "round 4" in err


class TestRunExperiment:
    def test_produces_expected_files(self, tmp_path):
        path = write_config(tmp_path)
        assert run_experiment(str(path)) == 0
        out = tmp_path / "out"
        runs = sorted(p.name for p in (out / "runs").glob("*.csv"))
        assert runs == [
            "cbdsl_full_1.csv", "cbdsl_full_2.csv", "fedavg_1.csv", "fedavg_2.csv",
        ]
        assert (out / "summary.csv").exists()
        header = (out / "runs" / "fedavg_1.csv").read_text().splitlines()[0]
        assert header.startswith("round,variant,seed,f_g,train_loss_mean")

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        assert run_experiment(str(path), output_dir=str(tmp_path / "a")) == 0
        assert run_experiment(str(path), output_dir=str(tmp_path / "b")) == 0
        assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        assert run_experiment(str(path), output_dir=str(tmp_path / "o"), seed_override=9) == 0
        runs = sorted(p.name for p in (tmp_path / "o" / "runs").glob("*.csv"))
        assert runs == ["cbdsl_full_9.csv", "fedavg_9.csv"]

    def test_diagnostics_outputs(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path / "out") + (
            "\n[diagnostics]\ncosine_stats = on\ndivergence = on\nlipschitz_probes = 4\n"
        )
        path = write_config(tmp_path, text)
        assert run_experiment(str(path)) == 0
        out = tmp_path / "out"
        assert (out / "diagnostics.csv").exists()
        header = (out / "runs" / "cbdsl_full_1.csv").read_text().splitlines()[0]
        assert "recursion_residual" in header
        assert "divergence_mean" in header
        diag_rows = (out / "diagnostics.csv").read_text().splitlines()
        # fedavg contributes no alignment stats; one row per swarm run
        assert len(diag_rows) == 1 + 2

    def test_seed_diagnostics_are_computed_once_per_seed(self, tmp_path, monkeypatch):
        import csv

        import swarmlearn.analysis as analysis_mod

        # lipschitz and f0 depend only on the seed, so both swarm variants share them
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "variants = fedavg, cbdsl_full", "variants = cbdsl_gsc, cbdsl_full"
        ) + "\n[diagnostics]\ncosine_stats = on\nlipschitz_probes = 4\n"
        estimate = analysis_mod.estimate_model_lipschitz
        calls = []
        monkeypatch.setattr(
            analysis_mod, "estimate_model_lipschitz",
            lambda *args: calls.append(1) or estimate(*args),
        )
        assert run_experiment(str(write_config(tmp_path, text))) == 0
        assert len(calls) == 2
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["variant"], r["seed"]) for r in rows] == [
            ("cbdsl_gsc", "1"), ("cbdsl_gsc", "2"), ("cbdsl_full", "1"), ("cbdsl_full", "2"),
        ]
        for a, b in ((rows[0], rows[2]), (rows[1], rows[3])):
            assert (a["lipschitz"], a["f0"]) == (b["lipschitz"], b["f0"])

    def test_summary_totals_match_run_files(self, tmp_path):
        import csv

        path = write_config(tmp_path)
        run_experiment(str(path))
        out = tmp_path / "out"
        with open(out / "summary.csv", newline="") as f:
            summary = {(r["variant"], r["seed"]): r for r in csv.DictReader(f)}
        for (variant, seed), row in summary.items():
            with open(out / "runs" / f"{variant}_{seed}.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            assert int(row["total_vector_uplinks"]) == sum(int(r["vector_uplinks"]) for r in rows)
            assert int(row["total_scalar_uplinks"]) == sum(int(r["scalar_uplinks"]) for r in rows)
            assert len(rows) == int(row["rounds"])

    def test_paired_seeding_digests_in_summary(self, tmp_path):
        import csv

        path = write_config(tmp_path)
        run_experiment(str(path))
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        for seed in ("1", "2"):
            digests = {
                (r["partition_digest"], r["init_digest"]) for r in rows if r["seed"] == seed
            }
            assert len(digests) == 1


IDX_CONFIG = """\
[experiment]
variants = cbdsl_gsc
seeds = 1

[data]
source = idx
idx_images = {images}
idx_labels = {labels}
classes = 4
test_per_class = 5
partition = iid
per_worker = 30
global_train = 0
global_score = 20

[hyper]
rounds = 3
num_workers = 3
batch_size = 5
"""


class TestIdxSource:
    def test_runs_from_idx_files(self, tmp_path):
        import numpy as np

        from test_data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(200, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 4, size=200).tolist()
        img_path = tmp_path / "train-images.idx"
        lbl_path = tmp_path / "train-labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lbl_path, labels)

        config = tmp_path / "idx.ini"
        config.write_text(IDX_CONFIG.format(images=img_path, labels=lbl_path))
        assert run_experiment(str(config), output_dir=str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "runs" / "cbdsl_gsc_1.csv").exists()


class TestReport:
    def test_ratio_table(self, tmp_path, capsys):
        path = write_config(tmp_path)
        run_experiment(str(path))
        out = tmp_path / "out"
        assert report_communication(str(out)) == 0
        printed = capsys.readouterr().out
        assert "ratio" in printed
        import csv

        with open(out / "communication.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2  # one swarm variant x two seeds
        for row in rows:
            u = 4  # workers
            T = 5  # rounds
            assert int(row["fedavg_vector_uplinks"]) == T * u
            assert float(row["ratio"]) <= 1 / u + 1e-12

    def test_missing_pair_warns_and_skips(self, tmp_path, capsys):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "variants = fedavg, cbdsl_full", "variants = cbdsl_full"
        )
        path = write_config(tmp_path, text)
        run_experiment(str(path))
        assert report_communication(str(tmp_path / "out")) == 0
        assert "skipped" in capsys.readouterr().err

    def test_missing_summary_is_error(self, tmp_path):
        assert report_communication(str(tmp_path)) == 2


class TestStaleTables:
    def test_failed_rerun_leaves_no_summary(self, tmp_path, monkeypatch):
        import swarmlearn.cli as cli_mod

        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_experiment(str(path)) == 0
        assert report_communication(str(out)) == 0

        def explode(*args, **kwargs):
            raise RuntimeError("worker process died")

        monkeypatch.setattr(cli_mod, "run_variant", explode)
        assert run_experiment(str(path)) == 3
        assert not (out / "summary.csv").exists()
        assert not (out / "communication.csv").exists()
        # nothing left for report to read stale totals from
        assert report_communication(str(out)) == 2

    def test_rerun_without_diagnostics_drops_their_table(self, tmp_path):
        out = tmp_path / "out"
        plain = BASE_CONFIG.format(out=out)
        diag = plain + "\n[diagnostics]\ncosine_stats = on\nlipschitz_probes = 4\n"
        assert run_experiment(str(write_config(tmp_path, diag))) == 0
        assert (out / "diagnostics.csv").exists()
        assert run_experiment(str(write_config(tmp_path, plain))) == 0
        assert not (out / "diagnostics.csv").exists()

    def test_rerun_with_fewer_pairs_drops_their_run_csvs(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(str(write_config(tmp_path))) == 0
        (out / "runs" / "notes.txt").write_text("kept")
        (out / "runs" / "fedavg_best.csv").write_text("kept")
        fewer = BASE_CONFIG.format(out=out).replace(
            "variants = fedavg, cbdsl_full", "variants = cbdsl_full"
        )
        assert run_experiment(str(write_config(tmp_path, fewer))) == 0
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "cbdsl_full_1.csv", "cbdsl_full_2.csv", "fedavg_best.csv", "notes.txt",
        ]


class TestMain:
    def test_run_and_report_roundtrip(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "cli_out")]) == 0
        assert main(["report", str(tmp_path / "cli_out")]) == 0
