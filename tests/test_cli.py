import configparser
import csv
import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from swarmlearn.baselines import RunResult
from swarmlearn.cli import (
    BASE_COLUMNS,
    _fmt,
    load_config,
    main,
    report_communication,
    run_experiment,
    write_run_csv,
)
from swarmlearn.experiment import RoundRecord

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


DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"


def desk_config(tmp_path, name, **sections):
    """configs/desk.ini at 20 rounds, seed 1, cosine statistics on, writing
    to ``tmp_path / name``; ``sections`` maps a section to the keys it overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(DESK)
    parser["experiment"].update(seeds="1", output_dir=str(tmp_path / name))
    parser["hyper"]["rounds"] = "20"
    parser["diagnostics"]["cosine_stats"] = "on"
    for section, keys in sections.items():
        parser[section].update(keys)
    path = tmp_path / f"{name}.ini"
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)
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

    def test_no_numpy_scalar_repr_reaches_a_table(self, tmp_path):
        # a numpy scalar formatted by repr prints as np.float64(0.138)
        config = desk_config(tmp_path, "out", diagnostics={"divergence": "on"})
        assert run_experiment(str(config)) == 0
        assert report_communication(str(tmp_path / "out")) == 0
        tables = sorted((tmp_path / "out").rglob("*.csv"))
        assert {p.name for p in tables} >= {"summary.csv", "diagnostics.csv", "communication.csv"}
        assert len(tables) == 3 + 5
        for path in tables:
            assert "np." not in path.read_text(), path.name

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

    def test_seed_diagnostics_probe_no_class(self, tmp_path, monkeypatch):
        # diagnostics.csv reads only the global estimate, so no class
        # gradient is taken at the probe points
        import swarmlearn.analysis as analysis_mod

        text = BASE_CONFIG.format(out=tmp_path / "out").replace("fedavg, ", "") + (
            "\n[diagnostics]\ncosine_stats = on\nlipschitz_probes = 4\n"
        )
        estimate, classes = analysis_mod.estimate_model_lipschitz, []
        monkeypatch.setattr(
            analysis_mod, "estimate_model_lipschitz",
            lambda *args: classes.append(args[2]) or estimate(*args),
        )
        assert run_experiment(str(write_config(tmp_path, text))) == 0
        assert classes == [0, 0]

    def test_run_rows_take_variant_and_seed_from_the_result(self, tmp_path):
        # a round record holds no per-run facts; the run's table reads them once
        assert not {"variant", "seed"} & {f.name for f in dataclasses.fields(RoundRecord)}
        result = RunResult("cbdsl_gsc", 7, [RoundRecord(0, 0.5, 1.0, 0.5, 2.0, 0.25, 4, 1, 1, 0)],
                           None)
        write_run_csv(tmp_path / "run.csv", result, ())
        assert (tmp_path / "run.csv").read_text().splitlines() == [
            ",".join(BASE_COLUMNS), "0,cbdsl_gsc,7,0.5,1.0,0.5,2.0,0.25,4,1,1,0",
        ]

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


@pytest.mark.parametrize("value, text", [
    (0.25, "0.25"), (np.float64(0.25), "0.25"), (np.float64(0.1), "0.1"),
    (np.float32(0.5), "0.5"), (np.float32(0.1), "0.10000000149011612"),
    (np.float64("nan"), "nan"),
])
def test_numpy_scalars_print_as_python_numbers(value, text):
    # np.float64 subclasses float, and its repr is "np.float64(0.25)"
    assert _fmt(value) == text


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

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text.replace("\nfedavg,1,", "\nfedavg,one,", 1), "line 2"),
        (lambda text: text.replace("total_vector_uplinks", "uplinks", 1), "total_vector_uplinks"),
        (lambda text: _set_total(text, "fedavg", 0), "line 2"),
        (lambda text: text + text.splitlines()[1] + "\r\n", "line 6: fedavg seed 1 repeats line 2"),
    ], ids=["non_integer_seed", "missing_column", "zero_fedavg_total", "repeated_pair"])
    def test_malformed_summary_is_a_config_error(self, tmp_path, capsys, edit, named):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_experiment(str(path)) == 0
        assert report_communication(str(out)) == 0
        capsys.readouterr()
        summary = out / "summary.csv"
        summary.write_text(edit(summary.read_text()))
        assert report_communication(str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(summary) in err and named in err
        assert not (out / "communication.csv").exists()

    def test_summary_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{out / 'summary.csv'} is unreadable" in err

    def test_summary_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_experiment(str(path)) == 0
        assert report_communication(str(out)) == 0
        capsys.readouterr()
        summary = out / "summary.csv"
        summary.write_bytes(summary.read_bytes().replace(b"fedavg", b"fed\xffavg", 1))
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{summary} is unreadable" in err
        assert "can't decode byte 0xff" in err
        assert not (out / "communication.csv").exists()


def _set_total(text, variant, total):
    """The summary with ``variant``'s first total_vector_uplinks set to ``total``."""
    rows = list(csv.reader(io.StringIO(text)))
    column = rows[0].index("total_vector_uplinks")
    next(row for row in rows[1:] if row[0] == variant)[column] = str(total)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


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


class TestDiagnosticsTable:
    def test_a_pairs_row_does_not_depend_on_the_other_pairs(self, tmp_path):
        rows = {}
        for name, variants in (("alone", "cbdsl_full"), ("beside", "cbdsl_plain, cbdsl_full")):
            config = desk_config(tmp_path, name, experiment={"variants": variants})
            assert run_experiment(str(config)) == 0
            lines = (tmp_path / name / "diagnostics.csv").read_text().splitlines()
            rows[name] = [line for line in lines if line.startswith("cbdsl_full,")]
        assert len(rows["alone"]) == 1
        assert rows["alone"] == rows["beside"]

    def test_trusted_forged_claims_do_not_set_f_star(self, tmp_path):
        # fake_loss_garbage claims a negative loss; with verification off the
        # server trusts it, yet f_star stays the cross-entropy's floor
        config = desk_config(
            tmp_path, "out",
            experiment={"variants": "cbdsl_plain, cbdsl_gsc, cbdsl_full"},
            attack={"strategy": "fake_loss_garbage", "attackers": "0, 3", "verification": "off"},
        )
        assert run_experiment(str(config)) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            assert min(float(r["final_f_g"]) for r in csv.DictReader(f)) < 0.0
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for row in rows:
            assert float(row["f_star"]) == 0.0
            assert float(row["bound"]) == float(row["f0"]) / (20 * float(row["phi_e"]))


class TestSeedBySeed:
    def test_one_seed_world_is_alive_at_a_time(self, tmp_path, monkeypatch):
        import gc
        import weakref

        import swarmlearn.cli as cli_mod

        build, run = cli_mod.build_setup, cli_mod.run_variant
        built, alive_at_build, alive_at_run = [], [], []

        def alive():
            gc.collect()
            return sum(ref() is not None for ref in built)

        def recording_build(*args, **kwargs):
            alive_at_build.append(alive())
            setup = build(*args, **kwargs)
            built.append(weakref.ref(setup))
            return setup

        def recording_run(variant, setup, *args, **kwargs):
            alive_at_run.append((variant, setup.seed, alive(), len(built)))
            return run(variant, setup, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "build_setup", recording_build)
        monkeypatch.setattr(cli_mod, "run_variant", recording_run)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("seeds = 1, 2", "seeds = 1, 2, 3")
        assert run_experiment(str(write_config(tmp_path, text))) == 0
        # the last world is gone before the next one is built
        assert alive_at_build == [0, 0, 0]
        # (variant, seed, worlds alive, worlds built so far), in run order
        assert alive_at_run == [
            (variant, seed, 1, built_so_far)
            for built_so_far, seed in enumerate((1, 2, 3), start=1)
            for variant in ("fedavg", "cbdsl_full")
        ]

    def test_each_seeds_partition_is_drawn_once(self, tmp_path, monkeypatch):
        import swarmlearn.data as data_mod

        shards, calls = data_mod.partition_shards, []

        def recording_shards(*args):
            calls.append(args)
            return shards(*args)

        monkeypatch.setattr(data_mod, "partition_shards", recording_shards)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("seeds = 1, 2", "seeds = 1, 2, 3")
        assert run_experiment(str(write_config(tmp_path, text))) == 0
        # a later seed's draws, taken before the output directory is touched,
        # build its world: they are not drawn again
        assert len(calls) == 3

    def test_an_idx_label_file_is_read_once_per_run(self, tmp_path, monkeypatch):
        import swarmlearn.data as data_mod
        from test_data import write_idx_images, write_idx_labels

        read, reads = data_mod._read_idx, []

        def recording_read(path, *args):
            reads.append(Path(path).name)
            return read(path, *args)

        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "images.idx", rng.integers(0, 256, size=(200, 3, 3), dtype=np.uint8))
        write_idx_labels(tmp_path / "labels.idx", rng.integers(0, 4, size=200).tolist())
        text = IDX_CONFIG.format(images=tmp_path / "images.idx", labels=tmp_path / "labels.idx")
        full = write_config(tmp_path, text.replace("seeds = 1", "seeds = 1, 2, 3"), name="full.ini")
        monkeypatch.setattr(data_mod, "_read_idx", recording_read)
        assert run_experiment(str(full), output_dir=str(tmp_path / "full")) == 0
        # the labels do not depend on the seed; each seed reads its images
        assert sorted(reads) == ["images.idx"] * 3 + ["labels.idx"]
        monkeypatch.setattr(data_mod, "_read_idx", read)
        for seed in (1, 2, 3):
            alone = write_config(tmp_path, text.replace("seeds = 1", f"seeds = {seed}"),
                                 name=f"seed{seed}.ini")
            assert run_experiment(str(alone), output_dir=str(tmp_path / f"seed{seed}")) == 0
            name = Path("runs") / f"cbdsl_gsc_{seed}.csv"
            assert (tmp_path / f"seed{seed}" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes()

    def test_every_seed_draws_from_one_label_array(self, tmp_path, monkeypatch):
        import swarmlearn.cli as cli_mod

        draw, worlds = cli_mod.draw_labels, []

        def recording_draw(*args, **kwargs):
            draws = draw(*args, **kwargs)
            worlds.append(draws[0])
            return draws

        monkeypatch.setattr(cli_mod, "draw_labels", recording_draw)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("seeds = 1, 2", "seeds = 1, 2, 3")
        assert run_experiment(str(write_config(tmp_path, text))) == 0
        assert len(worlds) == 3
        assert all(np.shares_memory(world.labels, worlds[0].labels) for world in worlds[1:])

    def test_a_pairs_outputs_do_not_depend_on_the_other_seeds(self, tmp_path):
        # the shape of perfbench's audit workload at 6 rounds
        sections = {
            "hyper": {"rounds": "6"},
            "attack": {"strategy": "fake_loss_garbage", "attackers": "0, 3"},
            "diagnostics": {"divergence": "on", "lipschitz_probes": "16"},
        }
        variants, later = ("cbdsl_gsc", "cbdsl_full"), ("8", "9")
        full = desk_config(tmp_path, "full", experiment={
            "variants": ", ".join(variants), "seeds": "7, 8, 9"}, **sections)
        assert run_experiment(str(full)) == 0

        with open(tmp_path / "full" / "diagnostics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["variant"], r["seed"]) for r in rows] == [
            (variant, seed) for variant in variants for seed in ("7", "8", "9")
        ]
        assert all(np.isfinite(float(r["lipschitz"])) for r in rows)
        with open(tmp_path / "full" / "summary.csv", newline="") as f:
            assert [r["total_detections"] for r in csv.DictReader(f)] == ["2"] * 6

        # every pair of a later seed, run alone, writes the full run's bytes
        for variant in variants:
            for seed in later:
                name = f"{variant}_{seed}"
                alone = desk_config(tmp_path, name, experiment={
                    "variants": variant, "seeds": seed}, **sections)
                assert run_experiment(str(alone)) == 0
                run_csv = Path("runs") / f"{name}.csv"
                assert ((tmp_path / name / run_csv).read_bytes()
                        == (tmp_path / "full" / run_csv).read_bytes())
                diag_lines = {
                    out: [line for line in (tmp_path / out / "diagnostics.csv").read_text()
                          .splitlines() if line.startswith(f"{variant},{seed},")]
                    for out in ("full", name)
                }
                assert len(diag_lines[name]) == 1
                assert diag_lines["full"] == diag_lines[name]


class TestOutputDirectory:
    def test_a_regular_file_is_a_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert run_experiment(str(write_config(tmp_path)), output_dir=str(taken)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory") and str(taken) in err
        assert taken.read_text() == "not a directory"

    def test_a_summary_that_is_a_directory_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        import swarmlearn.cli as cli_mod

        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        ran = []
        monkeypatch.setattr(cli_mod, "run_variant", lambda *args, **kwargs: ran.append(args))
        assert run_experiment(str(write_config(tmp_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory") and str(out) in err
        assert not ran
        assert (out / "summary.csv").is_dir()


class TestMain:
    def test_run_and_report_roundtrip(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "cli_out")]) == 0
        assert main(["report", str(tmp_path / "cli_out")]) == 0
