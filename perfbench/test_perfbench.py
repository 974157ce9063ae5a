"""Tests of the benchmark itself: python -m pytest perfbench"""
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from swarmlearn import cli, experiment  # noqa: E402
from swarmlearn.model import ModelSpec  # noqa: E402


def small(name: str, rounds: int = 6) -> workloads.Workload:
    """A workload cut to a few rounds, for fast end-to-end checks."""
    wl = workloads.WORKLOADS[name]
    sections = {**wl.sections, "hyper": {**wl.sections["hyper"], "rounds": str(rounds)}}
    return dataclasses.replace(wl, sections=sections)


def expect_for(wl: workloads.Workload, seeds) -> checks.Expect:
    h = wl.sections["hyper"]
    return checks.Expect(wl.variants, tuple(seeds), int(h["rounds"]), int(h["num_workers"]),
                         len(wl.attackers), wl.diagnostics)


def run_cli(wl, seeds, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    config = workloads.write_ini(wl, seeds, tmp_path)
    assert cli.run_experiment(str(config), output_dir=str(out)) == 0
    return out


# --- spans -------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    table = spans.SpanTable(
        names=["root", "a", "g", "b"],
        name=[0, 1, 2, 3],
        start=[0.0, 1.0, 2.0, 5.0],
        end=[10.0, 4.0, 3.0, 9.0],
        parent=[-1, 0, 1, 0],
    )
    assert table.self_time.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert table.self_ms("root") == 3000.0
    assert table.total_ms("a") == 3000.0
    assert table.parent_named(["root"]).tolist() == [False, True, False, True]


def test_self_time_sums_over_calls_of_one_name():
    table = spans.SpanTable(
        names=["round", "step"], name=[0, 1, 1, 0, 1],
        start=[0.0, 0.5, 1.5, 4.0, 4.5], end=[3.0, 1.0, 2.5, 6.0, 5.0],
        parent=[-1, 0, 0, -1, 3],
    )
    assert table.calls("step") == 3
    assert table.self_ms("round") == pytest.approx((3.0 - 1.5 + 2.0 - 0.5) * 1e3)
    assert table.self_ms("step") == pytest.approx(2.0e3)
    assert table.calls("absent") == 0 and table.self_ms("absent") == 0.0


def test_flops_follow_the_layer_shapes():
    spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(5,))
    forward = 2 * (5 * 4 + 3 * 5)
    assert spans.flops_per_sample(spec, "model.loss") == forward
    assert spans.flops_per_sample(spec, "model.accuracy") == forward
    assert spans.flops_per_sample(spec, "model.loss_and_gradient") == 2 * forward + 2 * 3 * 5
    assert spans.spec_params(spec) == 5 * 4 + 5 + 3 * 5 + 3


def test_traced_runs_repeat_counts_and_keep_csv_bytes(tmp_path):
    wl = small("audit")
    config = workloads.write_ini(wl, (1, 2), tmp_path)
    plain = run_cli(wl, (1, 2), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    metrics = []
    for i in range(2):
        out, npz = tmp_path / f"traced{i}", tmp_path / f"spans{i}.npz"
        subprocess.run([sys.executable, str(HERE / "traced_run.py"), str(config), str(out), str(npz)],
                       env=env, check=True, capture_output=True, timeout=120)
        report = checks.check_output(out, expect_for(wl, (1, 2)))
        assert report.failures == {}
        assert report.digests == checks.check_output(plain, expect_for(wl, (1, 2))).digests
        spec = ModelSpec("softmax_regression", 20, 10)
        metrics.append(spans.layer_metrics(spans.SpanTable.load(npz), spec, report.ledger))
    exact = {k: v for k, v in metrics[0].items() if run.is_exact(k)}
    assert exact == {k: v for k, v in metrics[1].items() if run.is_exact(k)}
    m = metrics[0]
    assert m["swarm.run_round.calls"] == 2 * 2 * 6
    assert m["model.loss_and_gradient.calls"] == 2 * 2 * 6 * 10
    assert m["attacks.forge_report.calls"] > 0 and m["analysis.genie_step.calls"] == 2 * 2 * 6
    assert m["swarm.server_scores_per_uplink"] > 1.0
    assert m["swarm.accept_ratio"] < 1.0


# --- checks ------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    wl = small("desk")
    return run_cli(wl, (1,), tmp), expect_for(wl, (1,))


def rewrite(path: Path, edit) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows = edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def tampered(desk_output, tmp_path, name, edit) -> checks.Report:
    out, expect = desk_output
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    rewrite(copy / "runs" / name, edit)
    return checks.check_output(copy, expect)


def test_checker_accepts_the_program_output(desk_output):
    out, expect = desk_output
    report = checks.check_output(out, expect)
    assert report.failures == {}
    assert set(report.ledger) == set(expect.pairs)
    assert report.ledger[("fedavg", 1)]["vector_uplinks"] == 6 * 10
    assert "summary.csv" in report.digests


def test_checker_rejects_a_tampered_ledger_row(desk_output, tmp_path):
    def edit(rows):
        col = rows[0].index("vector_uplinks")
        rows[3][col] = str(int(rows[3][col]) + 1)
        return rows

    report = tampered(desk_output, tmp_path, "cbdsl_full_1.csv", edit)
    assert list(report.failures) == [("cbdsl_full", 1)]


def test_checker_rejects_a_rising_f_g(desk_output, tmp_path):
    def edit(rows):
        col = rows[0].index("f_g")
        rows[-1][col] = repr(float(rows[-2][col]) + 0.5)
        return rows

    report = tampered(desk_output, tmp_path, "cbdsl_gsc_1.csv", edit)
    assert any("f_g rose" in e for e in report.failures[("cbdsl_gsc", 1)])


def test_checker_rejects_a_missing_round(desk_output, tmp_path):
    report = tampered(desk_output, tmp_path, "fedavg_gtr_1.csv", lambda rows: rows[:3] + rows[4:])
    assert list(report.failures) == [("fedavg_gtr", 1)]


def test_checker_counts_detections_against_the_attackers():
    row = {"round": "0", "variant": "cbdsl_gsc", "seed": "1", "f_g": "1.0",
           "scalar_uplinks": "4", "vector_uplinks": "2", "vector_broadcasts": "1", "detections": "1"}
    expect = checks.Expect(("cbdsl_gsc",), (1,), 1, 4, attackers=1, diagnostics=False)
    assert checks.check_run_rows([row], "cbdsl_gsc", 1, expect) == []
    clean = dataclasses.replace(expect, attackers=0)
    assert checks.check_run_rows([row], "cbdsl_gsc", 1, clean) == ["1 detections, expected 0"]


# --- workloads and the contract ----------------------------------------------

@pytest.mark.parametrize("name, params, worker_rounds", [
    ("desk", 210, 30_000), ("wide", 50_890, 3_000), ("audit", 210, 8_000),
])
def test_generated_configs_load_with_the_expected_shape(tmp_path, name, params, worker_rounds):
    wl = workloads.WORKLOADS[name]
    cfg = cli.load_config(str(workloads.write_ini(wl, range(7, 7 + wl.seed_count), tmp_path)))
    setup = experiment.build_setup(cfg.data, cfg.model_kind, cfg.hidden_dims, cfg.hyper, 7, cfg.init_mode)
    shape = workloads.shape_of(cfg, spans.spec_params(setup.spec))
    assert shape.params == len(setup.init_w) == params
    assert shape.worker_rounds == worker_rounds


def test_pick_seeds_skips_rejected_seeds():
    wl = workloads.WORKLOADS["desk"]
    assert workloads.pick_seeds(wl, 4, lambda s: s != 5) == ((4, 6, 7), (5,))
    with pytest.raises(RuntimeError):
        workloads.pick_seeds(wl, 0, lambda s: False)


def test_benchmark_json_matches_what_the_benchmark_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: u for n, u in spans.LAYER_UNITS.items() if n not in spans.SPARSE
    }
    table = spans.SpanTable(["x"], [0], [0.0], [1.0], [-1])
    reported = set(spans.layer_metrics(table, ModelSpec("softmax_regression", 2, 2), {}))
    reported |= {"cli.output_bytes", "process.cpu_s", "process.cpu_util", "trace.overhead_frac"}
    assert reported == set(spans.LAYER_UNITS)


def test_spawn_reports_exit_code_and_peak_memory(tmp_path):
    code = "import numpy as np; a = np.ones(40 * 2**20 // 8); a += 1; raise SystemExit(3)"
    spawned = run.spawn([sys.executable, "-c", code], tmp_path / "log")
    assert spawned.code == 3
    assert spawned.peak_rss_mb > 40
    assert spawned.wall_s > 0 and spawned.cpu_s > 0


def test_until_runs_at_least_once_and_stops_near_the_deadline():
    assert run.until(0.0, lambda i: i) == [0]
    steps = run.until(0.05, lambda i: time.sleep(0.01) or i)
    assert steps == list(range(len(steps))) and 2 <= len(steps) <= 6
