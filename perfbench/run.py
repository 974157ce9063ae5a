"""The swarmlearn benchmark.

    python3 perfbench/run.py --workload desk|wide|audit --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's INI is generated from
the seed; the program sees only that file. With ``--trace 0`` the benchmark
times fresh-process set-up a few times, then runs
``python -m swarmlearn run`` back to back for S seconds and reports
end-to-end medians. With ``--trace 1`` it alternates untraced runs with runs
under the span recorder for S seconds and reports per-layer metrics. Every
run's output is checked; one (variant, seed) pair is also rerun on its own and
must reproduce its CSV byte for byte.

The last stdout line is the JSON result; the line before it carries the
shapes, program seeds, CSV digests and machine description. The exit code is
0 when every check passed, 1 when one failed and 2 when the program source is
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 7
SPAWN_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "worker_steps_per_s": "1/s",
    "peak_rss_mb": "MiB", "test_acc_mean": "fraction",
}


@dataclass(frozen=True)
class Spawned:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], log: Path) -> Spawned:
    """Run argv with the checkout's source on the path; time it spawn to exit.

    ``wait4`` gives the child's CPU time and peak RSS (its own and its
    descendants'), so the parent's memory never enters the figure.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=log.parent, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


@dataclass
class Run:
    """One checked CLI run."""

    spawned: Spawned
    report: checks.Report
    output_bytes: int
    spans: Path | None


class Bench:
    """One invocation: the workload's seeds and config, its checks and its failure tally."""

    def __init__(self, workload: workloads.Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def prepare(self) -> None:
        """Pick admissible program seeds, write the INI and check that it loads."""
        from swarmlearn import cli, experiment

        probe_ini = workloads.write_ini(self.workload, [self.seed], self.scratch, name="probe.ini")
        probe = cli.load_config(str(probe_ini))
        specs = {}

        def admits(seed: int) -> bool:
            try:
                setup = experiment.build_setup(
                    probe.data, probe.model_kind, probe.hidden_dims, probe.hyper, seed,
                    probe.init_mode,
                )
            except ValueError:
                return False
            specs[seed] = setup.spec
            return True

        self.seeds, self.skipped = workloads.pick_seeds(self.workload, self.seed, admits)
        self.config = workloads.write_ini(self.workload, self.seeds, self.scratch)
        cfg = cli.load_config(str(self.config))
        self.spec = specs[self.seeds[0]]
        self.shape = workloads.shape_of(cfg, spans.spec_params(self.spec))
        self.expect = checks.Expect(
            cfg.variants, cfg.seeds, cfg.hyper.rounds, cfg.hyper.num_workers,
            len(self.workload.attackers), self.workload.diagnostics,
        )

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)

    def run(self, label: str, traced: bool = False) -> Run:
        out = self.scratch / label
        log = self.scratch / f"{label}.log"
        spans_path = self.scratch / f"{label}.npz" if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "traced_run.py"), str(self.config), str(out), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "swarmlearn", "run", str(self.config), "--output-dir", str(out)]
        spawned = spawn(argv, log)
        report = checks.check_output(out, self.expect)
        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)

        pairs = self.expect.pairs
        self.attempted += len(pairs)
        failed = set(report.failures)
        for pair, errors in report.failures.items():
            self.problems.append(f"{label} {pair[0]} seed {pair[1]}: {'; '.join(errors[:3])}")
        if spawned.code != 0:
            failed = set(pairs)
            self.problems.append(f"{label}: exit code {spawned.code}; log tail: {_tail(log)}")
        if self.reference is None:
            self.reference = report.digests
        elif report.digests != self.reference:
            failed = set(pairs)
            self.problems.append(f"{label}: CSV bytes differ from the first run")
        self.failed += len(failed)
        return Run(spawned, report, output_bytes, spans_path)

    def rerun_pair(self) -> None:
        """Rerun one pair alone; its CSV must match the full run's byte for byte."""
        variant, seed = self.expect.pairs[self.seed % len(self.expect.pairs)]
        config = workloads.write_ini(self.workload, [seed], self.scratch, variants=[variant], name="pair.ini")
        out = self.scratch / "pair"
        log = self.scratch / "pair.log"
        spawned = spawn([sys.executable, "-m", "swarmlearn", "run", str(config), "--output-dir", str(out)], log)
        self.attempted += 1
        name = f"runs/{variant}_{seed}.csv"
        path = out / name
        if spawned.code != 0:
            self.fail(1, f"pair rerun {variant} seed {seed}: exit code {spawned.code}; log tail: {_tail(log)}")
        elif not path.is_file() or checks.sha256(path) != (self.reference or {}).get(name):
            self.fail(1, f"pair rerun {variant} seed {seed}: {name} differs from the full run")
        shutil.rmtree(out, ignore_errors=True)

    def setup_seconds(self) -> list[float]:
        """Set-up times of fresh processes (see ``setup_probe.py``)."""
        times = []
        for i in range(SETUP_PROBES):
            log = self.scratch / f"setup{i}.log"
            spawned = spawn([sys.executable, str(HERE / "setup_probe.py"), str(self.config)], log)
            if spawned.code != 0:
                self.fail(0, f"setup probe: exit code {spawned.code}; log tail: {_tail(log)}")
                continue
            times.append(float(log.read_text().split()[-1]))
        return times


def _tail(log: Path, lines: int = 3) -> str:
    return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])


def until(seconds: float, step) -> list:
    """Call step() back to back for about ``seconds``; at least once.

    Another step starts only if it is expected to end nearer the deadline
    than stopping now would, so a run neither overshoots by a whole step nor
    stops early by one.
    """
    start = time.perf_counter()
    results = [step(0)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results
        results.append(step(len(results)))


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    setup = bench.setup_seconds()
    runs = until(seconds, lambda i: bench.run(f"run{i}"))
    bench.rerun_pair()
    walls = [r.spawned.wall_s for r in runs]
    run_s = statistics.median(walls)
    accuracy = runs[0].report.final_accuracy
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "worker_steps_per_s": bench.shape.worker_rounds / run_s,
        "peak_rss_mb": statistics.median(r.spawned.peak_rss_mb for r in runs),
        "test_acc_mean": sum(accuracy.values()) / len(accuracy) if accuracy else float("nan"),
    }
    samples = {"run_s": walls, "setup_s": setup, "cpu_s": [r.spawned.cpu_s for r in runs]}
    return metrics, {"samples": samples,
                     "computed_ledger_bytes": _ledger_bytes(runs[0].report, bench.shape.params)}


def is_exact(name: str) -> bool:
    """Whether a per-layer value must repeat exactly from one traced run to the next."""
    return name.endswith(".calls") or name in (
        "model.gflop", "swarm.uplink_bytes", "swarm.broadcast_bytes", "cli.output_bytes",
        "swarm.accept_ratio", "swarm.server_scores_per_uplink",
    )


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    plain, traced = [], []

    def step(i):
        plain.append(bench.run(f"plain{i}"))
        traced.append(bench.run(f"traced{i}", traced=True))

    until(seconds, step)
    bench.rerun_pair()
    per_run = []
    for run in traced:
        if run.spawned.code != 0:
            continue
        m = spans.layer_metrics(spans.SpanTable.load(run.spans), bench.spec, run.report.ledger)
        m["cli.output_bytes"] = run.output_bytes
        per_run.append(m)
    if not per_run:
        return {}, {}
    metrics = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if is_exact(name) and len(set(values)) > 1:
            bench.fail(0, f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values)
    plain_wall = statistics.median(r.spawned.wall_s for r in plain)
    metrics["process.cpu_s"] = statistics.median(r.spawned.cpu_s for r in plain)
    metrics["process.cpu_util"] = statistics.median(r.spawned.cpu_s / r.spawned.wall_s for r in plain)
    metrics["trace.overhead_frac"] = statistics.median(r.spawned.wall_s for r in traced) / plain_wall - 1.0
    samples = {"plain_run_s": [r.spawned.wall_s for r in plain],
               "traced_run_s": [r.spawned.wall_s for r in traced]}
    return metrics, {"samples": samples, "computed": ["model.gflop", "model.gflop_per_s",
                                                      "swarm.uplink_bytes", "swarm.broadcast_bytes"]}


def _ledger_bytes(report: checks.Report, params: int) -> dict[str, int]:
    """Vector traffic of the run, from the CSV ledgers, at 8 bytes a parameter."""
    out = {"swarm_uplink_bytes": 0, "swarm_broadcast_bytes": 0,
           "fedavg_uplink_bytes": 0, "fedavg_broadcast_bytes": 0}
    for (variant, _), totals in report.ledger.items():
        kind = "fedavg" if checks.is_fedavg(variant) else "swarm"
        out[f"{kind}_uplink_bytes"] += totals["vector_uplinks"] * params * 8
        out[f"{kind}_broadcast_bytes"] += totals["vector_broadcasts"] * params * 8
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "swarmlearn" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind like an exception, so the child being waited for is
    # killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, scratch)
        bench.prepare()
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(bench, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    correct = bench.failed == 0 and not bench.problems and bool(metrics)
    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    units = spans.LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload:6s} {name:42s} {value:16.6f} {units[name]}")
    reported = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "program_seeds": list(bench.seeds),
        "skipped_seeds": list(bench.skipped), "shape": bench.shape.as_dict(),
        "pair_fail_frac": bench.failed / bench.attempted if bench.attempted else 1.0,
        "digests": bench.reference, "machine": machine(),
        "sparse_layers": {n: reported.pop(n) for n in spans.SPARSE if n in reported},
        **extra,
    }
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
