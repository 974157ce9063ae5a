"""Span recording around the program's public functions, and what spans yield.

``Recorder.install`` rebinds each hooked name in the module that calls it
(``swarm.loss_and_gradient``, ``analysis.gradient``, ``baselines.run_round``,
...), so a span opens where one layer calls into another and spans nest by
layer. Spans stay in memory and are written once, when the run ends.

``SpanTable`` reads them back: self time is a span's duration minus the
durations of its direct children, which never overlap in this
single-threaded program.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module, attribute, span name). The attribute is rebound in that module, so
# the hook catches exactly the calls made through that binding.
HOOKS = (
    ("swarmlearn.core", "derived_rng", "core.derived_rng"),
    ("swarmlearn.experiment", "derived_rng", "core.derived_rng"),
    ("swarmlearn.baselines", "derived_rng", "core.derived_rng"),
    ("swarmlearn.cli", "derived_rng", "core.derived_rng"),
    ("swarmlearn.swarm", "loss_and_gradient", "model.loss_and_gradient"),
    ("swarmlearn.baselines", "loss_and_gradient", "model.loss_and_gradient"),
    ("swarmlearn.swarm", "loss", "model.loss"),
    ("swarmlearn.baselines", "loss", "model.loss"),
    ("swarmlearn.experiment", "loss", "model.loss"),
    ("swarmlearn.cli", "loss", "model.loss"),
    ("swarmlearn.analysis", "gradient", "model.gradient"),
    ("swarmlearn.baselines", "accuracy", "model.accuracy"),
    ("swarmlearn.swarm", "draw_batch_indices", "data.draw_batch_indices"),
    ("swarmlearn.baselines", "draw_batch_indices", "data.draw_batch_indices"),
    # experiment calls these as datamod.<name>, so they are rebound in data.
    ("swarmlearn.data", "synthetic_blobs", "data.synthetic_blobs"),
    ("swarmlearn.data", "partition_shards", "data.partition_shards"),
    ("swarmlearn.data", "build_global_shared", "data.build_global_shared"),
    ("swarmlearn.data", "stratified_sample", "data.stratified_sample"),
    ("swarmlearn.cli", "build_setup", "experiment.build_setup"),
    ("swarmlearn.baselines", "make_workers", "experiment.make_workers"),
    ("swarmlearn.baselines", "run_round", "swarm.run_round"),
    ("swarmlearn.swarm", "worker_step", "swarm.worker_step"),
    ("swarmlearn.swarm", "score_and_update_best", "swarm.score_and_update_best"),
    ("swarmlearn.swarm", "verify_upload", "swarm.verify_upload"),
    ("swarmlearn.attacks", "forge_report", "attacks.forge_report"),
    ("swarmlearn.attacks", "forge_upload", "attacks.forge_upload"),
    ("swarmlearn.baselines", "fedavg_round", "baselines.fedavg_round"),
    ("swarmlearn.cli", "run_variant", "baselines.run_variant"),
    ("swarmlearn.analysis", "genie_step", "analysis.genie_step"),
    ("swarmlearn.analysis.CosineStats", "consume_round", "analysis.consume_round"),
    ("swarmlearn.analysis", "estimate_model_lipschitz", "analysis.estimate_model_lipschitz"),
    ("swarmlearn.cli", "load_config", "cli.load_config"),
    ("swarmlearn.cli", "write_run_csv", "cli.write_run_csv"),
)

# Model kernels take (spec, w, batch); the batch length sizes the FLOP count.
SIZED = {"model.loss_and_gradient", "model.loss", "model.gradient", "model.accuracy"}

# Every learning variant gets a run_variant metric, so each workload reports
# the same names; a variant a workload does not run reads 0.
VARIANTS = ("fedavg", "fedavg_gtr", "cbdsl_plain", "cbdsl_gsc", "cbdsl_full")

# Unit of every per-layer metric the benchmark reports, in report order.
LAYER_UNITS = {
    "core.derived_rng.calls": "count",
    "core.derived_rng.self_ms": "ms",
    "model.loss_and_gradient.calls": "count",
    "model.loss_and_gradient.self_ms": "ms",
    "model.loss_and_gradient.us_p50": "us",
    "model.loss_and_gradient.us_p90": "us",
    "model.loss.calls": "count",
    "model.loss.self_ms": "ms",
    "model.loss.us_p50": "us",
    "model.gradient.calls": "count",
    "model.gradient.self_ms": "ms",
    "model.accuracy.calls": "count",
    "model.accuracy.self_ms": "ms",
    "model.gflop": "GFLOP",
    "model.gflop_per_s": "GFLOP/s",
    "data.draw_batch_indices.calls": "count",
    "data.draw_batch_indices.self_ms": "ms",
    "data.setup_self_ms": "ms",
    "experiment.build_setup.ms": "ms",
    "experiment.make_workers.ms": "ms",
    "swarm.run_round.calls": "count",
    "swarm.run_round.ms_p50": "ms",
    "swarm.run_round.ms_p90": "ms",
    "swarm.run_round.self_ms": "ms",
    "swarm.worker_step.self_ms": "ms",
    "swarm.score_and_update_best.self_ms": "ms",
    "swarm.verify_upload.calls": "count",
    "swarm.verify_upload.self_ms": "ms",
    "swarm.server_scores_per_uplink": "ratio",
    "swarm.accept_ratio": "ratio",
    "swarm.uplink_bytes": "B",
    "swarm.broadcast_bytes": "B",
    "attacks.forge_report.calls": "count",
    "attacks.forge_upload.calls": "count",
    "baselines.fedavg_round.calls": "count",
    "baselines.fedavg_round.ms_p50": "ms",
    "baselines.fedavg_round.ms_p90": "ms",
    "baselines.fedavg_round.self_ms": "ms",
    **{f"baselines.run_variant.{v}.s": "s" for v in VARIANTS},
    "analysis.genie_step.calls": "count",
    "analysis.genie_step.self_ms": "ms",
    "analysis.consume_round.self_ms": "ms",
    "analysis.estimate_model_lipschitz.ms": "ms",
    "cli.load_config.ms": "ms",
    "cli.write_run_csv.self_ms": "ms",
    "cli.output_bytes": "B",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
}

# Times of layers that some workload never calls (analysis is off on desk and
# wide, FedAvg absent from audit, each workload runs only some variants). They
# would read exactly 0 on every run of that workload, so they are printed
# beside the result rather than in it; their call counts stay in the result.
SPARSE = frozenset(
    {
        "model.gradient.self_ms",
        "baselines.fedavg_round.ms_p50",
        "baselines.fedavg_round.ms_p90",
        "baselines.fedavg_round.self_ms",
        "analysis.genie_step.self_ms",
        "analysis.consume_round.self_ms",
        "analysis.estimate_model_lipschitz.ms",
    }
    | {f"baselines.run_variant.{v}.s" for v in VARIANTS if v != "cbdsl_full"}
)


def _resolve(path: str):
    """A module, or a class inside one, from a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Recorder:
    """Collects spans as (name id, start, end, parent index, pair id, size)."""

    def __init__(self):
        self.names: list[str] = []
        self.rows: list[tuple | None] = []
        self.stack: list[int] = [-1]
        self.pairs: list[tuple[str, int]] = []
        self.pair = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        rows, clock = self.rows, time.perf_counter
        push, pop, top = self.stack.append, self.stack.pop, self.stack
        sized = name in SIZED
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = top[-1]
            push(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                rows[idx] = (nid, start, end, parent, rec.pair, len(args[2]) if sized else 0)

        return traced

    def wrap_pair(self, name: str, fn):
        """Like ``wrap`` for ``run_variant(variant, setup, ...)``: tags nested spans."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(variant, setup, *args, **kwargs):
            self.pairs.append((variant, int(setup.seed)))
            self.pair = len(self.pairs) - 1
            try:
                return inner(variant, setup, *args, **kwargs)
            finally:
                self.pair = -1

        return traced

    def install(self) -> None:
        for owner_path, attr, name in HOOKS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr)
            wrap = self.wrap_pair if name == "baselines.run_variant" else self.wrap
            setattr(owner, attr, wrap(name, fn))

    def save(self, path) -> None:
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, 6)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=rows[:, 0].astype(np.int64),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
            pair=rows[:, 4].astype(np.int64),
            size=rows[:, 5].astype(np.int64),
            pair_variant=np.array([v for v, _ in self.pairs], dtype=str),
            pair_seed=np.array([s for _, s in self.pairs], dtype=np.int64),
        )


class SpanTable:
    """Spans as parallel arrays; rows are in the order the spans opened."""

    def __init__(self, names, name, start, end, parent, pair=None, size=None, pairs=()):
        self.names = [str(n) for n in names]
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        n = len(self.name)
        self.pair = np.full(n, -1) if pair is None else np.asarray(pair, dtype=np.int64)
        self.size = np.zeros(n, dtype=np.int64) if size is None else np.asarray(size, dtype=np.int64)
        self.pairs = [(str(v), int(s)) for v, s in pairs]
        self.duration = self.end - self.start
        covered = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as z:
            return cls(
                z["names"], z["name"], z["start"], z["end"], z["parent"], z["pair"],
                z["size"], zip(z["pair_variant"], z["pair_seed"]),
            )

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_ms(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum() * 1e3)

    def total_ms(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum() * 1e3)

    def percentile_ms(self, name: str, q: float) -> float:
        d = self.duration[self.mask(name)]
        return float(np.percentile(d, q) * 1e3) if len(d) else 0.0

    def parent_named(self, names) -> np.ndarray:
        """Rows whose parent span has one of the given names."""
        ids = [self.names.index(n) for n in names if n in self.names]
        out = np.zeros(len(self.name), dtype=bool)
        has_parent = self.parent >= 0
        out[has_parent] = np.isin(self.name[self.parent[has_parent]], ids)
        return out


def layer_dims(spec) -> list[tuple[int, int]]:
    """(out, in) of each dense layer of a ``ModelSpec``."""
    dims = [spec.input_dim, *spec.hidden_dims, spec.num_classes]
    return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


def spec_params(spec) -> int:
    """D, the length of the flat parameter vector."""
    return sum(o * i + o for o, i in layer_dims(spec))


def flops_per_sample(spec, kernel: str) -> int:
    """Matmul FLOPs per sample (2 per multiply-add), computed from the shapes.

    The forward pass multiplies every layer; a gradient adds the weight
    gradient of every layer and the backpropagated delta of every layer but
    the first.
    """
    layers = layer_dims(spec)
    forward = sum(2 * o * i for o, i in layers)
    if kernel in ("model.loss_and_gradient", "model.gradient"):
        return forward + forward + sum(2 * o * i for o, i in layers[1:])
    return forward


def layer_metrics(table: SpanTable, spec, ledger: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (process and trace metrics excluded).

    ``ledger`` maps (variant, seed) to the run CSV totals ``vector_uplinks``
    and ``vector_broadcasts``.
    """
    m: dict[str, float] = {}
    m["core.derived_rng.calls"] = table.calls("core.derived_rng")
    m["core.derived_rng.self_ms"] = table.self_ms("core.derived_rng")

    lag = "model.loss_and_gradient"
    m[f"{lag}.calls"] = table.calls(lag)
    m[f"{lag}.self_ms"] = table.self_ms(lag)
    m[f"{lag}.us_p50"] = table.percentile_ms(lag, 50) * 1e3
    m[f"{lag}.us_p90"] = table.percentile_ms(lag, 90) * 1e3
    m["model.loss.calls"] = table.calls("model.loss")
    m["model.loss.self_ms"] = table.self_ms("model.loss")
    m["model.loss.us_p50"] = table.percentile_ms("model.loss", 50) * 1e3
    for kernel in ("model.gradient", "model.accuracy"):
        m[f"{kernel}.calls"] = table.calls(kernel)
        m[f"{kernel}.self_ms"] = table.self_ms(kernel)
    flops = sum(
        int(table.size[table.mask(k)].sum()) * flops_per_sample(spec, k) for k in SIZED
    )
    model_s = sum(table.self_ms(k) for k in SIZED) / 1e3
    m["model.gflop"] = flops / 1e9
    m["model.gflop_per_s"] = flops / 1e9 / model_s if model_s else 0.0

    m["data.draw_batch_indices.calls"] = table.calls("data.draw_batch_indices")
    m["data.draw_batch_indices.self_ms"] = table.self_ms("data.draw_batch_indices")
    m["data.setup_self_ms"] = sum(
        table.self_ms(n) for n in table.names
        if n.startswith("data.") and n != "data.draw_batch_indices"
    )
    m["experiment.build_setup.ms"] = table.total_ms("experiment.build_setup")
    m["experiment.make_workers.ms"] = table.total_ms("experiment.make_workers")

    m["swarm.run_round.calls"] = table.calls("swarm.run_round")
    m["swarm.run_round.ms_p50"] = table.percentile_ms("swarm.run_round", 50)
    m["swarm.run_round.ms_p90"] = table.percentile_ms("swarm.run_round", 90)
    m["swarm.run_round.self_ms"] = table.self_ms("swarm.run_round")
    m["swarm.worker_step.self_ms"] = table.self_ms("swarm.worker_step")
    m["swarm.score_and_update_best.self_ms"] = table.self_ms("swarm.score_and_update_best")
    m["swarm.verify_upload.calls"] = table.calls("swarm.verify_upload")
    m["swarm.verify_upload.self_ms"] = table.self_ms("swarm.verify_upload")
    server_scores = int(
        (table.mask("model.loss") & table.parent_named(("swarm.run_round", "swarm.verify_upload"))).sum()
    )
    verifying = {table.pairs[p] for p in set(table.pair[table.mask("swarm.verify_upload")])}
    verified_uplinks = sum(ledger[p]["vector_uplinks"] for p in verifying)
    m["swarm.server_scores_per_uplink"] = server_scores / verified_uplinks if verified_uplinks else 0.0
    swarm = [t for (variant, _), t in ledger.items() if not variant.startswith("fedavg")]
    uplinks = sum(t["vector_uplinks"] for t in swarm)
    broadcasts = sum(t["vector_broadcasts"] for t in swarm)
    m["swarm.accept_ratio"] = broadcasts / uplinks if uplinks else 0.0
    bytes_per_vector = spec_params(spec) * 8
    m["swarm.uplink_bytes"] = uplinks * bytes_per_vector
    m["swarm.broadcast_bytes"] = broadcasts * bytes_per_vector

    m["attacks.forge_report.calls"] = table.calls("attacks.forge_report")
    m["attacks.forge_upload.calls"] = table.calls("attacks.forge_upload")

    m["baselines.fedavg_round.calls"] = table.calls("baselines.fedavg_round")
    m["baselines.fedavg_round.ms_p50"] = table.percentile_ms("baselines.fedavg_round", 50)
    m["baselines.fedavg_round.ms_p90"] = table.percentile_ms("baselines.fedavg_round", 90)
    m["baselines.fedavg_round.self_ms"] = table.self_ms("baselines.fedavg_round")
    run_variant = table.mask("baselines.run_variant")
    for variant in VARIANTS:
        of_variant = np.array([table.pairs[p][0] == variant for p in table.pair[run_variant]], dtype=bool)
        m[f"baselines.run_variant.{variant}.s"] = float(table.duration[run_variant][of_variant].sum())

    m["analysis.genie_step.calls"] = table.calls("analysis.genie_step")
    m["analysis.genie_step.self_ms"] = table.self_ms("analysis.genie_step")
    m["analysis.consume_round.self_ms"] = table.self_ms("analysis.consume_round")
    m["analysis.estimate_model_lipschitz.ms"] = table.total_ms("analysis.estimate_model_lipschitz")

    m["cli.load_config.ms"] = table.total_ms("cli.load_config")
    m["cli.write_run_csv.self_ms"] = table.self_ms("cli.write_run_csv")
    return m

