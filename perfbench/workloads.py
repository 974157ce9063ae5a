"""The benchmark's workloads, written as INI files from the benchmark seed.

The program only ever sees the generated INI. Each workload is a fixed set of
config sections; the benchmark seed picks the program seeds.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# configs/desk.ini, copied so that editing the shipped example does not
# silently change the benchmark.
_DESK_DATA = {
    "source": "synthetic", "classes": "10", "per_class": "900", "dim": "20",
    "separation": "2.6", "test_per_class": "100", "partition": "shard",
    "num_shards": "60", "shards_per_worker": "2",
    "global_train": "600", "global_score": "500",
}
_DESK_HYPER = {
    "c0": "1.0", "delta_c1": "1.0", "delta_c2": "1.0", "alpha": "0.005",
    "batch_size": "10", "rounds": "200", "num_workers": "10",
    "verify_tolerance": "1e-9", "inertia": "constant",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple[str, ...]
    seed_count: int
    sections: dict[str, dict[str, str]]

    @property
    def attackers(self) -> tuple[int, ...]:
        raw = self.sections.get("attack", {}).get("attackers", "")
        return tuple(int(tok) for tok in raw.replace(",", " ").split())

    @property
    def diagnostics(self) -> bool:
        return self.sections.get("diagnostics", {}).get("cosine_stats") == "on"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why=("the paper's reference experiment: 30k tiny kernel calls, so per-call Python overhead, "
                 "RNG derivation and protocol bookkeeping dominate"),
            variants=("fedavg", "fedavg_gtr", "cbdsl_plain", "cbdsl_gsc", "cbdsl_full"),
            seed_count=3,
            sections={
                "data": _DESK_DATA,
                "model": {"kind": "softmax_regression", "init": "shared"},
                "hyper": _DESK_HYPER,
                "attack": {"strategy": "none", "verification": "on"},
                "diagnostics": {"cosine_stats": "off", "divergence": "off"},
            },
        ),
        Workload(
            name="wide",
            why=("784-input MLP with 25 workers: BLAS GEMMs and shared-set scoring dominate, per-call "
                 "overhead barely shows; heaviest set-up and memory"),
            variants=("fedavg_gtr", "cbdsl_full"),
            seed_count=1,
            sections={
                "data": {
                    "source": "synthetic", "classes": "10", "per_class": "1000",
                    "dim": "784", "separation": "2.6", "test_per_class": "100",
                    "partition": "shard", "num_shards": "100", "shards_per_worker": "2",
                    "global_train": "1000", "global_score": "1000",
                },
                "model": {"kind": "mlp", "hidden_dims": "64", "init": "shared"},
                "hyper": {**_DESK_HYPER, "alpha": "0.05", "batch_size": "32",
                          "rounds": "60", "num_workers": "25"},
                "attack": {"strategy": "none", "verification": "on"},
                "diagnostics": {"cosine_stats": "off", "divergence": "off"},
            },
        ),
        Workload(
            name="audit",
            why=("attackers screened and blacklisted with diagnostics on: exercises verification, vector "
                 "collection and the analysis layer that desk and wide bypass"),
            variants=("cbdsl_gsc", "cbdsl_full"),
            seed_count=2,
            sections={
                "data": _DESK_DATA,
                "model": {"kind": "softmax_regression", "init": "shared"},
                "hyper": _DESK_HYPER,
                "attack": {"strategy": "fake_loss_garbage", "attackers": "0, 3",
                           "verification": "on"},
                "diagnostics": {"cosine_stats": "on", "divergence": "on",
                                "lipschitz_probes": "16"},
            },
        ),
    )
}


def render(workload: Workload, seeds, variants=None) -> str:
    """INI text of the workload for the given program seeds (and variants)."""
    lines = [
        f"; perfbench workload {workload.name}",
        "[experiment]",
        f"variants = {', '.join(variants or workload.variants)}",
        f"seeds = {', '.join(str(s) for s in seeds)}",
        "output_dir = out",
    ]
    for section, keys in workload.sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def write_ini(workload: Workload, seeds, directory: Path, variants=None, name=None) -> Path:
    path = Path(directory) / (name or f"{workload.name}.ini")
    path.write_text(render(workload, seeds, variants), encoding="utf-8")
    return path


def pick_seeds(workload: Workload, seed: int, admits, max_tries: int = 100):
    """The first ``seed_count`` program seeds from ``seed`` upward that ``admits``.

    A shard split can leave a class with too few held-out samples for the
    shared sets, and the program then rejects that seed as a config error.
    The benchmark measures runs, not that rejection, so such seeds are
    skipped and reported. Returns (seeds, skipped).
    """
    picked, skipped = [], []
    for candidate in range(seed, seed + max_tries):
        if len(picked) == workload.seed_count:
            break
        (picked if admits(candidate) else skipped).append(candidate)
    if len(picked) < workload.seed_count:
        raise RuntimeError(f"{workload.name}: no admissible program seeds from {seed}")
    return tuple(picked), tuple(skipped)


@dataclass(frozen=True)
class Shape:
    """Shape parameters recorded with every result."""

    num_workers: int       # U
    params: int            # D
    batch_size: int        # B
    score_set: int
    rounds: int
    pairs: int
    worker_rounds: int

    def as_dict(self) -> dict:
        return {"U": self.num_workers, "D": self.params, "B": self.batch_size,
                "score_set": self.score_set, "rounds": self.rounds,
                "pairs": self.pairs, "worker_rounds": self.worker_rounds}


def shape_of(cfg, params: int) -> Shape:
    """Shape of a loaded config (``cli.load_config`` result) with D parameters."""
    h = cfg.hyper
    pairs = len(cfg.variants) * len(cfg.seeds)
    return Shape(h.num_workers, params, h.batch_size, cfg.data.global_score,
                 h.rounds, pairs, pairs * h.num_workers * h.rounds)
