"""Output checks on a finished run, read from its CSVs only.

Every failed check names the (variant, seed) pair it belongs to; a pair with
any failure counts as failed.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Expect:
    """What a correct output directory of one workload run looks like."""

    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    rounds: int
    num_workers: int
    attackers: int            # detections each swarm pair must end with
    diagnostics: bool         # diagnostics.csv is written

    @property
    def pairs(self) -> list[tuple[str, int]]:
        return [(v, s) for v in self.variants for s in self.seeds]


@dataclass
class Report:
    failures: dict[tuple[str, int], list[str]] = field(default_factory=dict)
    ledger: dict[tuple[str, int], dict[str, int]] = field(default_factory=dict)
    final_accuracy: dict[tuple[str, int], float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, pair, message: str) -> None:
        self.failures.setdefault(pair, []).append(message)


def is_fedavg(variant: str) -> bool:
    return variant.startswith("fedavg")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_run_rows(rows, variant: str, seed: int, expect: Expect) -> list[str]:
    """Ledger and monotonicity checks on one run CSV's rows."""
    errors = []
    if len(rows) != expect.rounds:
        errors.append(f"{len(rows)} rows, expected {expect.rounds}")
    u = expect.num_workers
    detected = 0
    previous = math.inf
    for i, row in enumerate(rows):
        where = f"row {i}"
        if int(row["round"]) != i:
            errors.append(f"{where}: round {row['round']}, expected {i}")
        if row["variant"] != variant or int(row["seed"]) != seed:
            errors.append(f"{where}: labelled {row['variant']} seed {row['seed']}")
        scalar = int(row["scalar_uplinks"])
        vectors = int(row["vector_uplinks"])
        broadcasts = int(row["vector_broadcasts"])
        detections = int(row["detections"])
        if is_fedavg(variant):
            if (scalar, vectors, broadcasts, detections) != (0, u, 1, 0):
                errors.append(f"{where}: fedavg ledger {scalar}/{vectors}/{broadcasts}/{detections}")
            continue
        if vectors != broadcasts + detections or broadcasts not in (0, 1):
            errors.append(f"{where}: {vectors} uplinks, {broadcasts} broadcasts, "
                          f"{detections} detections")
        if scalar != u - detected:
            errors.append(f"{where}: {scalar} scalar uplinks, expected {u - detected}")
        detected += detections
        f_g = float(row["f_g"])
        if math.isfinite(previous) and not f_g <= previous:
            errors.append(f"{where}: f_g rose from {previous!r} to {f_g!r}")
        previous = f_g
    if not is_fedavg(variant) and detected != expect.attackers:
        errors.append(f"{detected} detections, expected {expect.attackers}")
    return errors


def check_output(out_dir, expect: Expect) -> Report:
    """Check every file a run of ``expect`` writes; digests cover every CSV."""
    out = Path(out_dir)
    report = Report()
    for path in sorted(out.rglob("*.csv")):
        report.digests[path.relative_to(out).as_posix()] = sha256(path)

    for variant, seed in expect.pairs:
        path = out / "runs" / f"{variant}_{seed}.csv"
        if not path.is_file():
            report.fail((variant, seed), f"missing {path.name}")
            continue
        rows = _read(path)
        try:
            errors = check_run_rows(rows, variant, seed, expect)
            report.ledger[(variant, seed)] = {
                key: sum(int(r[key]) for r in rows)
                for key in ("scalar_uplinks", "vector_uplinks", "vector_broadcasts", "detections")
            }
        except (KeyError, TypeError, ValueError) as exc:
            errors = [f"malformed: {exc!r}"]
        for error in errors:
            report.fail((variant, seed), f"{path.name}: {error}")

    summary = {}
    if (out / "summary.csv").is_file():
        summary = {(r["variant"], r["seed"]): r for r in _read(out / "summary.csv")}
    for pair in expect.pairs:
        row = summary.get((pair[0], str(pair[1])))
        if row is None:
            report.fail(pair, "no summary.csv row")
            continue
        for key, total in report.ledger.get(pair, {}).items():
            if row[f"total_{key}"] != str(total):
                report.fail(pair, f"summary total_{key} {row[f'total_{key}']} != {total}")
        try:
            report.final_accuracy[pair] = float(row["final_test_accuracy"])
        except ValueError:
            report.fail(pair, f"summary final_test_accuracy {row['final_test_accuracy']!r}")

    if expect.diagnostics:
        diag = []
        if (out / "diagnostics.csv").is_file():
            diag = [(r["variant"], r["seed"], r["lipschitz"]) for r in _read(out / "diagnostics.csv")]
        for variant, seed in expect.pairs:
            lips = [lip for v, s, lip in diag if (v, s) == (variant, str(seed))]
            if len(lips) != 1 or not _finite(lips[0]):
                report.fail((variant, seed), f"diagnostics.csv lipschitz {lips}, expected one finite value")
    return report
