"""Experiment harness: typed config files in, deterministic CSVs out.

Config files are INI-style with fixed sections and strictly validated keys;
unknown keys are rejected before any compute starts. Each (variant, seed)
run writes ``runs/<variant>_<seed>.csv``; totals land in ``summary.csv``,
per-run theory diagnostics in ``diagnostics.csv`` when enabled, and the
``report`` subcommand tabulates uplink ratios against the FedAvg baseline.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import COSINE_COLUMNS, DIAGNOSTICS_COLUMNS, DIVERGENCE_COLUMNS
from .attacks import AttackSpec
from .baselines import VARIANTS, DiagnosticsFlags, RunResult, check_variants, run_variant
from .core import DOMAIN_DIAG, HyperParameters, NonFiniteError, derived_rng
from .experiment import (
    DataConfig,
    ExperimentSetup,
    ModelConfig,
    build_setup,
    draw_labels,
    initial_w_for,
    label_set,
    population_batch,
)
from .model import loss

BASE_COLUMNS = (
    "round", "variant", "seed", "f_g",
    "train_loss_mean", "train_loss_min", "train_loss_max", "test_accuracy",
    "scalar_uplinks", "vector_uplinks", "vector_broadcasts", "detections",
)
SUMMARY_COLUMNS = (
    "variant", "seed", "rounds", "final_test_accuracy", "final_f_g",
    "total_scalar_uplinks", "total_vector_uplinks", "total_vector_broadcasts",
    "total_detections", "partition_digest", "init_digest",
)
COMMUNICATION_COLUMNS = (
    "seed", "swarm_variant", "fedavg_variant",
    "swarm_vector_uplinks", "fedavg_vector_uplinks", "ratio",
)


class ConfigError(ValueError):
    """The experiment configuration is invalid; nothing was run."""


@dataclass(frozen=True)
class ExperimentConfig:
    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    output_dir: str
    data: DataConfig
    model_kind: str
    hidden_dims: tuple[int, ...]
    init_mode: str
    hyper: HyperParameters
    attack: AttackSpec
    verification: bool
    diagnostics: DiagnosticsFlags


# INI key of a dataclass field, where the two names differ.
_INI_NAMES = {"inertia_mode": "inertia", "attacker_ids": "attackers"}

# These sections hold one key per field of their dataclass, which also owns
# the defaults and the validation.
_DATACLASS_SECTIONS = {
    "data": DataConfig, "model": ModelConfig, "hyper": HyperParameters, "attack": AttackSpec,
    "diagnostics": DiagnosticsFlags,
}

_SECTION_KEYS = {
    "experiment": {"variants", "seeds", "output_dir"},
    **{
        section: {_INI_NAMES.get(f.name, f.name) for f in dataclasses.fields(cls)}
        for section, cls in _DATACLASS_SECTIONS.items()
    },
}
# the server's switch for screening uploads sits beside the attack it screens
_SECTION_KEYS["attack"].add("verification")


def _get(parser, section, key, default, conv):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in raw.replace(",", " ").split())


def _repeated(values: tuple) -> str:
    """The values listed more than once, comma-separated; empty when none is."""
    return ", ".join(map(str, sorted({v for v in values if values.count(v) > 1})))


def _id_set(raw: str) -> frozenset[int]:
    ids = _int_list(raw)
    # the set would drop a repeat without a word
    if _repeated(ids):
        raise ValueError(f"lists {_repeated(ids)} more than once")
    return frozenset(ids)


# A key's parser, by the type of its field's default; other types parse themselves.
_PARSERS = {type(None): str, bool: _bool, tuple: _int_list, frozenset: _id_set}


def _from_section(parser, section: str):
    """The section's dataclass, built from its keys; missing keys keep the field defaults."""
    cls = _DATACLASS_SECTIONS[section]
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        conv = _PARSERS.get(type(default), type(default))
        kwargs[f.name] = _get(parser, section, _INI_NAMES.get(f.name, f.name), default, conv)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config; every check that needs no data runs here."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")   # a byte-order mark is not a key
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser.options(section)) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    if not parser.has_section("experiment"):
        raise ConfigError("missing required section [experiment]")

    variants = _get(parser, "experiment", "variants", (), _str_list)
    seeds = _get(parser, "experiment", "seeds", (), _int_list)
    if not variants:
        raise ConfigError("[experiment] variants must list at least one variant")
    if not seeds:
        raise ConfigError("[experiment] seeds must list at least one seed")
    # A repeat would run the same pair twice and write its summary row twice.
    for key, values in (("variants", variants), ("seeds", seeds)):
        if _repeated(values):
            raise ConfigError(f"[experiment] {key} lists {_repeated(values)} more than once")
    _check_seeds(seeds, "[experiment] seeds")

    try:
        data = _from_section(parser, "data")
        hyper = _from_section(parser, "hyper")
        model = _from_section(parser, "model")
        attack = _from_section(parser, "attack")
        check_variants(variants, hyper.num_workers, attack, data.global_train, data.global_score)
        diagnostics = _from_section(parser, "diagnostics")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # a key its section's own switch leaves unread would run as if absent
    unread = (
        (data.partition == "shard", "under partition = shard", "data", ("per_worker",)),
        (data.partition == "iid", "under partition = iid", "data", ("num_shards", "shards_per_worker")),
        (data.source == "idx", "under source = idx", "data", ("per_class", "dim", "separation")),
        (data.idx_test_images is not None, "with idx_test_images set", "data", ("test_per_class",)),
        (attack.strategy != "fake_loss_scaled", f"under strategy = {attack.strategy}", "attack",
         ("scale",)),
        (not diagnostics.cosine_stats, "with cosine_stats = off", "diagnostics", ("lipschitz_probes",)),
    )
    for applies, switch, section, keys in unread:
        for key in keys:
            if applies and parser.get(section, key, fallback="").strip():
                raise ConfigError(f"[{section}] {key} is unread {switch}; remove it")

    return ExperimentConfig(
        variants=variants,
        seeds=seeds,
        output_dir=_get(parser, "experiment", "output_dir", "out", str),
        data=data,
        model_kind=model.kind,
        hidden_dims=model.hidden_dims,
        init_mode=model.init,
        hyper=hyper,
        attack=attack,
        verification=_get(parser, "attack", "verification", True, _bool),
        diagnostics=diagnostics,
    )


def _check_seeds(seeds: tuple[int, ...], source: str) -> None:
    """Seeds key numpy's SeedSequence, which takes no negative entropy."""
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"{source} must be >= 0, got {negative[0]}")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_run_csv(path: Path, result: RunResult, diag_cols: tuple[str, ...]):
    """The run's table: one row per round, each with the run's variant and seed."""
    rows = [
        {
            "round": r.round_index, "variant": result.variant, "seed": result.seed, "f_g": r.f_g,
            "train_loss_mean": r.train_loss_mean, "train_loss_min": r.train_loss_min,
            "train_loss_max": r.train_loss_max, "test_accuracy": r.test_accuracy,
            "scalar_uplinks": r.scalar_uplinks, "vector_uplinks": r.vector_uplinks,
            "vector_broadcasts": r.vector_broadcasts, "detections": r.detections,
            **{col: r.diag.get(col, math.nan) for col in diag_cols},
        }
        for r in result.records
    ]
    _write_table(path, BASE_COLUMNS + diag_cols, rows)


def summarize(result: RunResult, setup: ExperimentSetup) -> dict:
    records = result.records
    last = records[-1]
    return {
        "variant": result.variant,
        "seed": result.seed,
        "rounds": len(records),
        "final_test_accuracy": last.test_accuracy,
        "final_f_g": last.f_g,
        "total_scalar_uplinks": sum(r.scalar_uplinks for r in records),
        "total_vector_uplinks": sum(r.vector_uplinks for r in records),
        "total_vector_broadcasts": sum(r.vector_broadcasts for r in records),
        "total_detections": sum(r.detections for r in records),
        "partition_digest": setup.partition_digest,
        "init_digest": setup.init_digest,
    }


def _seed_diagnostics(cfg: ExperimentConfig, setup: ExperimentSetup) -> tuple[float, float]:
    """The Lipschitz estimate and f0, which depend only on the seed's setup."""
    population = population_batch(setup)
    # 0 classes: diagnostics.csv reads only l_global, which takes no class gradients
    lip = analysis.estimate_model_lipschitz(
        setup.spec, population, 0, cfg.diagnostics.lipschitz_probes,
        derived_rng(setup.seed, DOMAIN_DIAG, 0),
    )
    return lip.l_global, loss(setup.spec, initial_w_for(setup, 0), population)


def _write_table(path: Path, columns: tuple[str, ...], rows: list[dict]):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def run_experiment(config_path: str, output_dir: str | None = None,
                   seed_override: int | None = None) -> int:
    """Execute every (variant, seed) pair of the config; returns an exit code."""
    try:
        cfg = load_config(config_path)
        if seed_override is not None:
            _check_seeds((seed_override,), "--seed-override")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seeds = (seed_override,) if seed_override is not None else cfg.seeds
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    runs_dir = out / "runs"
    diag_cols = ((COSINE_COLUMNS if cfg.diagnostics.cosine_stats else ())
                 + (DIVERGENCE_COLUMNS if cfg.diagnostics.divergence else ()))

    setup_args = (cfg.data, cfg.model_kind, cfg.hidden_dims, cfg.hyper)
    summaries: dict[tuple[str, int], dict] = {}
    diag_rows: dict[tuple[str, int], dict] = {}
    current, started = ("data setup", seeds[0]), False
    try:
        # A ValueError or an unreadable input file in the labels, the first
        # seed's world or a later seed's label-level draws (kept for its
        # world) means the config cannot be met; once the output directory is
        # touched it is a fault. Every seed draws from the one label set.
        world, draws, setup = label_set(cfg.data), {}, None
        for seed in seeds:
            current = ("data setup", seed)
            draws[seed] = draw_labels(*setup_args, seed, cfg.init_mode, world=world)
            if setup is None:
                setup = build_setup(*setup_args, seed, cfg.init_mode, draws=draws.pop(seed))
        try:
            runs_dir.mkdir(parents=True, exist_ok=True)
            # Files of an earlier run would sit beside this run's as if its own.
            for stale in ("summary.csv", "diagnostics.csv", "communication.csv"):
                (out / stale).unlink(missing_ok=True)
            for path in runs_dir.glob("*.csv"):
                variant, _, seed = path.stem.rpartition("_")
                if variant in VARIANTS and seed.isdigit():
                    path.unlink()
        except OSError as exc:
            raise ConfigError(f"output directory {out} is unusable: {exc}") from exc
        started = True
        # One seed's world and one pair's result in memory at a time: a pair
        # keeps only its table rows, and a seed's world is dropped before the
        # next one is built.
        for seed in seeds:
            if setup is None:
                current = ("data setup", seed)
                setup = build_setup(*setup_args, seed, cfg.init_mode, draws=draws.pop(seed))
            stats = {}
            for variant in cfg.variants:
                current = (variant, seed)
                result = run_variant(
                    variant, setup, cfg.hyper,
                    attack=cfg.attack, verification=cfg.verification,
                    diag=cfg.diagnostics,
                )
                write_run_csv(runs_dir / f"{variant}_{seed}.csv", result, diag_cols)
                summaries[variant, seed] = summarize(result, setup)
                if result.cosine_stats is not None:
                    stats[variant] = result.cosine_stats
                print(f"ran {variant} seed {seed}: "
                      f"final accuracy {result.records[-1].test_accuracy:.4f}")
                del result
            if stats:
                current = ("diagnostics", seed)
                per_seed = _seed_diagnostics(cfg, setup)
                for variant, run_stats in stats.items():
                    diag_rows[variant, seed] = analysis.diagnostics_row(
                        variant, seed, cfg.hyper, run_stats, *per_seed
                    )
            setup = None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        infeasible = (not started and isinstance(exc, (ValueError, OSError))
                      and not isinstance(exc, NonFiniteError))
        kind, code = ("config error", 2) if infeasible else ("runtime error", 3)
        print(f"{kind} in {current[0]} seed {current[1]}: {exc}", file=sys.stderr)
        return code

    # the tables keep config order: variants outer, seeds inner
    pairs = [(variant, seed) for variant in cfg.variants for seed in seeds]
    _write_table(out / "summary.csv", SUMMARY_COLUMNS, [summaries[pair] for pair in pairs])
    if cfg.diagnostics.cosine_stats:
        rows = [diag_rows[pair] for pair in pairs if pair in diag_rows]
        _write_table(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS, rows)

    print(f"wrote {out / 'summary.csv'}")
    return 0


def _uplink_totals(summary_path: Path) -> dict[int, dict[str, int]]:
    """Vector-uplink totals by seed and variant; ConfigError naming the file
    and the bad line or column when the summary cannot give them."""
    try:
        text = summary_path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{summary_path} is unreadable: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [c for c in ("variant", "seed", "total_vector_uplinks")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{summary_path}: missing column(s) {', '.join(missing)}")
    by_seed: dict[int, dict[str, int]] = {}
    first_line: dict[tuple[str, int], int] = {}
    for row in reader:
        variant = row["variant"]
        try:
            seed, total = int(row["seed"]), int(row["total_vector_uplinks"])
        except (TypeError, ValueError):
            raise ConfigError(
                f"{summary_path} line {reader.line_num}: seed {row['seed']!r} and "
                f"total_vector_uplinks {row['total_vector_uplinks']!r} must be integers"
            ) from None
        # A FedAvg total is the denominator of every ratio of its seed.
        floor = 1 if variant in VARIANTS and not VARIANTS[variant].swarm else 0
        if total < floor:
            raise ConfigError(
                f"{summary_path} line {reader.line_num}: {variant} seed {seed} has "
                f"total_vector_uplinks {total}, below {floor}"
            )
        if (variant, seed) in first_line:
            raise ConfigError(
                f"{summary_path} line {reader.line_num}: {variant} seed {seed} repeats "
                f"line {first_line[variant, seed]}"
            )
        first_line[variant, seed] = reader.line_num
        by_seed.setdefault(seed, {})[variant] = total
    return by_seed


def report_communication(output_dir: str) -> int:
    """Tabulate per-seed vector-uplink totals of swarm variants vs FedAvg."""
    summary_path = Path(output_dir) / "summary.csv"
    if not summary_path.exists():
        print(f"config error: no summary.csv under {output_dir}", file=sys.stderr)
        return 2
    try:
        by_seed = _uplink_totals(summary_path)
    except ConfigError as exc:
        # A table from an earlier summary would sit here as if it were this one's.
        (Path(output_dir) / "communication.csv").unlink(missing_ok=True)
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    table = []
    for seed in sorted(by_seed):
        totals = by_seed[seed]
        fedavg_variant = next(
            (v.name for v in VARIANTS.values() if not v.swarm and v.name in totals), None
        )
        swarm_variants = [v for v in totals if v in VARIANTS and VARIANTS[v].swarm]
        if fedavg_variant is None or not swarm_variants:
            print(f"warning: seed {seed} lacks a fedavg/swarm pair; skipped", file=sys.stderr)
            continue
        for v in sorted(swarm_variants):
            table.append({
                "seed": seed,
                "swarm_variant": v,
                "fedavg_variant": fedavg_variant,
                "swarm_vector_uplinks": totals[v],
                "fedavg_vector_uplinks": totals[fedavg_variant],
                "ratio": totals[v] / totals[fedavg_variant],
            })

    _write_table(Path(output_dir) / "communication.csv", COMMUNICATION_COLUMNS, table)
    for row in table:
        print(
            f"seed {row['seed']}: {row['swarm_variant']} {row['swarm_vector_uplinks']} uplinks "
            f"vs {row['fedavg_variant']} {row['fedavg_vector_uplinks']} "
            f"(ratio {row['ratio']:.6f})"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swarmlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run every (variant, seed) pair of a config")
    run_p.add_argument("config")
    run_p.add_argument("--output-dir", default=None)
    run_p.add_argument("--seed-override", type=int, default=None)
    rep_p = sub.add_parser("report", help="communication-cost ratios from a summary")
    rep_p.add_argument("output_dir")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run_experiment(args.config, args.output_dir, args.seed_override)
    return report_communication(args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
