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
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .attacks import AttackSpec
from .baselines import VARIANTS, DiagnosticsFlags, RunResult, check_variants, run_variant
from .core import DOMAIN_DIAG, HyperParameters, NonFiniteError, derived_rng
from .experiment import (
    DataConfig,
    ExperimentSetup,
    RoundRecord,
    build_setup,
    check_model,
    initial_w_for,
    population_batch,
)
from .model import loss

BASE_COLUMNS = (
    "round", "variant", "seed", "f_g",
    "train_loss_mean", "train_loss_min", "train_loss_max", "test_accuracy",
    "scalar_uplinks", "vector_uplinks", "vector_broadcasts", "detections",
)
COSINE_COLUMNS = (
    "cos_min", "cos_max", "cos_p_min", "cos_p_max", "cos_g_min", "cos_g_max",
    "ratio_min", "ratio_max", "ratio_p_min", "ratio_p_max", "ratio_g_min", "ratio_g_max",
    "grad_sq_mean", "recursion_residual", "velocity_residual",
)
DIVERGENCE_COLUMNS = ("divergence_mean", "divergence_max")
SUMMARY_COLUMNS = (
    "variant", "seed", "rounds", "final_test_accuracy", "final_f_g",
    "total_scalar_uplinks", "total_vector_uplinks", "total_vector_broadcasts",
    "total_detections", "partition_digest", "init_digest",
)
DIAGNOSTICS_COLUMNS = (
    "variant", "seed", "lipschitz", "f0", "f_star", "phi_e", "phi_e_degenerate",
    "phi_e_delta", "bound", "bound_vacuous", "empirical_mean_grad_sq",
    "empirical_min_grad_sq", "q_min", "q_max", "q_p_min", "q_p_max",
    "q_g_min", "q_g_max", "u_min", "u_max", "u_p_min", "u_p_max",
    "u_g_min", "u_g_max", "zero_velocity_samples", "zero_grad_samples",
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
    lipschitz_probes: int


# INI key of a dataclass field, where the two names differ.
_INI_NAMES = {"inertia_mode": "inertia"}

# [data] and [hyper] hold one key per field of these dataclasses, which also
# own the defaults and the validation.
_DATACLASS_SECTIONS = {"data": DataConfig, "hyper": HyperParameters}

_SECTION_KEYS = {
    "experiment": {"variants", "seeds", "output_dir"},
    **{
        section: {_INI_NAMES.get(f.name, f.name) for f in dataclasses.fields(cls)}
        for section, cls in _DATACLASS_SECTIONS.items()
    },
    "model": {"kind", "hidden_dims", "init"},
    "attack": {"strategy", "attackers", "scale", "verification"},
    "diagnostics": {"cosine_stats", "divergence", "lipschitz_probes"},
}


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


def _from_section(parser, section: str):
    """The section's dataclass, built from its keys; missing keys keep the field defaults."""
    cls = _DATACLASS_SECTIONS[section]
    kwargs = {}
    for f in dataclasses.fields(cls):
        conv = str if f.default is None else type(f.default)
        kwargs[f.name] = _get(parser, section, _INI_NAMES.get(f.name, f.name), f.default, conv)
    return cls(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config; every check that needs no data runs here."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
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

    try:
        data = _from_section(parser, "data")
        hyper = _from_section(parser, "hyper")
        model_kind = _get(parser, "model", "kind", "softmax_regression", str)
        hidden_dims = _get(parser, "model", "hidden_dims", (), _int_list)
        init_mode = _get(parser, "model", "init", "shared", str)
        check_model(model_kind, hidden_dims, init_mode)
        attack = AttackSpec(
            frozenset(_get(parser, "attack", "attackers", (), _int_list)),
            _get(parser, "attack", "strategy", "none", str),
            _get(parser, "attack", "scale", 10.0, float),
        )
        check_variants(variants, hyper.num_workers, attack, data.global_train, data.global_score)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    diagnostics = DiagnosticsFlags(
        cosine_stats=_get(parser, "diagnostics", "cosine_stats", False, _bool),
        divergence=_get(parser, "diagnostics", "divergence", False, _bool),
    )
    lipschitz_probes = _get(parser, "diagnostics", "lipschitz_probes", 16, int)
    if diagnostics.cosine_stats and lipschitz_probes < analysis.MIN_LIPSCHITZ_PROBES:
        raise ConfigError(
            f"[diagnostics] lipschitz_probes must be >= {analysis.MIN_LIPSCHITZ_PROBES} "
            "when cosine_stats is on"
        )

    return ExperimentConfig(
        variants=variants,
        seeds=seeds,
        output_dir=_get(parser, "experiment", "output_dir", "out", str),
        data=data,
        model_kind=model_kind,
        hidden_dims=hidden_dims,
        init_mode=init_mode,
        hyper=hyper,
        attack=attack,
        verification=_get(parser, "attack", "verification", True, _bool),
        diagnostics=diagnostics,
        lipschitz_probes=lipschitz_probes,
    )


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _diag_columns(cfg: ExperimentConfig) -> tuple[str, ...]:
    cols: tuple[str, ...] = ()
    if cfg.diagnostics.cosine_stats:
        cols += COSINE_COLUMNS
    if cfg.diagnostics.divergence:
        cols += DIVERGENCE_COLUMNS
    return cols


def write_run_csv(path: Path, records: list[RoundRecord], diag_cols: tuple[str, ...]):
    rows = [
        {
            "round": r.round_index, "variant": r.variant, "seed": r.seed, "f_g": r.f_g,
            "train_loss_mean": r.train_loss_mean, "train_loss_min": r.train_loss_min,
            "train_loss_max": r.train_loss_max, "test_accuracy": r.test_accuracy,
            "scalar_uplinks": r.scalar_uplinks, "vector_uplinks": r.vector_uplinks,
            "vector_broadcasts": r.vector_broadcasts, "detections": r.detections,
            **{col: r.diag.get(col, math.nan) for col in diag_cols},
        }
        for r in records
    ]
    _write_table(path, BASE_COLUMNS + diag_cols, rows)


def summarize(result: RunResult) -> dict:
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
        "partition_digest": result.partition_digest,
        "init_digest": result.init_digest,
    }


def _diagnostics_row(
    cfg: ExperimentConfig, setup: ExperimentSetup, result: RunResult, f_star: float
) -> dict:
    population = population_batch(setup)
    lip = analysis.estimate_model_lipschitz(
        setup.spec, population, cfg.data.classes, cfg.lipschitz_probes,
        derived_rng(setup.seed, DOMAIN_DIAG, 0),
    )
    stats = result.cosine_stats
    f0 = loss(setup.spec, initial_w_for(setup, 0), population)
    phi = analysis.phi_e(cfg.hyper, stats, lip.l_global)
    phi_deg = cfg.hyper.alpha - 2 * lip.l_global * cfg.hyper.alpha ** 2
    bound = analysis.convergence_bound(f0, f_star, cfg.hyper.rounds, phi)
    return {
        "variant": result.variant,
        "seed": result.seed,
        "lipschitz": lip.l_global,
        "f0": f0,
        "f_star": f_star,
        "phi_e": phi,
        "phi_e_degenerate": phi_deg,
        "phi_e_delta": phi - phi_deg,
        "bound": bound.value,
        "bound_vacuous": int(bound.vacuous),
        "empirical_mean_grad_sq": stats.mean_grad_sq,
        "empirical_min_grad_sq": stats.min_grad_sq,
        "q_min": stats.q.min, "q_max": stats.q.max,
        "q_p_min": stats.qp.min, "q_p_max": stats.qp.max,
        "q_g_min": stats.qg.min, "q_g_max": stats.qg.max,
        "u_min": stats.u.min, "u_max": stats.u.max,
        "u_p_min": stats.up.min, "u_p_max": stats.up.max,
        "u_g_min": stats.ug.min, "u_g_max": stats.ug.max,
        "zero_velocity_samples": stats.zero_velocity,
        "zero_grad_samples": stats.zero_grad,
    }


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seeds = (seed_override,) if seed_override is not None else cfg.seeds
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    runs_dir = out / "runs"
    diag_cols = _diag_columns(cfg)

    results: list[tuple[ExperimentSetup, RunResult]] = []
    setups: dict[int, ExperimentSetup] = {}
    current = ("data setup", -1)
    try:
        # A ValueError while building a seed's world means the config cannot
        # be met for that seed; past this point a ValueError is a fault.
        for seed in seeds:
            current = ("data setup", seed)
            setups[seed] = build_setup(
                cfg.data, cfg.model_kind, cfg.hidden_dims, cfg.hyper, seed, cfg.init_mode
            )
        runs_dir.mkdir(parents=True, exist_ok=True)
        # Files of an earlier run would sit beside this run's as if its own.
        for stale in ("summary.csv", "diagnostics.csv", "communication.csv"):
            (out / stale).unlink(missing_ok=True)
        for path in runs_dir.glob("*.csv"):
            variant, _, seed = path.stem.rpartition("_")
            if variant in VARIANTS and seed.isdigit():
                path.unlink()
        for variant in cfg.variants:
            for seed in seeds:
                current = (variant, seed)
                result = run_variant(
                    variant, setups[seed], cfg.hyper,
                    attack=cfg.attack, verification=cfg.verification,
                    diag=cfg.diagnostics,
                )
                write_run_csv(runs_dir / f"{variant}_{seed}.csv", result.records, diag_cols)
                results.append((setups[seed], result))
                print(f"ran {variant} seed {seed}: "
                      f"final accuracy {result.records[-1].test_accuracy:.4f}")
    except Exception as exc:
        infeasible = (current[0] == "data setup" and isinstance(exc, ValueError)
                      and not isinstance(exc, NonFiniteError))
        kind, code = ("config error", 2) if infeasible else ("runtime error", 3)
        print(f"{kind} in {current[0]} seed {current[1]}: {exc}", file=sys.stderr)
        return code

    _write_table(out / "summary.csv", SUMMARY_COLUMNS, [summarize(r) for _, r in results])

    if cfg.diagnostics.cosine_stats:
        observed = [r.min_observed_loss for _, r in results if math.isfinite(r.min_observed_loss)]
        f_star = min(observed) if observed else math.nan
        rows = [
            _diagnostics_row(cfg, setup, result, f_star)
            for setup, result in results
            if result.cosine_stats is not None
        ]
        _write_table(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS, rows)

    print(f"wrote {out / 'summary.csv'}")
    return 0


def report_communication(output_dir: str) -> int:
    """Tabulate per-seed vector-uplink totals of swarm variants vs FedAvg."""
    summary_path = Path(output_dir) / "summary.csv"
    if not summary_path.exists():
        print(f"config error: no summary.csv under {output_dir}", file=sys.stderr)
        return 2
    with open(summary_path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))

    by_seed: dict[int, dict[str, int]] = {}
    for row in rows:
        by_seed.setdefault(int(row["seed"]), {})[row["variant"]] = int(
            row["total_vector_uplinks"]
        )

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
