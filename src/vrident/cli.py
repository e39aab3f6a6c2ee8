"""Command-line front end.

Four subcommands cover the artifact workflow: ``synth`` writes a synthetic
cohort to disk, ``featurize`` turns traces into feature matrices, ``evaluate``
runs an experiment matrix from a config file, and ``importance`` ranks
features by Shapley value. Exit codes: 0 success, 1 at least one experiment
cell failed, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .classifiers import MODEL_CLASSES, MODEL_KINDS, make_model
from .classifiers.base import check_param_type
from .core import DEFAULT_WINDOW_S, whole_windows
from .evaluation import (
    ExperimentSpec,
    cell_matrices,
    majority_vote_eval,
    report_to_dict,
    run_identification,
    run_matrix,
    user_subset_experiment,
    write_confusion_csv,
    write_curve_csv,
    write_json,
    write_table_csv,
)
from .features import (
    _TRAFFIC_SETS,
    DEFAULT_BIN_S,
    FEATURE_SET_NAMES,
    _bin_count,
    build_features,
    feature_names,
    write_feature_csv,
)
from .importance import shapley_attribution, top_k_features, write_attribution_csv
from .ingest import atomic_write_text, generate_synthetic_cohort, load_dataset, write_cohort


class UsageError(ValueError):
    """Bad flags, config, or input files; maps to exit code 2."""


#: Users per unit of the subset curve; ``subset_sizes`` are multiples of it.
SUBSET_UNIT = 5


# ---- run config ----------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Experiment matrix for ``evaluate`` and ``importance``.

    Loaded from a JSON object with exactly these keys (unknown keys are
    rejected before any computation starts).
    """

    manifest: str
    feature_sets: tuple[str, ...]
    model_kinds: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    games: tuple[str, ...] = ()  # empty selects every game in the manifest
    out_dir: str = "reports"
    window_s: float = DEFAULT_WINDOW_S
    bin_s: float = DEFAULT_BIN_S
    train_s: float = 480.0
    test_s: float = 120.0
    vote_k: tuple[int, ...] = (1,)
    subset_sizes: tuple[int, ...] = ()
    model_params: dict = field(default_factory=dict)
    shapley_permutations: int = 200
    shapley_instances: int = 50


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}
_REQUIRED_KEYS = {
    f.name
    for f in dataclasses.fields(RunConfig)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
}


def _no_repeats(val: list, key: str, where: str) -> tuple:
    seen = set()
    for x in val:
        if x in seen:
            raise UsageError(f"{where}: {key!r} lists {x!r} more than once")
        seen.add(x)
    return tuple(val)


def _str_tuple(obj: dict, key: str, where: str) -> tuple[str, ...]:
    val = obj[key]
    if not isinstance(val, list) or not val or not all(isinstance(x, str) for x in val):
        raise UsageError(f"{where}: {key!r} must be a non-empty list of strings")
    return _no_repeats(val, key, where)


def _int_tuple(obj: dict, key: str, where: str, minimum: int = 0) -> tuple[int, ...]:
    val = obj[key]
    ok = isinstance(val, list) and val and all(
        isinstance(x, int) and not isinstance(x, bool) and x >= minimum for x in val
    )
    if not ok:
        raise UsageError(f"{where}: {key!r} must be a non-empty list of integers >= {minimum}")
    return _no_repeats(val, key, where)


def _positive_number(obj: dict, key: str, where: str) -> float:
    val = obj[key]
    # json.loads takes NaN and Infinity, and bool is an int subclass
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if not number or not 0 < val <= sys.float_info.max:
        raise UsageError(f"{where}: {key!r} must be a finite positive number, got {val!r}")
    return float(val)


def _positive_int(obj: dict, key: str, where: str) -> int:
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise UsageError(f"{where}: {key!r} must be a positive integer")
    return val


def load_run_config(path: str) -> RunConfig:
    """Parse and strictly validate a config file before any work starts."""
    where = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"{where}: file not found") from None
    except OSError as exc:
        raise UsageError(f"{where}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise UsageError(f"{where}: config must be a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"{where}: unknown config keys: {unknown}")
    missing = sorted(_REQUIRED_KEYS - set(obj))
    if missing:
        raise UsageError(f"{where}: missing config keys: {missing}")

    kwargs: dict = {
        "manifest": obj["manifest"],
        "feature_sets": _str_tuple(obj, "feature_sets", where),
        "model_kinds": _str_tuple(obj, "model_kinds", where),
    }
    if not isinstance(kwargs["manifest"], str):
        raise UsageError(f"{where}: 'manifest' must be a string path")
    for fs in kwargs["feature_sets"]:
        try:
            feature_names(fs)
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    for kind in kwargs["model_kinds"]:
        if kind not in MODEL_KINDS:
            raise UsageError(
                f"{where}: unknown model kind {kind!r}; expected one of: "
                + ", ".join(MODEL_KINDS)
            )
    if "seeds" in obj:
        kwargs["seeds"] = _int_tuple(obj, "seeds", where, minimum=0)
    if "games" in obj:
        kwargs["games"] = _str_tuple(obj, "games", where)
    if "out_dir" in obj:
        if not isinstance(obj["out_dir"], str) or not obj["out_dir"]:
            raise UsageError(f"{where}: 'out_dir' must be a non-empty string")
        kwargs["out_dir"] = obj["out_dir"]
    for key in ("window_s", "bin_s", "train_s", "test_s"):
        if key in obj:
            kwargs[key] = _positive_number(obj, key, where)
    if _TRAFFIC_SETS.intersection(kwargs["feature_sets"]):
        try:
            _bin_count(kwargs.get("window_s", DEFAULT_WINDOW_S), kwargs.get("bin_s", DEFAULT_BIN_S))
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    if "vote_k" in obj:
        ks = _int_tuple(obj, "vote_k", where, minimum=1)
        bad = [k for k in ks if k % 2 == 0]
        if bad:
            raise UsageError(f"{where}: 'vote_k' entries must be odd, got {bad}")
        kwargs["vote_k"] = ks
    if "subset_sizes" in obj:
        sizes = _int_tuple(obj, "subset_sizes", where, minimum=1)
        bad = [s for s in sizes if s % SUBSET_UNIT]
        if bad:
            raise UsageError(
                f"{where}: 'subset_sizes' entries must be multiples of {SUBSET_UNIT}, got {bad}"
            )
        kwargs["subset_sizes"] = sizes
    if "model_params" in obj:
        params = obj["model_params"]
        if not isinstance(params, dict):
            raise UsageError(f"{where}: 'model_params' must be an object keyed by model kind")
        for kind, overrides in params.items():
            if kind not in MODEL_KINDS:
                raise UsageError(f"{where}: 'model_params' has unknown model kind {kind!r}")
            if not isinstance(overrides, dict):
                raise UsageError(f"{where}: 'model_params'[{kind!r}] must be an object")
            # the seed comes from 'seeds'; an ensemble takes no parameters
            hints = {}
            if kind in MODEL_CLASSES:
                hints = typing.get_type_hints(MODEL_CLASSES[kind].__init__)
                hints = {k: v for k, v in hints.items() if k not in ("seed", "return")}
            for key, val in overrides.items():
                if key not in hints:
                    takes = ", ".join(sorted(hints)) or "no parameters"
                    raise UsageError(
                        f"{where}: 'model_params'[{kind!r}] has unknown parameter {key!r}; "
                        f"{kind} takes {takes}"
                    )
                try:
                    check_param_type(val, hints[key], f"{where}: 'model_params'[{kind!r}][{key!r}]")
                except ValueError as exc:
                    raise UsageError(str(exc)) from None
            try:  # the constructors check value ranges
                make_model(kind, **overrides)
            except ValueError as exc:
                raise UsageError(f"{where}: 'model_params'[{kind!r}]: {exc}") from None
        kwargs["model_params"] = params
    if "shapley_permutations" in obj:
        kwargs["shapley_permutations"] = _positive_int(obj, "shapley_permutations", where)
    if "shapley_instances" in obj:
        kwargs["shapley_instances"] = _positive_int(obj, "shapley_instances", where)
    return RunConfig(**kwargs)


# ---- shared plumbing -------------------------------------------------------------

def _resolve_out_dir(flag_value: str | None, fallback: str) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("VRIDENT_OUT_DIR")
    if env:
        return Path(env)
    return Path(fallback)


def _resolve_jobs(flag_value: int | None) -> int:
    if flag_value is None:
        raw = os.environ.get("VRIDENT_JOBS")
        if raw is None or raw == "":
            return 1
        try:
            flag_value = int(raw)
        except ValueError:
            raise UsageError(f"VRIDENT_JOBS must be an integer, got {raw!r}") from None
    if flag_value < 1:
        raise UsageError(f"job count must be >= 1, got {flag_value}")
    return flag_value


def _config_games(config: RunConfig, dataset) -> list[str]:
    available = dataset.game_ids()
    if not config.games:
        return available
    missing = sorted(set(config.games) - set(available))
    if missing:
        raise UsageError(f"games not present in the manifest: {missing}")
    return list(config.games)


def _check_curves(config: RunConfig, dataset, games: list[str]) -> None:
    """Reject subset sizes and vote windows that no cell could evaluate."""
    n_test = whole_windows(config.test_s, config.window_s)
    if max(config.vote_k) > n_test:
        raise UsageError(
            f"vote_k {max(config.vote_k)} exceeds the {n_test} test windows of "
            f"test_s={config.test_s} at window_s={config.window_s}"
        )
    if not config.subset_sizes:
        return
    largest = max(config.subset_sizes)
    for game in games:
        n_users = len(dataset.for_game(game))
        if n_users % SUBSET_UNIT:
            raise UsageError(
                f"game {game!r} has {n_users} users, not divisible by the subset unit "
                f"{SUBSET_UNIT}"
            )
        if n_users < largest:
            raise UsageError(
                f"game {game!r} has {n_users} users, fewer than subset size {largest}"
            )


def _cell_specs(config: RunConfig, games, seeds, feature_sets, model_kinds) -> list[ExperimentSpec]:
    """One spec per (seed, game, feature set, model kind), in that nesting order."""
    return [
        ExperimentSpec(
            game_id=game,
            feature_set=fs,
            model_kind=kind,
            seed=seed,
            train_s=config.train_s,
            test_s=config.test_s,
            window_s=config.window_s,
            bin_s=config.bin_s,
            vote_k=config.vote_k[0],
            model_params=dict(config.model_params.get(kind, {})),
        )
        for seed in seeds
        for game in games
        for fs in feature_sets
        for kind in model_kinds
    ]


def _cell_slug(spec: ExperimentSpec) -> str:
    return f"{spec.game_id}.{spec.feature_set}.{spec.model_kind}.s{spec.seed}"


# ---- subcommands -----------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.users < 2:
        raise UsageError(f"need at least 2 users, got {args.users}")
    dataset = generate_synthetic_cohort(
        args.users, minutes=args.minutes, seed=args.seed, clone=args.clone
    )
    out_dir = _resolve_out_dir(args.out, "cohort")
    manifest = write_cohort(dataset, out_dir)
    print(f"wrote {len(dataset.records)} traces under {out_dir}")
    print(f"manifest: {manifest}")
    return 0


def cmd_featurize(args) -> int:
    for flag, value in (("--window", args.window), ("--bin", args.bin_s)):
        if not 0 < value <= sys.float_info.max:
            raise UsageError(f"{flag} must be a finite positive number, got {value}")
    feature_set = args.feature_set
    if args.normalize_height:
        mapped = {
            "movement": "movement_norm_height",
            "combined": "combined_norm_height",
        }.get(feature_set, feature_set)
        if feature_set == "traffic":
            raise UsageError("height normalization does not apply to the traffic feature set")
        feature_set = mapped
    if feature_set in _TRAFFIC_SETS:
        _bin_count(args.window, args.bin_s)
    dataset = load_dataset(args.manifest)
    out_dir = _resolve_out_dir(args.out, "features")
    out_dir.mkdir(parents=True, exist_ok=True)
    n_features = len(feature_names(feature_set))
    for game in dataset.game_ids():
        records = sorted(dataset.for_game(game), key=lambda r: r.user_id)
        traces = [
            build_features(record.trace, feature_set, args.window, args.bin_s)
            for record in records
        ]
        path = out_dir / f"features_{game}.csv"
        write_feature_csv(str(path), traces)
        n_rows = sum(map(len, traces))
        print(f"{game}: {n_rows} rows x (3 id cols + {n_features} features) -> {path}")
    return 0


def _run_cell(spec: ExperimentSpec, dataset, vote_ks, subset_sizes):
    report = run_identification(spec, dataset)
    curve = [(k, majority_vote_eval(report.streams, k)) for k in vote_ks]
    subsets = (
        user_subset_experiment(spec, dataset, subset_sizes, SUBSET_UNIT, full_report=report)
        if subset_sizes
        else None
    )
    return report, curve, subsets


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config)
    jobs = _resolve_jobs(args.jobs)
    dataset = load_dataset(config.manifest)
    games = _config_games(config, dataset)
    _check_curves(config, dataset, games)
    out_dir = _resolve_out_dir(None, config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    specs = _cell_specs(config, games, config.seeds, config.feature_sets, config.model_kinds)
    cell = functools.partial(_run_cell, vote_ks=config.vote_k, subset_sizes=config.subset_sizes)
    outcomes = run_matrix(specs, dataset, jobs, cell=cell)

    cells = []
    ok_reports = []
    failures = 0
    for spec, outcome in zip(specs, outcomes):
        slug = _cell_slug(spec)
        if isinstance(outcome, Exception):
            failures += 1
            print(f"[FAIL] {slug}: {outcome}", file=sys.stderr)
            cells.append(
                {"spec": dataclasses.asdict(spec), "status": "error", "error": str(outcome)}
            )
            continue
        report, curve, subsets = outcome
        ok_reports.append(report)
        write_confusion_csv(str(out_dir / f"confusion_{slug}.csv"), report)
        write_curve_csv(str(out_dir / f"voting_{slug}.csv"), ("k", "accuracy"), curve)
        cell = report_to_dict(report)
        cell["status"] = "ok"
        cell["vote_curve"] = [[k, acc] for k, acc in curve]
        if subsets is not None:
            points = [(size, subsets.mean_accuracy[size]) for size in subsets.sizes]
            write_curve_csv(str(out_dir / f"subsets_{slug}.csv"), ("users", "accuracy"), points)
            cell["subsets"] = {
                "unit": subsets.unit,
                "sizes": list(subsets.sizes),
                "mean_accuracy": {str(s): subsets.mean_accuracy[s] for s in subsets.sizes},
                "group_accuracy": {str(s): subsets.group_accuracy[s] for s in subsets.sizes},
            }
        cells.append(cell)
        print(f"[ok] {slug} accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")

    for seed in config.seeds:
        seed_reports = [r for r in ok_reports if r.spec.seed == seed]
        if seed_reports:
            write_table_csv(str(out_dir / f"summary_s{seed}.csv"), seed_reports)
    write_json(
        str(out_dir / "report.json"),
        {
            "toolkit_version": __version__,
            "config": dataclasses.asdict(config),
            "games": games,
            "cells": cells,
        },
    )
    done = len(specs) - failures
    print(f"{done}/{len(specs)} cells completed; reports in {out_dir}")
    return 1 if failures else 0


def _attribution_cell(spec: ExperimentSpec, dataset, config: RunConfig):
    X_train, y_train, X_test, y_test = cell_matrices(spec, dataset)
    model = make_model(spec.model_kind, seed=spec.seed, **spec.model_params)
    model.fit(X_train, y_train)
    return shapley_attribution(
        model,
        X_test,
        y_test,
        X_train.mean(axis=0),
        n_permutations=config.shapley_permutations,
        seed=spec.seed,
        max_per_label=config.shapley_instances,
        feature_names=feature_names(spec.feature_set),
    )


def cmd_importance(args) -> int:
    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    config = load_run_config(args.config)
    # the importance pass ranks features for one cell per game: the first
    # configured feature set, model kind, and seed
    feature_set, model_kind, seed = config.feature_sets[0], config.model_kinds[0], config.seeds[0]
    n_features = len(feature_names(feature_set))
    if args.top > n_features:
        raise UsageError(f"--top {args.top} exceeds the {n_features} features of {feature_set!r}")
    dataset = load_dataset(config.manifest)
    games = _config_games(config, dataset)
    out_dir = _resolve_out_dir(None, config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    specs = _cell_specs(config, games, [seed], [feature_set], [model_kind])
    cell = functools.partial(_attribution_cell, config=config)
    outcomes = run_matrix(specs, dataset, 1, cell=cell)

    top_rows = []
    per_game = {}
    for spec, outcome in zip(specs, outcomes):
        game = spec.game_id
        if isinstance(outcome, Exception):
            print(f"[FAIL] {game}: {outcome}", file=sys.stderr)
            per_game[game] = {"status": "error", "error": str(outcome)}
            continue
        top = top_k_features(outcome, args.top)
        write_attribution_csv(str(out_dir / f"attribution_{game}.csv"), outcome)
        per_game[game] = {
            "status": "ok",
            "top": [{"feature": name, "mean_shapley": value} for name, value in top],
        }
        for rank, (name, value) in enumerate(top, start=1):
            top_rows.append(f"{game},{rank},{name},{value!r}")
        print(f"[ok] {game} top feature: {top[0][0]}")

    lines = ["game,rank,feature,mean_shapley"] + top_rows
    atomic_write_text(out_dir / "importance_top.csv", "\n".join(lines) + "\n")
    write_json(
        str(out_dir / "importance.json"),
        {
            "toolkit_version": __version__,
            "config": dataclasses.asdict(config),
            "cell": {"feature_set": feature_set, "model_kind": model_kind, "seed": seed},
            "top_k": args.top,
            "games": per_game,
        },
    )
    print(f"importance tables in {out_dir}")
    return 1 if any(isinstance(o, Exception) for o in outcomes) else 0


# ---- entry point ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrident",
        description="User identification from VR movement and network traffic.",
    )
    parser.add_argument("--version", action="version", version=f"vrident {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic cohort (trace CSVs + manifest)")
    synth.add_argument("--users", type=int, required=True, help="number of users (>= 2)")
    synth.add_argument("--minutes", type=float, default=10.0, help="minutes per trace")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--clone", action="store_true", help="give every user identical parameters"
    )
    synth.add_argument("--out", default=None, help="output directory (default: cohort)")
    synth.set_defaults(func=cmd_synth)

    feat = sub.add_parser("featurize", help="write per-game feature matrices")
    feat.add_argument("--manifest", required=True, help="manifest path")
    feat.add_argument(
        "--feature-set", default="combined", choices=sorted(FEATURE_SET_NAMES)
    )
    feat.add_argument("--window", type=float, default=DEFAULT_WINDOW_S, help="window seconds")
    feat.add_argument(
        "--bin", type=float, default=DEFAULT_BIN_S, dest="bin_s", help="traffic bin seconds"
    )
    feat.add_argument(
        "--normalize-height",
        action="store_true",
        help="switch movement-bearing sets to their height-normalized variant",
    )
    feat.add_argument("--out", default=None, help="output directory (default: features)")
    feat.set_defaults(func=cmd_featurize)

    ev = sub.add_parser("evaluate", help="run the experiment matrix from a config file")
    ev.add_argument("--config", required=True, help="JSON config path")
    ev.add_argument("--jobs", type=int, default=None, help="parallel cells (default 1)")
    ev.set_defaults(func=cmd_evaluate)

    imp = sub.add_parser("importance", help="rank features by Shapley value")
    imp.add_argument("--config", required=True, help="JSON config path")
    imp.add_argument("--top", type=int, default=3, help="rows per game in the top table")
    imp.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # UsageError, TraceFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
