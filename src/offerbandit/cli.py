"""Command-line interface.

Subcommands: ingest, backfit, replay, simulate, report, explain, mf.
Every run takes a JSON config file; --seed, --rounds, --policy and --out
override the corresponding config values (flag > file > default). Commands
are re-runnable: the same config and seed produce byte-identical outputs.
On failure the exit code is nonzero, a one-line JSON error goes to stderr,
and partially written outputs are removed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bandit import ModelStore, backfit, load_checkpoint, save_checkpoint
from .baselines import make_policy
from .config import RunConfig, has_type
from .data import (
    IngestError,
    MFScoreTable,
    catalog_orphan_issues,
    ingest_impressions,
    ingest_mf_scores,
    ingest_offers,
    ingest_transactions,
    write_csv,
    write_json,
    write_validation_report,
)
from .errors import ConfigError
from .harness import (
    ReplayDataset,
    SyntheticWorld,
    backfit_events,
    build_manifest,
    config_hash,
    files_fingerprint,
    run_replay,
    run_synthetic,
    write_manifest,
    write_metrics_csv,
    write_roundlog,
    write_summary_json,
)
from .interpret import (
    HttpLLMClient,
    LLMTransportError,
    MockLLMClient,
    TrajectoryStore,
    build_payload,
)
from .mf import als_factorize, build_count_matrix, member_offer_scores, reconstruction_error, write_mf_scores


class OutputWriter:
    """Tracks files written by one command; removes them all on failure."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.paths: list[Path] = []

    def __enter__(self) -> "OutputWriter":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def register(self, name: str) -> Path:
        path = self.out_dir / name
        self.paths.append(path)
        return path

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            for path in self.paths:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
        return False


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.run.seed = args.seed
    if getattr(args, "rounds", None) is not None:
        cfg.run.rounds = args.rounds
    if getattr(args, "policy", None) is not None:
        cfg.policy = args.policy
    if getattr(args, "out", None) is not None:
        cfg.run.out_dir = args.out
    cfg.validate()
    return cfg


def _require(value: str | None, key: str) -> str:
    if not value:
        raise ConfigError(f"missing config key: {key}")
    return value


def _load_dataset(cfg: RunConfig) -> tuple[ReplayDataset, dict[str, list[tuple[int, str]]]]:
    issues: dict[str, list[tuple[int, str]]] = {}
    tx = ingest_transactions(_require(cfg.data.transactions, "data.transactions"))
    issues["transactions"] = tx.issues
    offers = ingest_offers(_require(cfg.data.offers, "data.offers"))
    issues["offers"] = offers.issues
    imps = ingest_impressions(_require(cfg.data.impressions, "data.impressions"))
    issues["impressions"] = imps.issues
    if cfg.data.mf_scores:
        table, mf_issues = ingest_mf_scores(cfg.data.mf_scores, cfg.data.mf_default_score)
        issues["mf_scores"] = mf_issues
    else:
        table = MFScoreTable(default_score=cfg.data.mf_default_score)
    issues["impression_orphans"] = catalog_orphan_issues(imps, offers.records)
    return ReplayDataset(tx.records, offers.records, imps.records, table), issues


def _data_paths(cfg: RunConfig) -> list[str]:
    return [p for p in (cfg.data.transactions, cfg.data.offers, cfg.data.impressions, cfg.data.mf_scores) if p]


def _skip_tallies(issues: dict[str, list[tuple[int, str]]]) -> dict[str, int]:
    return {f"ingest_{name}": len(items) for name, items in sorted(issues.items())}


def _build_policy(cfg: RunConfig, store=None):
    return make_policy(
        cfg.policy,
        cfg.learner,
        cfg.exploration,
        store=store,
        alpha_explore=cfg.linucb.alpha_explore,
        linucb_l2=cfg.linucb.l2_lambda,
        ts_v=cfg.ts.v,
        ts_l2=cfg.ts.l2_lambda,
        epsilon=cfg.egreedy.epsilon,
        epsilon_decay=cfg.egreedy.decay,
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset, issues = _load_dataset(cfg)
    with OutputWriter(cfg.run.out_dir) as out:
        for name, items in sorted(issues.items()):
            write_validation_report(out.register(f"validation_{name}.jsonl"), items)
        manifest = build_manifest(
            cfg.run.seed,
            cfg.to_dict(),
            files_fingerprint(_data_paths(cfg)),
            _skip_tallies(issues),
            command="ingest",
            counts={
                "transactions": len(dataset.transactions),
                "offers": len(dataset.offers),
                "impressions": len(dataset.impressions),
                "mf_scores": len(dataset.mf_table),
            },
        )
        write_manifest(out.register("manifest.json"), manifest)
    print(f"ingested {len(dataset.transactions)} transactions, {len(dataset.offers)} offers, "
          f"{len(dataset.impressions)} impressions -> {cfg.run.out_dir}")
    return 0


def cmd_backfit(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset, issues = _load_dataset(cfg)
    batch, y, event_skips = backfit_events(dataset, cfg.features)
    store = ModelStore.from_config(cfg.learner)
    report = backfit(store, batch, y, cfg.learner)
    with OutputWriter(cfg.run.out_dir) as out:
        save_checkpoint(out.register("checkpoint.jsonl"), store, cfg.learner)
        write_json(out.register("backfit_report.json"), asdict(report))
        tallies = _skip_tallies(issues) | event_skips
        manifest = build_manifest(
            cfg.run.seed, cfg.to_dict(), files_fingerprint(_data_paths(cfg)), tallies,
            command="backfit", n_models=len(store),
        )
        write_manifest(out.register("manifest.json"), manifest)
    print(f"backfit {report.n_events} events into {len(store)} models -> {cfg.run.out_dir}")
    if report.empty:
        print("warning: no training events; store equals priors", file=sys.stderr)
    return 0


def _write_run_outputs(out: OutputWriter, result, cfg: RunConfig, fingerprint: str, command: str, extra_tallies=None) -> None:
    write_roundlog(out.register("rounds.jsonl"), result.records)
    write_metrics_csv(out.register("metrics.csv"), result.records)
    write_summary_json(out.register("summary.json"), result.summary)
    result.trajectories.save(out.register("trajectory.jsonl"))
    manifest = build_manifest(
        cfg.run.seed, cfg.to_dict(), fingerprint, result.skip_tallies | (extra_tallies or {}),
        command=command, policy=cfg.policy, rounds=result.summary.rounds,
    )
    write_manifest(out.register("manifest.json"), manifest)


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    store = None
    if checkpoint := cfg.run.backfit_checkpoint:
        if cfg.policy != "camb":
            raise ConfigError(f"run.backfit_checkpoint holds camb weights; policy {cfg.policy!r} cannot start from it")
        if not Path(checkpoint).is_file():
            raise ConfigError(f"missing checkpoint file for run.backfit_checkpoint: {checkpoint}")
        store, _ = load_checkpoint(checkpoint)
    dataset, issues = _load_dataset(cfg)
    policy = _build_policy(cfg, store=store)
    result = run_replay(dataset, policy, cfg.run.seed, cfg.features, cfg.run.snapshot_every)
    with OutputWriter(cfg.run.out_dir) as out:
        _write_run_outputs(
            out, result, cfg, files_fingerprint(_data_paths(cfg)), "replay", _skip_tallies(issues)
        )
    s = result.summary
    print(f"replayed {s.rounds} rounds ({s.matched_rounds} matched), "
          f"cumulative reward {s.cumulative_reward} -> {cfg.run.out_dir}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    world = SyntheticWorld(cfg.world_config())
    policy = _build_policy(cfg)
    result = run_synthetic(world, policy, cfg.run.rounds, cfg.run.seed, thin_every=cfg.run.snapshot_every)
    fingerprint = "synthetic:" + config_hash(cfg.to_dict()["synthetic"])
    with OutputWriter(cfg.run.out_dir) as out:
        _write_run_outputs(out, result, cfg, fingerprint, "simulate")
    s = result.summary
    print(f"simulated {s.rounds} rounds: reward {s.cumulative_reward}, "
          f"regret {s.regret:.2f}, optimal rate {s.optimal_action_rate:.3f} -> {cfg.run.out_dir}")
    return 0


REPORT_COLUMNS = ("cum_reward", "avg_reward", "regret", "optimal_rate")


def _read_run(run_dir: Path) -> tuple[list[dict[str, float | None]], dict]:
    """A run directory's metrics rows and summary; ConfigError naming the
    file when either is missing or lacks what report reads."""
    metrics = run_dir / "metrics.csv"
    summary = run_dir / "summary.json"
    if not metrics.is_file() or not summary.is_file():
        raise ConfigError(f"run directory {run_dir} is missing metrics.csv or summary.json")
    # A bad byte decodes to U+FFFD, which no number parses.
    with metrics.open(newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in REPORT_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ConfigError(f"{metrics} lacks the columns {missing}")
        rows = [_metric_values(metrics, reader.line_num, row) for row in reader]
    try:
        obj = json.loads(summary.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"{summary} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{summary} must be a JSON object")
    for key in ("cumulative_reward", "regret", "optimal_action_rate"):
        value = obj.get(key)
        if value is None and key != "cumulative_reward":
            continue  # replay runs have no regret or optimal rate
        if not has_type(value, float):  # a finite number; not a bool or an int past the float range
            raise ConfigError(f"{summary}: {key} must be a JSON number, got {value!r}")
    return rows, obj


def _metric_values(path: Path, line: int, row: dict[str, str]) -> dict[str, float | None]:
    """The report columns of one metrics row: a finite number, or None
    for a blank cell."""
    if None in row.values():
        raise ConfigError(f"{path} line {line} has fewer fields than its header")
    values = {}
    for c in REPORT_COLUMNS:
        try:
            values[c] = None if row[c] == "" else float(row[c])
        except ValueError:
            values[c] = math.nan
        if values[c] is not None and not math.isfinite(values[c]):
            raise ConfigError(f"{path} line {line}: {c} must be a finite number, got {row[c]!r}")
    return values


def cmd_report(args: argparse.Namespace) -> int:
    run_dirs = [Path(d) for d in args.run_dirs]
    series, summaries = zip(*map(_read_run, run_dirs))
    n_rounds = min(len(rows) for rows in series)
    with OutputWriter(args.out) as out:
        merged_rows = []
        for i in range(n_rounds):
            row: list[object] = [i + 1]
            for c in REPORT_COLUMNS:
                values = [rows[i][c] for rows in series if rows[i][c] is not None]
                row.append(sum(values) / len(values) if values else "")
            merged_rows.append(row)
        write_csv(out.register("merged.csv"), ["round"] + [f"mean_{c}" for c in REPORT_COLUMNS], merged_rows)
        merged = {"runs": [str(d) for d in run_dirs], "rounds_compared": n_rounds, "per_run": summaries}
        for key in ("cumulative_reward", "regret", "optimal_action_rate"):
            # Replay runs have no regret or optimal rate; a mean needs every run's.
            values = [s.get(key) for s in summaries]
            merged[f"mean_{key}"] = None if None in values else float(np.mean(values))
        write_json(out.register("merged.json"), merged)
    print(f"merged {len(run_dirs)} runs over {n_rounds} rounds -> {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trajectory_path = args.trajectory or str(Path(cfg.run.out_dir) / "trajectory.jsonl")
    if not Path(trajectory_path).is_file():
        raise ConfigError(f"missing trajectory file: {trajectory_path}")
    store = TrajectoryStore.load(trajectory_path)
    payload = build_payload(store, args.member, as_of=args.as_of, detection=cfg.detection)
    client = MockLLMClient() if args.mock else HttpLLMClient()
    print(client.generate(payload))
    return 0


def cmd_mf(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    tx = ingest_transactions(_require(cfg.data.transactions, "data.transactions"))
    offers = ingest_offers(_require(cfg.data.offers, "data.offers"))
    matrix, members, categories = build_count_matrix(tx.records)
    U, V = als_factorize(matrix, cfg.als_config())
    offer_ids, scores = member_offer_scores(U, V, categories, offers.records)
    with OutputWriter(cfg.run.out_dir) as out:
        write_mf_scores(out.register("mf_scores.csv"), scores.ravel(), members, offer_ids)
        manifest = build_manifest(
            cfg.run.seed, cfg.to_dict(),
            files_fingerprint([cfg.data.transactions, cfg.data.offers]),
            {"ingest_transactions": len(tx.issues), "ingest_offers": len(offers.issues)},
            command="mf",
            matrix_shape=list(matrix.shape),
            reconstruction_error=reconstruction_error(matrix, U, V),
        )
        write_manifest(out.register("manifest.json"), manifest)
    print(f"factorized {matrix.shape[0]}x{matrix.shape[1]} counts at rank {cfg.mf.rank}; "
          f"{scores.size} scores -> {cfg.run.out_dir}")
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="override run.seed")
    sp.add_argument("--rounds", type=int, help="override run.rounds")
    sp.add_argument("--policy", help="override policy (camb|linucb|ts|egreedy|random)")
    sp.add_argument("--out", help="override run.out_dir")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse_args
    call fills a new namespace."""
    parser = argparse.ArgumentParser(prog="offerbandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("ingest", cmd_ingest, "validate input files and write skip reports"),
        ("backfit", cmd_backfit, "train per-category models from logged impressions"),
        ("replay", cmd_replay, "evaluate a policy against logged impressions"),
        ("simulate", cmd_simulate, "evaluate a policy in the synthetic world"),
        ("mf", cmd_mf, "factorize purchase counts into member/offer affinity scores"),
    ):
        sp = sub.add_parser(name, help=extra)
        _add_common(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("report", help="average metrics across run directories")
    sp.add_argument("run_dirs", nargs="+", help="run output directories")
    sp.add_argument("--out", required=True, help="merged output directory")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("explain", help="render a member persona from weight trajectories")
    _add_common(sp)
    sp.add_argument("--member", required=True, help="member id to explain")
    sp.add_argument("--mock", action="store_true", help="use the offline rule-based client")
    sp.add_argument("--trajectory", help="trajectory file (default: <out_dir>/trajectory.jsonl)")
    sp.add_argument("--as-of", type=int, dest="as_of", help="only use snapshots up to this t")
    sp.set_defaults(func=cmd_explain)
    return parser


def _fail(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _fail("config", str(exc))
        return 2
    except IngestError as exc:
        _fail("ingest", str(exc))
        return 3
    except LLMTransportError as exc:
        _fail("llm-transport", str(exc))
        return 4
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        _fail("runtime", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
