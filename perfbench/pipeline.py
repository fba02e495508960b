"""One pass of the offer pipeline through offerbandit's CLI entry point.

A pass re-imports the package, ingests the workload's files, then runs
mf, backfit on the history, replay (camb) on the evaluation part from the
backfit checkpoint, simulate once per policy, and explain --mock for the
chosen members. Every step is one call of offerbandit.cli.main in this
process, with its standard output captured.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen import Workload

POLICIES = ("camb", "linucb", "ts", "egreedy", "random")

# The learner and exploration settings of configs/simulate_camb.json; the
# replay, backfit and every simulate run use them.
LEARNER = {"learning_rate": 0.05, "positive_boost": 2.0, "mf_bias_coeff": 1.0}
EXPLORATION = {"kappa_initial": 10.0, "kappa_schedule": "linear_growth", "kappa_growth_rate": 0.01}


@dataclass
class PassResult:
    """Wall times and outputs of one pass."""

    setup_s: float
    seconds: dict[str, float] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    total_s: float = 0.0


class Pipeline:
    """Configs and output layout for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, inputs: dict[str, Path], work: Path):
        self.workload = workload
        self.out = work / "out"
        self.explain_members: list[str] | None = None
        w = workload.world
        base = {
            "learner": LEARNER,
            "exploration": EXPLORATION,
            "synthetic": {
                "n_categories": w.n_categories,
                "n_members": w.n_members,
                "offers_per_round": w.offers_per_round,
                "max_categories_per_offer": w.max_categories_per_offer,
                "world_seed": w.world_seed,
            },
        }
        data = {"transactions": str(inputs["transactions"]), "offers": str(inputs["offers"])}
        self.configs = {}
        for name, imps, run in (
            ("full", "impressions", {}),
            ("history", "history", {}),
            ("eval", "eval", {"backfit_checkpoint": str(self.out / "backfit" / "checkpoint.jsonl")}),
        ):
            path = work / f"{name}.json"
            cfg = dict(base, data=dict(data, impressions=str(inputs[imps])), run=dict(run, seed=seed))
            path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8")
            self.configs[name] = str(path)

    def steps(self) -> list[tuple[str, list[str]]]:
        """(step name, CLI argv) in pass order, after ingest."""
        out, cfg = self.out, self.configs
        steps = [
            ("mf", ["mf", "--config", cfg["full"], "--out", str(out / "mf")]),
            ("backfit", ["backfit", "--config", cfg["history"], "--out", str(out / "backfit")]),
            ("replay", ["replay", "--config", cfg["eval"], "--policy", "camb", "--out", str(out / "replay")]),
        ]
        for policy in POLICIES:
            steps.append((f"simulate_{policy}", [
                "simulate", "--config", cfg["full"], "--policy", policy,
                "--rounds", str(self.workload.world.rounds), "--out", str(out / f"simulate_{policy}"),
            ]))
        return steps

    def explain_steps(self) -> list[tuple[str, list[str]]]:
        trajectory = str(self.out / "replay" / "trajectory.jsonl")
        return [
            (f"explain_{m}", ["explain", "--mock", "--member", m, "--trajectory", trajectory])
            for m in self.explain_members or []
        ]

    def setup(self, result: PassResult, tracer=None):
        """Import the package afresh and ingest the workload's files; the
        wall time of both goes to result.setup_s. Returns the cli module."""
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        cli = fresh_import()
        if tracer is not None:
            tracer.install()
        self._step(cli, result, "ingest", ["ingest", "--config", self.configs["full"], "--out", str(self.out / "ingest")])
        result.setup_s = time.perf_counter() - t0
        return cli

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(setup_s=0.0)
        cli = self.setup(result, tracer)
        for name, argv in self.steps():
            self._step(cli, result, name, argv)
        if self.explain_members is None:
            self.explain_members = pick_explain_members(
                self.out / "replay" / "trajectory.jsonl", self.workload.explain_members
            )
        for name, argv in self.explain_steps():
            self._step(cli, result, name, argv)
        result.total_s = result.setup_s + sum(v for k, v in result.seconds.items() if k != "ingest")
        return result

    def _step(self, cli, result: PassResult, name: str, argv: list[str]) -> None:
        buf = io.StringIO()
        result.attempted += 1
        gc.collect()  # every step starts from the same heap, whatever ran before
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        result.seconds[name] = time.perf_counter() - t0
        result.stdout[name] = buf.getvalue()
        if code != 0:
            result.failed.append(f"{name} exited {code}")

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())



def digest(out: Path, stdout: dict[str, str]) -> dict[str, str]:
    """sha256 of every file under out and of each step's standard output."""
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    for name, text in sorted(stdout.items()):
        digests[f"stdout:{name}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def fresh_import():
    """Import offerbandit.cli afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "offerbandit" or n.startswith("offerbandit.")]:
        del sys.modules[name]
    return importlib.import_module("offerbandit.cli")


def pick_explain_members(trajectory: Path, k: int) -> list[str]:
    """The k members with the most snapshots in the trajectory, ties by id."""
    counts: dict[str, int] = {}
    with trajectory.open(encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            member = json.loads(line)["member_id"]
            counts[member] = counts.get(member, 0) + 1
    return sorted(counts, key=lambda m: (-counts[m], m))[:k]
