#!/usr/bin/env python3
"""Compare policies on the synthetic world across seeds.

Runs every requested policy against the same set of seeded worlds and
reports mean final regret, optimal-action rate and cumulative reward.
Results go to stdout as a table and to --out as experiment.csv.

    python3 scripts/run_experiment.py --rounds 3000 --seeds 10 --out runs/compare

A bad argument exits 2 with a one-line error on stderr.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from offerbandit.bandit import LearnerConfig
from offerbandit.baselines import POLICY_NAMES, make_policy
from offerbandit.errors import ConfigError
from offerbandit.exploration import ExplorationConfig
from offerbandit.harness import SyntheticWorld, SyntheticWorldConfig, run_synthetic


class Parser(argparse.ArgumentParser):
    """Reports a bad argument in one line, without the usage."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def at_least_1(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def run_one(policy_name: str, seed: int, rounds: int, learner, exploration):
    world = SyntheticWorld(SyntheticWorldConfig(seed=100 + seed))
    policy = make_policy(policy_name, learner, exploration)
    result = run_synthetic(world, policy, rounds=rounds, seed=seed)
    s = result.summary
    return {
        "policy": policy_name,
        "seed": seed,
        "regret": s.regret,
        "optimal_rate": s.optimal_action_rate,
        "reward": s.cumulative_reward,
    }


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--rounds", type=at_least_1, default=3000)
    parser.add_argument("--seeds", type=at_least_1, default=10, help="number of seeds (0..n-1)")
    parser.add_argument("--policies", nargs="+", choices=POLICY_NAMES, default=list(POLICY_NAMES))
    parser.add_argument("--kappa", type=float, default=10.0)
    parser.add_argument("--kappa-growth", type=float, default=0.01)
    parser.add_argument("--out", default="runs/experiment")
    args = parser.parse_args()

    learner = LearnerConfig()
    try:
        exploration = ExplorationConfig(
            kappa_initial=args.kappa,
            kappa_schedule="linear_growth" if args.kappa_growth > 0 else "constant",
            kappa_growth_rate=args.kappa_growth,
        )
    except ConfigError as exc:
        parser.error(str(exc))

    rows = []
    for policy_name in args.policies:
        for seed in range(args.seeds):
            row = run_one(policy_name, seed, args.rounds, learner, exploration)
            rows.append(row)
            print(f"{policy_name} seed {seed}: regret {row['regret']:.1f}, "
                  f"optimal rate {row['optimal_rate']:.3f}", flush=True)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "experiment.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"\n{'policy':<10}{'regret':>12}{'optimal':>10}{'reward':>10}   ({args.seeds} seeds, {args.rounds} rounds)")
    for policy_name in args.policies:
        sub = [r for r in rows if r["policy"] == policy_name]
        regret = np.mean([r["regret"] for r in sub])
        optimal = np.mean([r["optimal_rate"] for r in sub])
        reward = np.mean([r["reward"] for r in sub])
        print(f"{policy_name:<10}{regret:>12.1f}{optimal:>10.3f}{reward:>10.1f}")
    print(f"\nwrote {out_dir / 'experiment.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
