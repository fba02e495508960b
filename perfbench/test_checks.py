"""Each benchmark check fails on a deliberately corrupted copy of real output.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q

A module fixture runs one small pipeline pass through offerbandit's CLI;
every test copies its outputs, breaks one thing and expects check_all to
report it. The first test shows the untouched outputs pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import Expectations, check_all, check_identical  # noqa: E402
from gen import LogShape, Workload, WorldShape, write_log  # noqa: E402
from pipeline import Pipeline, digest  # noqa: E402

SMALL = Workload(
    "small",
    LogShape(members=40, categories=4, brands=4, events_per_member=20, offers=30, max_cats=3,
             min_days=10, max_days=30, impressions=400, min_shown=2, max_shown=5, eval_share=0.2),
    WorldShape(n_categories=5, n_members=4, offers_per_round=5, max_categories_per_offer=3,
               world_seed=100, rounds=600),
    explain_members=2,
)


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    inputs = write_log(SMALL.log, 3, work / "inputs")
    pipeline = Pipeline(SMALL, 3, inputs, work)
    result = pipeline.run_pass()
    assert not result.failed
    exp = Expectations(
        inputs=inputs, rounds=SMALL.world.rounds, offers_per_round=SMALL.world.offers_per_round,
        camb_margin=0.2,
        explain={m: result.stdout[f"explain_{m}"] for m in pipeline.explain_members},
    )
    return pipeline, result, exp


@pytest.fixture
def copy(real, tmp_path):
    pipeline, _, exp = real
    out = tmp_path / "out"
    shutil.copytree(pipeline.out, out)
    return out, exp


def _edit_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _fails(out: Path, exp: Expectations, needle: str) -> None:
    errors = check_all(out, exp)
    assert any(needle in e for e in errors), errors


def test_real_outputs_pass(copy):
    out, exp = copy
    assert check_all(out, exp) == []


def test_dropped_replay_round(copy):
    out, exp = copy
    _edit_jsonl(out / "replay" / "rounds.jsonl", lambda rows: rows[:-1])
    _fails(out, exp, "rounds logged")


def test_dropped_simulate_round(copy):
    out, exp = copy
    _edit_jsonl(out / "simulate_ts" / "rounds.jsonl", lambda rows: rows[1:])
    _fails(out, exp, "simulate ts: 599 rounds logged")


def test_foreign_replay_candidate(copy):
    out, exp = copy

    def edit(rows):
        rows[3]["ranked"][-1][0] = "o999"
        return rows

    _edit_jsonl(out / "replay" / "rounds.jsonl", edit)
    _fails(out, exp, "not a permutation of the candidates")


@pytest.mark.parametrize("run", ["replay", "simulate_linucb"])
def test_swapped_chosen(copy, run):
    out, exp = copy

    def edit(rows):
        rows[5]["chosen"] = rows[5]["ranked"][1][0]
        return rows

    _edit_jsonl(out / run / "rounds.jsonl", edit)
    _fails(out, exp, "is not the first ranked")


@pytest.mark.parametrize("run, policy", [("replay", "camb"), ("simulate_camb", "camb"),
                                         ("simulate_ts", "ts"), ("simulate_linucb", "linucb")])
def test_order_against_scores(copy, run, policy):
    out, exp = copy

    def edit(rows):
        r = rows[7]
        r["ranked"][0], r["ranked"][1] = r["ranked"][1], r["ranked"][0]
        r["chosen"] = r["ranked"][0][0]
        return rows

    _edit_jsonl(out / run / "rounds.jsonl", edit)
    _fails(out, exp, f"{policy} order does not follow its scores")


def test_egreedy_explores_too_often(copy):
    out, exp = copy

    def edit(rows):
        for r in rows:
            r["ranked"] = sorted(r["ranked"], key=lambda e: (e[1], e[0]))
            r["chosen"] = r["ranked"][0][0]
        return rows

    _edit_jsonl(out / "simulate_egreedy" / "rounds.jsonl", edit)
    _fails(out, exp, "rounds off the greedy order")


@pytest.mark.parametrize("field, value", [("y", 2), ("chosen_true_p", 1.5), ("oracle_p", 0.0)])
def test_bad_synthetic_reward(copy, field, value):
    out, exp = copy

    def edit(rows):
        rows[10][field] = value
        return rows

    _edit_jsonl(out / "simulate_egreedy" / "rounds.jsonl", edit)
    _fails(out, exp, "round 11:")


@pytest.mark.parametrize("run", ["replay", "simulate_camb"])
def test_summary_disagrees_with_rounds(copy, run):
    out, exp = copy
    _edit_json(out / run / "summary.json", lambda s: s.update(cumulative_reward=s["cumulative_reward"] + 1))
    _fails(out, exp, "summary.json cumulative_reward")


@pytest.mark.parametrize("run", ["replay", "simulate_random"])
def test_metrics_csv_last_row(copy, run):
    out, exp = copy
    path = out / run / "metrics.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _fails(out, exp, "metrics.csv last row cum_reward")


def test_random_finds_the_oracle_too_often(copy):
    out, exp = copy

    def edit(rows):
        for r in rows:
            r["ranked"].sort(key=lambda e: (e[0] != r["oracle_best"], e[0]))
            r["chosen"] = r["oracle_best"]
            r["chosen_true_p"] = r["oracle_p"]
        return rows

    _edit_jsonl(out / "simulate_random" / "rounds.jsonl", edit)
    _fails(out, exp, "random: optimal action in")


def test_camb_no_better_than_random(copy):
    out, exp = copy
    random_regret = json.loads((out / "simulate_random" / "summary.json").read_text())["regret"]
    _edit_json(out / "simulate_camb" / "summary.json", lambda s: s.update(regret=random_regret))
    _fails(out, exp, "camb regret")


def test_replay_match_flag(copy):
    out, exp = copy

    def edit(rows):
        rows[2]["matched"] = not rows[2]["matched"]
        return rows

    _edit_jsonl(out / "replay" / "rounds.jsonl", edit)
    _fails(out, exp, "matched=")


def test_replay_score_off_reference(copy):
    out, exp = copy

    def edit(rows):
        rows[4]["ranked"][0][1] += 1e-5
        return rows

    _edit_jsonl(out / "replay" / "rounds.jsonl", edit)
    _fails(out, exp, "round 5: score of")


def test_trajectory_weight_off_reference(copy):
    out, exp = copy

    def edit(rows):
        rows[3]["weights"][2] += 1e-5
        return rows

    _edit_jsonl(out / "replay" / "trajectory.jsonl", edit)
    _fails(out, exp, "weights differ from the reference")


def test_trajectory_final_count(copy):
    out, exp = copy

    def edit(rows):
        rows[-1]["update_count"] += 1
        return rows

    _edit_jsonl(out / "replay" / "trajectory.jsonl", edit)
    _fails(out, exp, "final update counts differ")


def test_backfit_weight_off_reference(copy):
    out, exp = copy

    def edit(rows):
        rows[1]["weights"][4] -= 1e-5
        return rows

    _edit_jsonl(out / "backfit" / "checkpoint.jsonl", edit)
    _fails(out, exp, "checkpoint weights differ")


def test_backfit_update_count(copy):
    out, exp = copy

    def edit(rows):
        rows[2]["update_count"] += 1
        return rows

    _edit_jsonl(out / "backfit" / "checkpoint.jsonl", edit)
    _fails(out, exp, "update_count")


@pytest.mark.parametrize("field, delta", [("n_events", 1), ("holdout_log_loss", 1e-5)])
def test_backfit_report(copy, field, delta):
    out, exp = copy
    _edit_json(out / "backfit" / "backfit_report.json", lambda r: r.update({field: r[field] + delta}))
    _fails(out, exp, field)


def test_explain_top_drivers(copy):
    out, exp = copy
    member, text = next(iter(exp.explain.items()))
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("Top drivers: "))
    names = lines[i][len("Top drivers: "):-1].split(", ")
    lines[i] = "Top drivers: " + ", ".join(reversed(names)) + "."
    exp = dataclasses.replace(exp, explain={member: "\n".join(lines)})
    _fails(out, exp, f"explain {member}")


def test_ingest_counts(copy):
    out, exp = copy
    _edit_json(out / "ingest" / "manifest.json", lambda m: m["counts"].update(offers=m["counts"]["offers"] - 1))
    _fails(out, exp, "ingest counted")


def test_mf_missing_score(copy):
    out, exp = copy
    path = out / "mf" / "mf_scores.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    _fails(out, exp, "mf_scores.csv has")


def test_identical_outputs(real, copy):
    pipeline, result, _ = real
    out, _ = copy
    (out / "replay" / "summary.json").write_text("{}\n", encoding="utf-8")
    before = digest(pipeline.out, result.stdout)
    assert check_identical(before, digest(out, result.stdout), "rerun")
    assert check_identical(before, before, "rerun") == []
