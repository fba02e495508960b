"""Output checks that hold for any correct implementation.

Each check reads the files a pass wrote (and the inputs it was given) and
returns a list of failure messages; an empty list is a pass. None of them
compares against stored bytes of an earlier version: they test documented
properties, recompute summaries from the round logs, and compare backfit
and replay against the independent reference learner in reference.py.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from pipeline import POLICIES

# Absolute tolerance for weights, scores and losses recomputed by the
# reference learner. Both sides do the same arithmetic in double
# precision, but in different orders (e.g. the seasonality moving average),
# so they agree to about 1e-13; 1e-7 leaves room for reordered sums and
# batched updates without letting a wrong step through.
REF_TOL = 1e-7
# Tolerance for summary values recomputed from rounds.jsonl.
SUM_TOL = 1e-9
# Binomial checks allow this many standard deviations (plus one count).
N_SIGMA = 4.0
# Replay rounds whose scores and trajectory weights are recomputed.
REPLAY_PREFIX = 60
EGREEDY_EPSILON = 0.1


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_metrics_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _order_by(ranked: list, column: int) -> list[str]:
    return [e[0] for e in sorted(ranked, key=lambda e: (-e[column], e[0]))]


# -- rounds.jsonl structure ------------------------------------------------

def check_rounds(rounds: list[dict], expected_candidates: list[list[str]]) -> list[str]:
    """Exactly one record per expected round, t = 1..n, each ranking a
    permutation of that round's candidates, chosen = first ranked."""
    errors = []
    if len(rounds) != len(expected_candidates):
        return [f"{len(rounds)} rounds logged, expected {len(expected_candidates)}"]
    for i, (r, cands) in enumerate(zip(rounds, expected_candidates), start=1):
        ids = [e[0] for e in r["ranked"]]
        if r["t"] != i:
            errors.append(f"round {i}: t={r['t']}")
        if sorted(ids) != sorted(cands) or len(set(ids)) != len(ids):
            errors.append(f"round {i}: ranked ids are not a permutation of the candidates")
        elif r["chosen"] != ids[0]:
            errors.append(f"round {i}: chosen {r['chosen']} is not the first ranked {ids[0]}")
    return errors[:10]


def check_synthetic_rounds(rounds: list[dict], n: int, k: int) -> list[str]:
    """Exactly n records, t = 1..n, each ranking k distinct offers that
    include the oracle's best, chosen = first ranked."""
    if len(rounds) != n:
        return [f"{len(rounds)} rounds logged, expected {n}"]
    errors = []
    for i, r in enumerate(rounds, start=1):
        ids = [e[0] for e in r["ranked"]]
        if r["t"] != i or len(ids) != k or len(set(ids)) != k or r.get("oracle_best") not in ids:
            errors.append(f"round {i}: t={r['t']}, {len(set(ids))} distinct of {k} offers, oracle {r.get('oracle_best')}")
        elif r["chosen"] != ids[0]:
            errors.append(f"round {i}: chosen {r['chosen']} is not the first ranked {ids[0]}")
    return errors[:10]


def check_order(rounds: list[dict], policy: str) -> list[str]:
    """Orders follow the sampled scores (camb, ts) or the point scores
    (linucb; egreedy on greedy rounds), ties broken by id. For egreedy the
    share of rounds off the greedy order must match epsilon times the chance
    that a uniform permutation differs from it."""
    errors = []
    if policy == "random":
        return []
    if policy == "egreedy":
        off = sum(1 for r in rounds if [e[0] for e in r["ranked"]] != _order_by(r["ranked"], 1))
        q = sum(EGREEDY_EPSILON * (1.0 - 1.0 / math.factorial(len(r["ranked"]))) for r in rounds) / len(rounds)
        n = len(rounds)
        if abs(off - n * q) > N_SIGMA * math.sqrt(n * q * (1 - q)) + 1:
            errors.append(f"egreedy: {off} of {n} rounds off the greedy order, expected about {n * q:.1f}")
        return errors
    column = 2 if policy in ("camb", "ts") else 1
    for r in rounds:
        if any(e[column] is None for e in r["ranked"]):
            errors.append(f"round {r['t']}: missing {'sampled' if column == 2 else 'point'} score")
        elif [e[0] for e in r["ranked"]] != _order_by(r["ranked"], column):
            errors.append(f"round {r['t']}: {policy} order does not follow its scores")
    return errors[:10]


def check_synthetic_rewards(rounds: list[dict]) -> list[str]:
    """Rewards are 0 or 1 and 0 < chosen_true_p <= oracle_p < 1; choosing
    the oracle's offer earns the oracle's probability."""
    errors = []
    for r in rounds:
        p, best = r["chosen_true_p"], r["oracle_p"]
        if r["y"] not in (0, 1):
            errors.append(f"round {r['t']}: reward {r['y']}")
        if p is None or best is None or not (0.0 < p <= best < 1.0):
            errors.append(f"round {r['t']}: chosen_true_p={p} oracle_p={best}")
        elif r["chosen"] == r["oracle_best"] and p != best:
            errors.append(f"round {r['t']}: chose the oracle offer but p {p} != {best}")
    return errors[:10]


# -- summary.json and metrics.csv ------------------------------------------

def check_summary(run_dir: Path, rounds: list[dict], synthetic: bool) -> list[str]:
    """summary.json and the last row of metrics.csv equal a recomputation
    from rounds.jsonl; metrics.csv has one row per round."""
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    rows = read_metrics_csv(run_dir / "metrics.csv")
    rewards = [r["y"] for r in rounds if r["y"] is not None]
    cum = sum(rewards)
    avg = cum / len(rewards) if rewards else None
    if synthetic:
        regret = sum(r["oracle_p"] - r["chosen_true_p"] for r in rounds)
        optimal = sum(r["chosen"] == r["oracle_best"] for r in rounds) / len(rounds)
        matched = None
    else:
        regret = optimal = None
        matched = sum(1 for r in rounds if r["matched"])
    expect = {
        "rounds": len(rounds), "cumulative_reward": cum, "final_avg_reward": avg,
        "regret": regret, "optimal_action_rate": optimal, "matched_rounds": matched,
    }
    errors = [
        f"summary.json {k}={summary.get(k)!r}, recomputed {v!r}"
        for k, v in expect.items() if not _close(summary.get(k), v, SUM_TOL)
    ]
    if len(rows) != len(rounds):
        errors.append(f"metrics.csv has {len(rows)} rows for {len(rounds)} rounds")
    elif rows:
        last = rows[-1]
        cells = {
            "round": len(rounds), "cum_reward": cum, "avg_reward": avg,
            "regret": regret, "optimal_rate": optimal,
        }
        for k, v in cells.items():
            got = float(last[k]) if last[k] != "" else None
            if not _close(got, v, SUM_TOL):
                errors.append(f"metrics.csv last row {k}={last[k]!r}, recomputed {v!r}")
    return errors


def check_random_rate(rounds: list[dict], k: int) -> list[str]:
    """Uniform ranking finds the oracle's offer about 1/k of the time."""
    n = len(rounds)
    hits = sum(r["chosen"] == r["oracle_best"] for r in rounds)
    p = 1.0 / k
    if abs(hits - n * p) > N_SIGMA * math.sqrt(n * p * (1 - p)) + 1:
        return [f"random: optimal action in {hits} of {n} rounds, expected about {n * p:.1f}"]
    return []


def check_camb_beats_random(camb: Path, random: Path, margin: float) -> list[str]:
    """camb ends with less regret than random, by the given share."""
    c = json.loads((camb / "summary.json").read_text(encoding="utf-8"))["regret"]
    r = json.loads((random / "summary.json").read_text(encoding="utf-8"))["regret"]
    if not c < (1.0 - margin) * r:
        return [f"camb regret {c:.2f} not below (1 - {margin}) x random regret {r:.2f}"]
    return []


# -- replay ----------------------------------------------------------------

def replay_candidates(offers: dict[str, ref.OfferRow], impressions: list[ref.ImpressionRow]) -> list[list[str]]:
    """Per replay round, the offers active that day (rounds without any
    active offer are skipped)."""
    out = []
    for imp in impressions:
        active = ref.active_offers(offers, imp.day)
        if active:
            out.append(active)
    return out


def check_replay_match(rounds: list[dict], impressions: list[ref.ImpressionRow], offers) -> list[str]:
    """matched says whether the chosen offer was shown; y is its logged clip
    on matched rounds and null otherwise."""
    errors = []
    rounds_imps = [imp for imp in impressions if ref.active_offers(offers, imp.day)]
    for r, imp in zip(rounds, rounds_imps):
        if r["member_id"] != imp.member:
            errors.append(f"round {r['t']}: member {r['member_id']}, log has {imp.member}")
            continue
        matched = r["chosen"] in imp.shown
        y = int(r["chosen"] in imp.clipped) if matched else None
        if r["matched"] is not matched or r["y"] != y:
            errors.append(f"round {r['t']}: matched={r['matched']} y={r['y']}, log gives {matched} {y}")
    return errors[:10]


def check_replay_reference(run_dir: Path, rounds: list[dict], expected: ref.ReplayResult) -> list[str]:
    """Deterministic scores and trajectory weights match the reference for
    the prefix rounds; the final update_count matches for every pair."""
    errors = []
    for r, er in zip(rounds, expected.rounds):
        if not er.scores:
            break
        for oid, score, _ in r["ranked"]:
            if oid not in er.scores or not _close(score, er.scores[oid], REF_TOL):
                errors.append(f"round {r['t']}: score of {oid} {score!r}, reference {er.scores.get(oid)!r}")
    traj = read_jsonl(run_dir / "trajectory.jsonl")[1:]
    by_t = {row["t"]: row for row in traj}
    for t, member, category, weights, count in expected.snapshots:
        row = by_t.get(t)
        if row is None or (row["member_id"], row["category_id"], row["update_count"]) != (member, category, count):
            errors.append(f"trajectory t={t}: expected {member}/{category} update {count}, got {row and [row['member_id'], row['category_id'], row['update_count']]}")
        elif any(not _close(a, b, REF_TOL) for a, b in zip(row["weights"], weights)):
            errors.append(f"trajectory t={t}: weights differ from the reference")
    last: dict[tuple[str, str], int] = {}
    for row in traj:
        last[(row["member_id"], row["category_id"])] = row["update_count"]
    want = expected.updated_pairs()
    if last != want:
        diff = sorted(set(last.items()) ^ set(want.items()))[:5]
        errors.append(f"final update counts differ from the reference on {len(set(last.items()) ^ set(want.items()))} entries, e.g. {diff}")
    return errors[:10]


# -- backfit ---------------------------------------------------------------

def check_backfit(run_dir: Path, expected: ref.BackfitResult) -> list[str]:
    """n_events and every pair's update_count match the reference exactly;
    checkpoint weights and the holdout log losses within REF_TOL."""
    errors = []
    report = json.loads((run_dir / "backfit_report.json").read_text(encoding="utf-8"))
    if report["n_events"] != expected.n_events:
        errors.append(f"n_events {report['n_events']}, reference {expected.n_events}")
    if report["holdout_size"] != expected.holdout_size:
        errors.append(f"holdout_size {report['holdout_size']}, reference {expected.holdout_size}")
    for key in ("holdout_log_loss", "prior_log_loss"):
        if not _close(report[key], getattr(expected, key), REF_TOL):
            errors.append(f"{key} {report[key]!r}, reference {getattr(expected, key)!r}")
    rows = read_jsonl(run_dir / "checkpoint.jsonl")[1:]
    got = {(r["member_id"], r["category_id"]): r for r in rows}
    if set(got) != set(expected.models.w):
        errors.append(f"checkpoint has {len(got)} pairs, reference {len(expected.models.w)}")
    for key, w in expected.models.w.items():
        row = got.get(key)
        if row is None:
            continue
        if row["update_count"] != expected.models.n[key]:
            errors.append(f"{key}: update_count {row['update_count']}, reference {expected.models.n[key]}")
        elif any(not _close(a, b, REF_TOL) for a, b in zip(row["weights"], w)) or len(row["weights"]) != len(w):
            errors.append(f"{key}: checkpoint weights differ from the reference")
    return errors[:10]


# -- explain, ingest, mf ---------------------------------------------------

def expected_top_drivers(trajectory: Path, member: str) -> list[str]:
    """The three non-bias features with the largest magnitude of the
    member's mean latest weight across categories, ties by name."""
    latest: dict[str, list[float]] = {}
    for row in read_jsonl(trajectory)[1:]:
        if row["member_id"] == member:
            latest[row["category_id"]] = row["weights"]
    names = ref.FEATURES
    means = {n: sum(w[j] for w in latest.values()) / len(latest) for j, n in enumerate(names)}
    return sorted((n for n in names if n != "bias"), key=lambda n: (-abs(means[n]), n))[:3]


def check_explain(trajectory: Path, member: str, text: str) -> list[str]:
    lines = text.strip().splitlines()
    want = "Top drivers: " + ", ".join(expected_top_drivers(trajectory, member)) + "."
    errors = []
    if not lines or lines[0] != f"Persona for member {member}:":
        errors.append(f"explain {member}: persona header missing")
    drivers = [line for line in lines if line.startswith("Top drivers: ")]
    if drivers != [want]:
        errors.append(f"explain {member}: {drivers!r}, expected {want!r}")
    return errors


def check_ingest(run_dir: Path, inputs: dict[str, Path]) -> list[str]:
    """The generated inputs are well formed: nothing is skipped and every
    record is counted."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    lines = {k: sum(1 for _ in inputs[k].open(encoding="utf-8")) for k in ("transactions", "offers", "impressions")}
    lines["transactions"] -= 1  # header
    errors = [
        f"ingest counted {manifest['counts'].get(k)} {k}, input has {n}"
        for k, n in lines.items() if manifest["counts"].get(k) != n
    ]
    skipped = {k: v for k, v in manifest["skip_tallies"].items() if v}
    if skipped:
        errors.append(f"ingest skipped records of well-formed inputs: {skipped}")
    return errors


def check_mf(run_dir: Path, inputs: dict[str, Path]) -> list[str]:
    """One finite score per (member with purchases, offer with a purchased
    category)."""
    with inputs["transactions"].open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    members = {r[0] for r in rows}
    categories = {r[1] for r in rows}
    offers = ref.read_offers(inputs["offers"])
    n_offers = sum(1 for o in offers.values() if set(o.categories) & categories)
    with (run_dir / "mf_scores.csv").open(newline="", encoding="utf-8") as fh:
        scores = list(csv.reader(fh))
    errors = []
    if scores[0] != ["member_id", "offer_id", "score"]:
        errors.append(f"mf_scores.csv header {scores[0]}")
    if len(scores) - 1 != len(members) * n_offers:
        errors.append(f"mf_scores.csv has {len(scores) - 1} scores, expected {len(members) * n_offers}")
    if any(not math.isfinite(float(r[2])) for r in scores[1:]):
        errors.append("mf_scores.csv has non-finite scores")
    return errors


def check_identical(a: dict[str, str], b: dict[str, str], what: str) -> list[str]:
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{what}: {len(diff)} outputs differ, e.g. {diff[:5]}"] if diff else []


# -- everything ------------------------------------------------------------

@dataclass
class Expectations:
    """What the pass was asked to do."""

    inputs: dict[str, Path]
    rounds: int
    offers_per_round: int
    camb_margin: float | None
    explain: dict[str, str]


def check_all(out: Path, exp: Expectations) -> list[str]:
    """Every check on one pass's outputs; returns the failures."""
    errors: list[str] = []
    errors += check_ingest(out / "ingest", exp.inputs)
    errors += check_mf(out / "mf", exp.inputs)
    settings = ref.Settings()
    hist = ref.PurchaseHistory(exp.inputs["transactions"], settings)
    offers = ref.read_offers(exp.inputs["offers"])
    history = ref.read_impressions(exp.inputs["history"])
    evaluation = ref.read_impressions(exp.inputs["eval"])
    errors += check_backfit(out / "backfit", ref.backfit(hist, offers, history, settings))

    replay_dir = out / "replay"
    rounds = read_jsonl(replay_dir / "rounds.jsonl")
    errors += check_rounds(rounds, replay_candidates(offers, evaluation))
    errors += check_order(rounds, "camb")
    errors += check_replay_match(rounds, evaluation, offers)
    errors += check_summary(replay_dir, rounds, synthetic=False)
    start = ref.models_from_checkpoint(out / "backfit" / "checkpoint.jsonl", settings)
    errors += check_replay_reference(replay_dir, rounds, ref.replay(hist, offers, evaluation, start, settings, REPLAY_PREFIX))

    for policy in POLICIES:
        run = out / f"simulate_{policy}"
        rounds = read_jsonl(run / "rounds.jsonl")
        found = check_synthetic_rounds(rounds, exp.rounds, exp.offers_per_round)
        if not found:
            found = check_order(rounds, policy) + check_synthetic_rewards(rounds) + check_summary(run, rounds, True)
            if policy == "random":
                found += check_random_rate(rounds, exp.offers_per_round)
        errors += [f"simulate {policy}: {e}" for e in found]
    if exp.camb_margin is not None:
        errors += check_camb_beats_random(out / "simulate_camb", out / "simulate_random", exp.camb_margin)

    for member, text in exp.explain.items():
        errors += check_explain(replay_dir / "trajectory.jsonl", member, text)
    return errors
