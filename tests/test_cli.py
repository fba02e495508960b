import dataclasses
import json
from pathlib import Path

import pytest

from offerbandit.cli import OutputWriter, main
from offerbandit.config import RunConfig
from offerbandit.data import ingest_mf_scores
from offerbandit.datagen import generate_dataset
from offerbandit.errors import ConfigError
from offerbandit.harness import config_hash


@pytest.fixture(scope="module")
def demo_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_data")
    return generate_dataset(out, seed=0, n_members=6, n_categories=4, n_brands=5,
                            n_offers=12, n_impressions=80)


def write_config(path, **sections):
    Path(path).write_text(json.dumps(sections, indent=2), encoding="utf-8")
    return str(path)


def data_section(paths, **extra):
    section = {
        "transactions": str(paths["transactions"]),
        "offers": str(paths["offers"]),
        "impressions": str(paths["impressions"]),
    }
    section.update(extra)
    return section


def stderr_error(capsys):
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    return json.loads(err_lines[-1])


RUN_FILES = ("rounds.jsonl", "metrics.csv", "summary.json", "trajectory.jsonl", "manifest.json")


def set_cell(csv_text, line, column, value):
    """The CSV text with the named column of its line (1-based, header
    included) set to value."""
    rows = [row.split(",") for row in csv_text.splitlines()]
    rows[line - 1][rows[0].index(column)] = value
    return "\n".join(",".join(row) for row in rows) + "\n"


class TestSimulate:
    def test_writes_complete_run_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "cfg.json",
            policy="camb",
            run={"rounds": 40, "seed": 3, "out_dir": str(out)},
            synthetic={"n_members": 2},
        )
        assert main(["simulate", "--config", cfg]) == 0
        for name in RUN_FILES:
            assert (out / name).is_file()
        assert len((out / "rounds.jsonl").read_text().splitlines()) == 40
        assert len((out / "metrics.csv").read_text().splitlines()) == 41  # header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 40
        assert summary["estimator"] == "synthetic-oracle"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["policy"] == "camb"
        assert manifest["seed"] == 3
        assert "simulated 40 rounds" in capsys.readouterr().out

    @pytest.mark.parametrize("rounds", [30, 1100])  # 1100 crosses a chunk boundary
    def test_rerun_reproduces_run_files_byte_for_byte(self, tmp_path, rounds):
        def run(out):
            cfg = write_config(
                tmp_path / f"{out.name}.json",
                policy="camb",
                run={"rounds": rounds, "seed": 5, "out_dir": str(out)},
            )
            assert main(["simulate", "--config", cfg]) == 0

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(out_a)
        run(out_b)
        # Everything except the manifest is out_dir independent; the
        # manifest hashes the whole config, which includes out_dir.
        for name in ("rounds.jsonl", "metrics.csv", "summary.json", "trajectory.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_flag_overrides_win_over_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "cfg.json",
            policy="camb",
            run={"rounds": 50, "seed": 1, "out_dir": str(tmp_path / "ignored")},
        )
        assert main([
            "simulate", "--config", cfg, "--rounds", "10", "--policy", "random",
            "--seed", "9", "--out", str(out),
        ]) == 0
        assert len((out / "rounds.jsonl").read_text().splitlines()) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["policy"] == "random"
        assert manifest["seed"] == 9
        assert not (tmp_path / "ignored").exists()

    def test_defaults_need_no_config_file(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--rounds", "5", "--out", str(out)]) == 0
        assert (out / "summary.json").is_file()

    def test_different_seeds_differ(self, tmp_path):
        for seed in (1, 2):
            assert main(["simulate", "--rounds", "25", "--seed", str(seed),
                         "--out", str(tmp_path / f"s{seed}")]) == 0
        assert (tmp_path / "s1" / "rounds.jsonl").read_bytes() != \
            (tmp_path / "s2" / "rounds.jsonl").read_bytes()

    def test_unknown_config_key_fails_with_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", learner={"lr": 0.1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "learner.lr" in error["message"]

    @pytest.mark.parametrize("content", [b'{"run": {"seed": 1\xff}}', b"[" * 100_000], ids=["undecodable", "too-deep"])
    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert str(cfg) in error["message"]

    def test_unknown_policy_fails_with_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--policy", "ucb1", "--out", str(tmp_path / "run")]) == 2
        assert "ucb1" in stderr_error(capsys)["message"]

    def test_failed_run_removes_partial_outputs(self, tmp_path, capsys):
        # A directory squatting on trajectory.jsonl makes the final save
        # step fail; earlier outputs must be cleaned away again.
        out = tmp_path / "run"
        (out / "trajectory.jsonl").mkdir(parents=True)
        assert main(["simulate", "--rounds", "5", "--out", str(out)]) == 1
        assert stderr_error(capsys)["error"] == "runtime"
        for name in ("rounds.jsonl", "metrics.csv", "summary.json", "manifest.json"):
            assert not (out / name).exists()


class TestIngest:
    def test_writes_validation_reports_and_manifest(self, demo_data, tmp_path, capsys):
        out = tmp_path / "ingested"
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data),
            run={"out_dir": str(out)},
        )
        assert main(["ingest", "--config", cfg]) == 0
        for name in ("transactions", "offers", "impressions", "impression_orphans"):
            assert (out / f"validation_{name}.jsonl").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["counts"]["transactions"] > 0
        assert manifest["skip_tallies"]["ingest_transactions"] == 0
        assert "ingested" in capsys.readouterr().out

    def test_corrupt_rows_are_reported_not_fatal(self, demo_data, tmp_path):
        bad_tx = tmp_path / "transactions.csv"
        content = Path(demo_data["transactions"]).read_text(encoding="utf-8")
        bad_tx.write_text(content + "m9,catX,brandX,not-a-date,1\n", encoding="utf-8")
        out = tmp_path / "ingested"
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data, transactions=str(bad_tx)),
            run={"out_dir": str(out)},
        )
        assert main(["ingest", "--config", cfg]) == 0
        report = (out / "validation_transactions.jsonl").read_text().splitlines()
        assert len(report) == 1
        issue = json.loads(report[0])
        assert "not-a-date" in issue["reason"] or "date" in issue["reason"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skip_tallies"]["ingest_transactions"] == 1

    def test_orphans_are_named_by_their_record_in_the_file(self, demo_data, tmp_path):
        # Line 2 sorts before line 1, and both show an offer outside the
        # catalog: each orphan names its own line, listed in file order.
        known = json.loads(Path(demo_data["offers"]).read_text(encoding="utf-8").splitlines()[0])["offer_id"]
        lines = ["not json"] + [json.dumps(obj) for obj in (
            {"timestamp": "2024-07-02T09:00:00", "member_id": "m000", "offers_shown": [known, "o_gone"]},
            {"timestamp": "2024-07-01T09:00:00", "member_id": "m000", "offers_shown": ["o_missing", known]},
        )]
        impressions = tmp_path / "impressions.jsonl"
        impressions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "ingested"
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data, impressions=str(impressions)),
            run={"out_dir": str(out)},
        )
        assert main(["ingest", "--config", cfg]) == 0

        def report(name):
            return [json.loads(line) for line in (out / f"validation_{name}.jsonl").read_text().splitlines()]

        assert [r["record_index"] for r in report("impressions")] == [0]
        assert report("impression_orphans") == [
            {"record_index": 1, "reason": "unknown offer o_gone in impression"},
            {"record_index": 2, "reason": "unknown offer o_missing in impression"},
        ]

    def test_missing_input_file_exits_3(self, demo_data, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data, transactions=str(tmp_path / "nope.csv")),
            run={"out_dir": str(tmp_path / "out")},
        )
        assert main(["ingest", "--config", cfg]) == 3
        assert stderr_error(capsys)["error"] == "ingest"

    def test_missing_data_config_exits_2(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "out")]) == 2
        assert "data.transactions" in stderr_error(capsys)["message"]


class TestBackfitAndReplay:
    @pytest.fixture()
    def backfit_dir(self, demo_data, tmp_path):
        out = tmp_path / "backfit"
        cfg = write_config(
            tmp_path / "backfit.json",
            data=data_section(demo_data),
            run={"out_dir": str(out)},
        )
        assert main(["backfit", "--config", cfg]) == 0
        return out

    def test_backfit_writes_checkpoint_and_report(self, backfit_dir):
        assert (backfit_dir / "checkpoint.jsonl").is_file()
        report = json.loads((backfit_dir / "backfit_report.json").read_text())
        assert report["n_events"] > 0
        assert report["empty"] is False
        assert report["holdout_size"] >= 1
        assert report["holdout_log_loss"] > 0.0
        assert report["base_rate_log_loss"] > 0.0
        manifest = json.loads((backfit_dir / "manifest.json").read_text())
        assert manifest["n_models"] > 0

    def test_replay_writes_biased_estimator_outputs(self, demo_data, tmp_path, capsys):
        out = tmp_path / "replay"
        cfg = write_config(
            tmp_path / "replay.json",
            policy="camb",
            data=data_section(demo_data),
            run={"seed": 2, "out_dir": str(out)},
        )
        assert main(["replay", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] > 0
        assert summary["estimator"].startswith("replay-match (biased")
        assert summary["regret"] is None
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "replay"
        assert "replayed" in capsys.readouterr().out

    def test_replay_can_start_from_backfit_checkpoint(self, demo_data, backfit_dir, tmp_path):
        out = tmp_path / "replay_warm"
        cfg = write_config(
            tmp_path / "replay_warm.json",
            data=data_section(demo_data),
            run={
                "seed": 2,
                "out_dir": str(out),
                "backfit_checkpoint": str(backfit_dir / "checkpoint.jsonl"),
            },
        )
        assert main(["replay", "--config", cfg]) == 0
        assert json.loads((out / "summary.json").read_text())["rounds"] > 0

    def test_replay_from_corrupt_checkpoint_exits_2(self, demo_data, backfit_dir, tmp_path, capsys):
        lines = (backfit_dir / "checkpoint.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["weights"] = row["weights"][:3]
        bad = tmp_path / "bad_checkpoint.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "replay_bad.json",
            data=data_section(demo_data),
            run={"out_dir": str(tmp_path / "replay_bad"), "backfit_checkpoint": str(bad)},
        )
        assert main(["replay", "--config", cfg]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_checkpoint.jsonl line 2:" in error["message"]

    def test_replay_from_checkpoint_with_fractional_count_exits_2(self, demo_data, backfit_dir, tmp_path, capsys):
        lines = (backfit_dir / "checkpoint.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["update_count"] = 2.7
        bad = tmp_path / "bad_checkpoint.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "replay_bad.json",
            data=data_section(demo_data),
            run={"out_dir": str(tmp_path / "replay_bad"), "backfit_checkpoint": str(bad)},
        )
        assert main(["replay", "--config", cfg]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_checkpoint.jsonl line 2: update_count must be a non-negative integer" in error["message"]

    def test_replay_from_checkpoint_with_boolean_weight_exits_2(self, demo_data, backfit_dir, tmp_path, capsys):
        lines = (backfit_dir / "checkpoint.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row["weights"][4] = True
        bad = tmp_path / "bad_checkpoint.jsonl"
        bad.write_text("\n".join([lines[0], lines[1], json.dumps(row)] + lines[3:]) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "replay_bad.json",
            data=data_section(demo_data),
            run={"out_dir": str(tmp_path / "replay_bad"), "backfit_checkpoint": str(bad)},
        )
        assert main(["replay", "--config", cfg]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_checkpoint.jsonl line 3: weights must be 9 finite numbers" in error["message"]

    def test_replay_from_missing_checkpoint_exits_2_before_ingest(self, tmp_path, capsys):
        # The data files do not exist either: ingesting first would exit 3.
        missing = {name: str(tmp_path / f"{name}.missing") for name in ("transactions", "offers", "impressions")}
        cfg = write_config(
            tmp_path / "replay_nockpt.json",
            data=missing,
            run={"out_dir": str(tmp_path / "replay_nockpt"), "backfit_checkpoint": str(tmp_path / "nope.jsonl")},
        )
        assert main(["replay", "--config", cfg]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "run.backfit_checkpoint" in error["message"] and "nope.jsonl" in error["message"]
        assert not (tmp_path / "replay_nockpt").exists()

    @pytest.mark.parametrize("name", ["linucb", "ts", "egreedy", "random"])
    def test_replay_checkpoint_with_another_policy_exits_2_before_loading(self, tmp_path, capsys, name):
        # Neither the inputs nor a corrupt checkpoint are read: either would fail otherwise.
        missing = {key: str(tmp_path / f"{key}.missing") for key in ("transactions", "offers", "impressions")}
        bad = tmp_path / "bad_checkpoint.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "replay_other.json",
            data=missing,
            run={"out_dir": str(tmp_path / "replay_other"), "backfit_checkpoint": str(bad)},
        )
        assert main(["replay", "--config", cfg, "--policy", name]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "run.backfit_checkpoint" in error["message"] and repr(name) in error["message"]
        assert not (tmp_path / "replay_other").exists()

    def test_replay_rerun_is_byte_identical(self, demo_data, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.json",
                data=data_section(demo_data),
                run={"seed": 4, "out_dir": str(out)},
            )
            assert main(["replay", "--config", cfg]) == 0
            outs.append(out)
        for name in ("rounds.jsonl", "metrics.csv", "summary.json", "trajectory.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestNonFiniteConfig:
    @pytest.mark.parametrize("section, key", [
        ("data", "mf_default_score"),
        ("features", "cold_start_mpg"),
        ("learner", "learning_rate"),
        ("learner", "positive_boost"),
        ("exploration", "kappa_initial"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_replay_exits_2_naming_the_key(self, demo_data, tmp_path, capsys, section, key, value):
        sections = {"data": data_section(demo_data)}
        sections.setdefault(section, {})[key] = value
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", **sections)
        assert main(["replay", "--config", cfg, "--out", str(out)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert f"{section}.{key}=" in error["message"]
        assert not out.exists()

    def test_every_float_value_is_checked(self):
        for section in dataclasses.fields(RunConfig):
            values = getattr(RunConfig(), section.name)
            if not dataclasses.is_dataclass(values):
                continue
            for f in dataclasses.fields(values):
                value = getattr(values, f.name)
                if isinstance(value, float) or f.name == "prior_weights":
                    bad = [0.0] * 8 + [float("-inf")] if f.name == "prior_weights" else float("-inf")
                    with pytest.raises(ConfigError, match=f"{section.name}.{f.name}="):
                        RunConfig.from_dict({section.name: {f.name: bad}})


class TestHugeInputs:
    """Numbers past the input bound, which the scaler's sums would take
    past the float64 range, are malformed rows whose reason names the
    field; backfit and replay finish without a RuntimeWarning, which
    the suite turns into an error."""

    def huge_data(self, demo_data, tmp_path, name, field):
        """The demo inputs plus an mf score file, with the field past the
        bound on every mf row, or on the first offer; and the number of
        rows changed."""
        paths = {k: Path(v) for k, v in demo_data.items()}
        transactions = paths["transactions"].read_text(encoding="utf-8").splitlines()[1:]
        offers = [json.loads(line) for line in paths["offers"].read_text(encoding="utf-8").splitlines()]
        members = sorted({line.split(",")[0] for line in transactions})
        paths["mf_scores"] = tmp_path / "mf_scores.csv"
        score = "1e308" if field == "score" else "0.5"
        paths["mf_scores"].write_text(
            "member_id,offer_id,score\n" + "".join(f"{m},{o['offer_id']},{score}\n" for m in members for o in offers),
            encoding="utf-8",
        )
        if name == "offers":
            offers[0][field] = 10**308 if field == "num_items" else 1e308
            paths["offers"] = tmp_path / "offers.jsonl"
            paths["offers"].write_text("".join(json.dumps(o) + "\n" for o in offers), encoding="utf-8")
        return paths, len(members) * len(offers) if name == "mf_scores" else 1

    @pytest.mark.parametrize("name, field", [("mf_scores", "score"), ("offers", "discount_value"), ("offers", "num_items")])
    def test_rows_are_tallied_naming_the_field(self, demo_data, tmp_path, name, field):
        paths, changed = self.huge_data(demo_data, tmp_path, name, field)
        cfg = write_config(tmp_path / "cfg.json", data=data_section(paths, mf_scores=str(paths["mf_scores"])))
        for command in ("ingest", "backfit", "replay"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0, command
            tallies = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["skip_tallies"]
            assert tallies[f"ingest_{name}"] == changed, command
        report = (tmp_path / "ingest" / f"validation_{name}.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(report) == changed
        assert all(field in json.loads(line)["reason"] for line in report)

    @pytest.mark.parametrize("section, key, value", [
        ("data", "mf_default_score", 1e308),
        ("features", "cold_start_mpg", 1e300),
    ])
    def test_a_value_past_the_input_bound_exits_2_naming_the_key(self, demo_data, tmp_path, capsys,
                                                                  section, key, value):
        # Past the bound on numbers in the input files, the scaler's sums
        # of squares could leave the float range.
        sections = {"data": data_section(demo_data)}
        sections.setdefault(section, {})[key] = value
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", **sections)
        assert main(["replay", "--config", cfg, "--out", str(out)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert f"{section}.{key}=" in error["message"]
        assert not out.exists()


class TestConfigValueTypes:
    @pytest.mark.parametrize("section, key, value", [
        ("learner", "learning_rate", "0.1"),
        ("learner", "positive_boost", [2.0]),
        ("exploration", "kappa_initial", True),
        ("run", "rounds", "30"),
        ("run", "seed", False),
        ("synthetic", "n_members", 4.0),
        ("learner", "prior_weights", [0.0] * 8 + ["1"]),
        ("run", "out_dir", 7),
    ])
    def test_simulate_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        assert main(["simulate", "--config", cfg, "--rounds", "5", "--out", str(out)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert f"{section}.{key}={value!r}" in error["message"]
        assert not out.exists()

    def test_every_field_rejects_a_value_of_another_type(self):
        for section in dataclasses.fields(RunConfig):
            values = getattr(RunConfig(), section.name)
            if not dataclasses.is_dataclass(values):
                continue
            for f in dataclasses.fields(values):
                bad = {"a": 1} if f.type.startswith("str") else "1"
                with pytest.raises(ConfigError, match=f"{section.name}.{f.name}="):
                    RunConfig.from_dict({section.name: {f.name: bad}})

    def test_ints_are_numbers_and_null_fits_optional_fields(self):
        cfg = RunConfig.from_dict({"learner": {"learning_rate": 1, "prior_weights": None},
                                   "data": {"offers": None}})
        assert cfg.learner.learning_rate == 1 and cfg.learner.prior_weights is None


class TestConfigRanges:
    @pytest.mark.parametrize("section, key, value", [
        ("features", "cold_start_mpg", -1.0),
        ("features", "cold_start_mpg", 1e300),
        ("features", "default_cycle_days", 0),
        ("features", "smoothing_window", 2),
        ("learner", "learning_rate", 0),
        ("learner", "positive_boost", 0.5),
        ("learner", "l2_lambda", -1),
        ("learner", "prior_weights", [1.0]),
        ("exploration", "kappa_initial", 0),
        ("exploration", "kappa_schedule", "exponential"),
        ("exploration", "kappa_growth_rate", -0.1),
        ("exploration", "probability_clamp", 0.5),
        ("linucb", "alpha_explore", -1),
        ("linucb", "l2_lambda", -1),
        ("ts", "v", -0.5),
        ("ts", "l2_lambda", 0),
        ("egreedy", "epsilon", 1.5),
        ("egreedy", "decay", "linear"),
        ("synthetic", "n_categories", 0),
        ("synthetic", "n_members", 0),
        ("synthetic", "offers_per_round", 0),
        ("synthetic", "max_categories_per_offer", 6),
        ("run", "rounds", 0),
        ("run", "snapshot_every", 0),
        ("detection", "window", 0),
        ("detection", "z_threshold", 0),
        ("detection", "min_abs_change", -0.1),
        ("mf", "rank", 0),
        ("mf", "iterations", 0),
        ("mf", "regularization", -1),
        ("features", "smoothing_window", 53),
        ("features", "smoothing_window", 107),
    ])
    def test_camb_simulate_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        # Every section is checked at load, not only the chosen policy's.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        assert main(["simulate", "--config", cfg, "--policy", "camb", "--out", str(out)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert f"{section}.{key}" in error["message"]
        assert not out.exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestConfigHash:
    """The manifest's config_hash covers the whole config; these values
    pin it for the default and the shipped configs."""

    @pytest.mark.parametrize("name, expected", [
        (None, "230fd2e29bde494b6b1f6e74eb06417e64baaa13bacf6946d866bd98ddc8ac00"),
        ("simulate_camb.json", "b7402e68305d79d12aa76f0a8c37f9080e45b11c65f41b2188e74a04fb96a0f9"),
        ("replay_demo.json", "1108748d4eee4b45de908c9899da3cf7f48848bd91fe9fc03fee1f446095713e"),
    ])
    def test_config_hash_is_pinned(self, name, expected):
        cfg = RunConfig() if name is None else RunConfig.load(CONFIGS / name)
        assert config_hash(cfg.to_dict()) == expected


class TestReport:
    def test_merges_mean_metrics_across_runs(self, tmp_path, capsys):
        run_dirs = []
        for seed, rounds in ((1, 30), (2, 40), (3, 50)):
            out = tmp_path / f"run{seed}"
            assert main(["simulate", "--rounds", str(rounds), "--seed", str(seed),
                         "--out", str(out)]) == 0
            run_dirs.append(out)
        merged_dir = tmp_path / "merged"
        assert main(["report", *map(str, run_dirs), "--out", str(merged_dir)]) == 0
        merged = json.loads((merged_dir / "merged.json").read_text())
        assert merged["rounds_compared"] == 30
        summaries = [
            json.loads((d / "summary.json").read_text()) for d in run_dirs
        ]
        expected_reward = sum(s["cumulative_reward"] for s in summaries) / 3
        assert merged["mean_cumulative_reward"] == pytest.approx(expected_reward)
        assert merged["mean_regret"] == pytest.approx(
            sum(s["regret"] for s in summaries) / 3
        )
        lines = (merged_dir / "merged.csv").read_text().splitlines()
        assert lines[0] == "round,mean_cum_reward,mean_avg_reward,mean_regret,mean_optimal_rate"
        assert len(lines) == 31
        # Spot-check the first merged row against the three run files.
        import csv as csv_module

        first_rows = []
        for d in run_dirs:
            with (d / "metrics.csv").open(newline="", encoding="utf-8") as fh:
                first_rows.append(next(iter(csv_module.DictReader(fh))))
        merged_first = next(iter(csv_module.DictReader(
            (merged_dir / "merged.csv").open(newline="", encoding="utf-8"))))
        expected = sum(float(r["cum_reward"]) for r in first_rows) / 3
        assert float(merged_first["mean_cum_reward"]) == pytest.approx(expected)
        assert "merged 3 runs" in capsys.readouterr().out

    def test_missing_run_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent"), "--out", str(tmp_path / "m")]) == 2
        assert stderr_error(capsys)["error"] == "config"

    @pytest.mark.parametrize("name, corrupt", [
        ("summary.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                                  if k != "cumulative_reward"})),
        ("summary.json", lambda text: json.dumps([json.loads(text)])),
        ("summary.json", lambda text: json.dumps(dict(json.loads(text), cumulative_reward="12"))),
        ("summary.json", lambda text: json.dumps(dict(json.loads(text), regret="7"))),
        ("summary.json", lambda text: json.dumps(dict(json.loads(text), cumulative_reward=float("nan")))),
        ("summary.json", lambda text: text[:-5]),
        ("metrics.csv", lambda text: "\n".join(",".join(row.split(",")[:-1]) for row in text.splitlines())),
        ("metrics.csv", lambda text: text.rsplit(",", 1)[0] + "\n"),
        ("metrics.csv", lambda text: set_cell(text, 2, "cum_reward", "abc")),
        ("metrics.csv", lambda text: set_cell(text, 3, "avg_reward", "nan")),
    ], ids=["no-reward", "not-object", "string-reward", "string-regret", "nan-reward", "bad-json", "missing-column",
            "short-row", "non-numeric", "non-finite"])
    def test_unreadable_run_file_exits_2_naming_it(self, tmp_path, capsys, name, corrupt):
        good, bad = tmp_path / "good", tmp_path / "bad"
        for out in (good, bad):
            assert main(["simulate", "--rounds", "5", "--out", str(out)]) == 0
        path = bad / name
        path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
        merged_dir = tmp_path / "merged"
        assert main(["report", str(good), str(bad), "--out", str(merged_dir)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert str(path) in error["message"]
        assert not (merged_dir / "merged.json").exists()


class TestExplain:
    @pytest.fixture()
    def sim_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim_run")
        cfg = write_config(
            out / "cfg.json",
            run={"rounds": 120, "seed": 6, "out_dir": str(out / "run")},
            synthetic={"n_members": 1, "n_categories": 3},
        )
        assert main(["simulate", "--config", cfg]) == 0
        return out / "run"

    def test_mock_persona_for_simulated_member(self, sim_run, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", run={"out_dir": str(sim_run)})
        assert main(["explain", "--config", cfg, "--member", "m0", "--mock"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("Persona for member m0:")
        assert "Top drivers:" in text

    def test_explicit_trajectory_path(self, sim_run, capsys):
        assert main([
            "explain", "--member", "m0", "--mock",
            "--trajectory", str(sim_run / "trajectory.jsonl"),
        ]) == 0
        assert "Persona for member m0:" in capsys.readouterr().out

    def test_as_of_filters_history(self, sim_run, capsys):
        assert main([
            "explain", "--member", "m0", "--mock", "--as-of", "40",
            "--trajectory", str(sim_run / "trajectory.jsonl"),
        ]) == 0
        assert "Persona for member m0:" in capsys.readouterr().out

    def test_unknown_member_exits_1(self, sim_run, capsys):
        assert main([
            "explain", "--member", "nobody", "--mock",
            "--trajectory", str(sim_run / "trajectory.jsonl"),
        ]) == 1
        error = stderr_error(capsys)
        assert error["error"] == "runtime"
        assert "nobody" in error["message"]

    def test_missing_trajectory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", run={"out_dir": str(tmp_path / "void")})
        assert main(["explain", "--config", cfg, "--member", "m0", "--mock"]) == 2
        assert "trajectory" in stderr_error(capsys)["message"]

    def test_corrupt_trajectory_exits_2(self, sim_run, tmp_path, capsys):
        lines = (sim_run / "trajectory.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["weights"][0] = float("nan")
        bad = tmp_path / "bad_trajectory.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n", encoding="utf-8")
        assert main(["explain", "--member", "m0", "--mock", "--trajectory", str(bad)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_trajectory.jsonl line 2:" in error["message"]

    def test_trajectory_with_boolean_weight_exits_2(self, sim_run, tmp_path, capsys):
        lines = (sim_run / "trajectory.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row["weights"][0] = False
        bad = tmp_path / "bad_trajectory.jsonl"
        bad.write_text("\n".join([lines[0], lines[1], json.dumps(row)] + lines[3:]) + "\n", encoding="utf-8")
        assert main(["explain", "--member", "m0", "--mock", "--trajectory", str(bad)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_trajectory.jsonl line 3: weights must be 9 finite numbers" in error["message"]

    def test_trajectory_with_negative_t_exits_2(self, sim_run, tmp_path, capsys):
        lines = (sim_run / "trajectory.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["t"] = -5
        bad = tmp_path / "bad_trajectory.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n", encoding="utf-8")
        assert main(["explain", "--member", "m0", "--mock", "--trajectory", str(bad)]) == 2
        error = stderr_error(capsys)
        assert error["error"] == "config"
        assert "bad_trajectory.jsonl line 2: t must be a non-negative integer" in error["message"]

    def test_live_client_without_endpoint_exits_2(self, sim_run, monkeypatch, capsys):
        for var in ("LLM_API_BASE", "LLM_API_KEY", "LLM_MODEL"):
            monkeypatch.delenv(var, raising=False)
        assert main([
            "explain", "--member", "m0",
            "--trajectory", str(sim_run / "trajectory.jsonl"),
        ]) == 2
        assert "LLM_API_BASE" in stderr_error(capsys)["message"]


class TestMF:
    def test_writes_scores_and_manifest(self, demo_data, tmp_path, capsys):
        out = tmp_path / "mf"
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data),
            mf={"rank": 2, "iterations": 15},
            run={"out_dir": str(out)},
        )
        assert main(["mf", "--config", cfg]) == 0
        table, issues = ingest_mf_scores(out / "mf_scores.csv")
        assert issues == []
        assert len(table) > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mf"
        assert 0.0 <= manifest["reconstruction_error"] < 1.0
        assert manifest["matrix_shape"] == [6, 4]
        assert "factorized" in capsys.readouterr().out

    def test_catalog_without_known_categories_writes_header_only(self, demo_data, tmp_path, capsys):
        offers = tmp_path / "offers.jsonl"
        offers.write_text(json.dumps({
            "offer_id": "o1", "category_ids": ["c_unknown"], "discount_value": 1.0,
            "start_date": "2024-01-01", "end_date": "2024-01-31", "num_items": 1,
        }) + "\n", encoding="utf-8")
        out = tmp_path / "mf"
        cfg = write_config(
            tmp_path / "cfg.json",
            data=data_section(demo_data, offers=str(offers)),
            mf={"rank": 2},
            run={"out_dir": str(out)},
        )
        assert main(["mf", "--config", cfg]) == 0
        assert (out / "mf_scores.csv").read_bytes() == b"member_id,offer_id,score\r\n"
        assert f"; 0 scores -> {out}" in capsys.readouterr().out

    def test_scores_feed_back_into_replay(self, demo_data, tmp_path):
        mf_out = tmp_path / "mf"
        cfg = write_config(
            tmp_path / "mf.json",
            data=data_section(demo_data),
            mf={"rank": 2},
            run={"out_dir": str(mf_out)},
        )
        assert main(["mf", "--config", cfg]) == 0
        replay_out = tmp_path / "replay"
        cfg2 = write_config(
            tmp_path / "replay.json",
            data=data_section(demo_data, mf_scores=str(mf_out / "mf_scores.csv")),
            run={"seed": 1, "out_dir": str(replay_out)},
        )
        assert main(["replay", "--config", cfg2]) == 0
        manifest = json.loads((replay_out / "manifest.json").read_text())
        assert manifest["skip_tallies"]["ingest_mf_scores"] == 0


class TestOutputWriter:
    def test_keeps_files_on_success(self, tmp_path):
        with OutputWriter(tmp_path / "out") as out:
            out.register("a.txt").write_text("x", encoding="utf-8")
        assert (tmp_path / "out" / "a.txt").is_file()

    def test_removes_registered_files_on_failure(self, tmp_path):
        with pytest.raises(RuntimeError):
            with OutputWriter(tmp_path / "out") as out:
                out.register("a.txt").write_text("x", encoding="utf-8")
                out.register("b.txt").write_text("y", encoding="utf-8")
                raise RuntimeError("boom")
        assert not (tmp_path / "out" / "a.txt").exists()
        assert not (tmp_path / "out" / "b.txt").exists()

    def test_cleanup_survives_directory_squatting_a_path(self, tmp_path):
        (tmp_path / "out" / "squat").mkdir(parents=True)
        with pytest.raises(RuntimeError):
            with OutputWriter(tmp_path / "out") as out:
                out.register("a.txt").write_text("x", encoding="utf-8")
                out.register("squat")
                raise RuntimeError("boom")
        assert not (tmp_path / "out" / "a.txt").exists()
        assert (tmp_path / "out" / "squat").is_dir()
