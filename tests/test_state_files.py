"""Line semantics of the two state-file loaders, TrajectoryStore.load and
load_checkpoint, which read a file as columns: where lines split, which
faulty line is named, and agreement with the per-line loaders they
replaced (conftest's load_trajectory_per_line and
load_checkpoint_per_line) on corrupted files."""

import codecs
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import load_checkpoint_per_line, load_trajectory_per_line
from hypothesis import given, settings
from hypothesis import strategies as st

import offerbandit.interpret as interpret_module
from offerbandit.bandit import CategoryModel, LearnerConfig, ModelStore, load_checkpoint, save_checkpoint
from offerbandit.errors import ConfigError
from offerbandit.features import N_FEATURES
from offerbandit.interpret import TrajectoryStore

PAIRS = [("m1", "cA"), ('m "2"', "cB"), ("m\u00e9", "cA"), ("m1", "c\u4e2d")]


def trajectory_text() -> str:
    store = TrajectoryStore()
    rng = np.random.default_rng(4)
    for t in range(1, 4):
        for i, (member, category) in enumerate(PAIRS):
            store.record(member, category, rng.normal(size=N_FEATURES), t, 4 * t + i)
    return _saved(store.save)


def checkpoint_text() -> str:
    store = ModelStore(np.full(N_FEATURES, 0.25))
    rng = np.random.default_rng(5)
    for i, pair in enumerate(PAIRS):
        store.put(*pair, CategoryModel(rng.normal(size=N_FEATURES), i + 1))
    return _saved(lambda path: save_checkpoint(path, store, LearnerConfig()))


def _saved(save) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.jsonl"
        save(path)
        return path.read_text(encoding="utf-8")


def trajectory_state(path):
    """Each pair's snapshots, by repr, which tells 7 from 7.0."""
    store = TrajectoryStore.load(path)
    return {pair: repr(store.series(*pair)) for pair in store.pairs()}


def per_line_trajectory_state(path):
    return {pair: repr(series) for pair, series in load_trajectory_per_line(path).items()}


def checkpoint_state(path):
    store, header = load_checkpoint(path)
    return _store_state(store), header


def per_line_checkpoint_state(path):
    store, header = load_checkpoint_per_line(path)
    return _store_state(store), header


def _store_state(store: ModelStore):
    """The store's pairs in row order with their weights and counts, and
    its prior."""
    rows = [(key, store.get(*key)) for key in store._rows]
    return [(key, m.weights.tolist(), m.update_count) for key, m in rows], store.prior.tolist()


LOADERS = {
    "trajectory": (trajectory_text, trajectory_state, per_line_trajectory_state),
    "checkpoint": (checkpoint_text, checkpoint_state, per_line_checkpoint_state),
}


def outcome(load, path):
    try:
        return "loaded", load(path)
    except ConfigError as exc:
        return "rejected", str(exc)


def rows_padded(text: str) -> str:
    """Blank and whitespace-only lines after the header, and each row
    padded with whitespace, U+2028 and a no-break space among it."""
    header, *rows = text.splitlines()
    padded = [f"\u2028 \t{row}  \xa0" for row in rows]
    return "\n".join([header, "", "   ", *padded[:2], "\t", *padded[2:], "\u3000", ""])


REWRITES = {
    "crlf": lambda text: text.replace("\n", "\r\n").encode("utf-8"),
    "cr": lambda text: text.replace("\n", "\r").encode("utf-8"),
    "bom": lambda text: codecs.BOM_UTF8 + text.encode("utf-8"),
    "padded": lambda text: rows_padded(text).encode("utf-8"),
    "no-final-newline": lambda text: text.rstrip("\n").encode("utf-8"),
}


@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES.keys())
@pytest.mark.parametrize("kind", LOADERS)
def test_rewritten_file_loads_to_the_same_store(tmp_path, kind, rewrite):
    text, load, _ = LOADERS[kind]
    plain, rewritten = tmp_path / "plain.jsonl", tmp_path / "rewritten.jsonl"
    plain.write_text(text(), encoding="utf-8")
    rewritten.write_bytes(rewrite(text()))
    assert load(rewritten) == load(plain)


@pytest.mark.parametrize("joiner", ["\u2028", "\x0c", "\x85", "\x1e"])
@pytest.mark.parametrize("kind", LOADERS)
def test_only_line_feeds_and_carriage_returns_end_lines(tmp_path, kind, joiner):
    # str.splitlines would also break at these, and load two good rows.
    text, load, per_line = LOADERS[kind]
    lines = text().splitlines()
    path = tmp_path / "state.jsonl"
    path.write_text("\n".join([lines[0], lines[1] + joiner + lines[2], *lines[3:]]) + "\n", encoding="utf-8")
    rejected = outcome(load, path)
    assert rejected == outcome(per_line, path)
    assert rejected[0] == "rejected" and "line 2: Extra data" in rejected[1]


LATER_FAULTS = {
    "json": lambda line: line[:-1].encode("utf-8"),
    "undecodable": lambda line: line[:10].encode("utf-8") + b"\xff" + line[10:].encode("utf-8"),
    "too-deep": lambda line: b"[" * 100_000,
    "no-value": lambda line: b"]",
}


@pytest.mark.parametrize("later", LATER_FAULTS.values(), ids=LATER_FAULTS.keys())
@pytest.mark.parametrize("kind", LOADERS)
def test_type_fault_is_named_before_a_later_parse_fault(tmp_path, kind, later):
    text, load, per_line = LOADERS[kind]
    lines = text().splitlines()
    row = json.loads(lines[2])
    row["update_count"] = "3"
    raw = [line.encode("utf-8") for line in lines]
    raw[2] = json.dumps(row).encode("utf-8")
    raw[4] = later(lines[4])
    path = tmp_path / "state.jsonl"
    path.write_bytes(b"\n".join(raw) + b"\n")
    rejected = outcome(load, path)
    assert rejected == outcome(per_line, path)
    assert rejected[0] == "rejected" and "line 3: update_count must be a non-negative integer" in rejected[1]
    # Without the type fault, the parse fault is the first.
    raw[2] = lines[2].encode("utf-8")
    path.write_bytes(b"\n".join(raw) + b"\n")
    rejected = outcome(load, path)
    assert rejected == outcome(per_line, path)
    assert rejected[0] == "rejected" and "line 5:" in rejected[1]


def negative_count(line: str) -> bytes:
    return line.replace('"update_count": ', '"update_count": -').encode("utf-8")


@pytest.mark.parametrize("later", [*LATER_FAULTS.values(), negative_count], ids=[*LATER_FAULTS, "field"])
@pytest.mark.parametrize("kind", LOADERS)
def test_a_broken_rule_is_named_before_a_later_fault(tmp_path, kind, later):
    text, load, per_line = LOADERS[kind]
    lines = text().splitlines()
    row, earlier = json.loads(lines[2]), json.loads(lines[1])
    # Line 3 takes line 2's pair, and in a trajectory its t: a repeated
    # pair, or a t that does not advance.
    row.update({key: earlier[key] for key in ("member_id", "category_id", "t") if key in row})
    raw = [line.encode("utf-8") for line in lines]
    raw[2], raw[4] = json.dumps(row).encode("utf-8"), later(lines[4])
    path = tmp_path / "state.jsonl"
    path.write_bytes(b"\n".join(raw) + b"\n")
    rejected = outcome(load, path)
    assert rejected == outcome(per_line, path)
    reason = "duplicate model" if kind == "checkpoint" else f"does not advance past t={earlier.get('t')}"
    assert rejected[0] == "rejected" and "line 3: " in rejected[1] and reason in rejected[1]


def two_faults(kind: str, row: dict, earlier: dict) -> str:
    """Give a row two faults, and return the reason it is named for: a
    line's fields are checked in file-field order, then the cross-line
    rule."""
    if kind == "checkpoint":  # a repeated pair and a string count
        row.update(member_id=earlier["member_id"], category_id=earlier["category_id"], update_count="3")
        return "update_count must be a non-negative integer below 2**63, got '3'"
    row["weights"][0], row["t"] = True, -1  # a boolean weight and a negative t
    return f"weights must be {N_FEATURES} finite numbers, got [True, "


@pytest.mark.parametrize("kind", LOADERS)
def test_a_line_with_two_faults_is_named_for_its_first(tmp_path, kind):
    text, load, per_line = LOADERS[kind]
    lines = text().splitlines()
    row = json.loads(lines[2])
    reason = two_faults(kind, row, json.loads(lines[1]))
    path = tmp_path / "state.jsonl"
    path.write_text("\n".join([*lines[:2], json.dumps(row), *lines[3:]]) + "\n", encoding="utf-8")
    rejected = outcome(load, path)
    assert rejected == outcome(per_line, path)
    assert rejected[0] == "rejected" and f"{path} line 3: {reason}" in rejected[1]


def test_trajectory_load_makes_no_snapshot_objects(tmp_path, monkeypatch):
    path = tmp_path / "traj.jsonl"
    path.write_text(trajectory_text(), encoding="utf-8")

    def refused(*args):
        raise AssertionError("a WeightSnapshot was built")

    monkeypatch.setattr(interpret_module, "WeightSnapshot", refused)
    store = TrajectoryStore.load(path)
    store.record("m9", "c9", np.zeros(N_FEATURES), 0, 99)
    assert len(store.pairs()) == len(PAIRS) + 1


def test_checkpoint_load_puts_no_rows(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.jsonl"
    path.write_text(checkpoint_text(), encoding="utf-8")

    def refused(*args):
        raise AssertionError("a row was put")

    monkeypatch.setattr(ModelStore, "put", refused)
    store, _ = load_checkpoint(path)
    assert sorted(store._rows) == sorted(PAIRS)


RETYPED = [True, False, None, "3", "", 2.5, -1, 7, 2**63, 10**400, [], {}, [0.5] * N_FEATURES, float("inf")]
CORRUPTIONS = {
    "trajectory": ("drop", "retype", "retype-weight", "resize", "truncate", "nan", "stale-t", "duplicate", "bad-byte"),
    "checkpoint": ("drop", "retype", "retype-weight", "resize", "truncate", "nan", "duplicate", "bad-byte"),
}
ANY_LINE = ("drop", "retype", "truncate", "bad-byte")


@st.composite
def corrupted(draw, lines: list[str], kinds) -> bytes:
    """The file of lines (a header, then rows) with one corruption of
    one line, written with one kind of line ending."""
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0 if kind in ANY_LINE else 1, len(lines) - 1))
    obj = json.loads(lines[i])
    if kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "retype":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(st.sampled_from(RETYPED))
    elif kind == "retype-weight":
        obj["weights"][draw(st.integers(0, N_FEATURES - 1))] = draw(st.sampled_from(RETYPED))
    elif kind == "resize":
        size = draw(st.sampled_from([0, N_FEATURES - 1, N_FEATURES + 1]))
        obj["weights"] = (obj["weights"] * 2)[:size]
    elif kind == "nan":
        obj["weights"][draw(st.integers(0, N_FEATURES - 1))] = draw(st.sampled_from([float("nan"), float("-inf")]))
    elif kind == "stale-t":
        obj["t"] = json.loads(lines[draw(st.integers(1, i))])["t"] - draw(st.integers(0, 1))
    elif kind == "duplicate":
        other = json.loads(lines[draw(st.integers(1, len(lines) - 1))])
        obj.update(member_id=other["member_id"], category_id=other["category_id"])
    line = json.dumps(obj).encode("utf-8")
    if kind == "truncate":
        line = lines[i].encode("utf-8")[:draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "bad-byte":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe4\xb8"])) + line[at:]
    raw = [text.encode("utf-8") for text in lines]
    raw[i] = line
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join(raw) + ending


@pytest.mark.parametrize("kind", LOADERS)
def test_loaders_agree_with_the_per_line_loaders_on_corrupted_files(tmp_path_factory, kind):
    text, load, per_line = LOADERS[kind]
    lines = text().splitlines()
    path = tmp_path_factory.mktemp(kind) / "state.jsonl"

    @settings(max_examples=400)
    @given(corrupted(lines, CORRUPTIONS[kind]))
    def agree(data: bytes) -> None:
        path.write_bytes(data)
        assert outcome(load, path) == outcome(per_line, path)

    agree()
