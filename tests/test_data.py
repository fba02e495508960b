import codecs
import csv
import json
import tracemalloc
from datetime import date, datetime, timedelta

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import log_rows, transaction_log
from offerbandit import data
from offerbandit.data import (
    TRANSACTION_FIELDS,
    Impression,
    IngestError,
    IngestResult,
    Offer,
    _iso_date,
    _plain_transactions,
    _read_csv,
    catalog_orphan_issues,
    ingest_impressions,
    ingest_mf_scores,
    ingest_offers,
    ingest_transactions,
    read_state_file,
    write_validation_report,
)
from offerbandit.datagen import (
    generate_dataset,
    generate_impressions,
    generate_offers,
    generate_transactions,
    write_impressions_jsonl,
    write_offers_jsonl,
    write_transactions_csv,
)

HEADER = "member_id,category_id,brand_id,event_date,quantity\n"


def write_csv(path, body, header=HEADER):
    path.write_text(header + body, encoding="utf-8")
    return path


def row_by_row_ingest(path):
    """The reference for ingest_transactions: each row parsed on its own
    into (member_id, category_id, brand_id, event_date), then the kept
    rows stably sorted by date. Returns (rows, issues)."""

    def parse(row):
        if len(row) != 5:
            raise ValueError(f"expected 5 fields, got {len(row)}")
        member, category, brand, day, qty = map(str.strip, row)
        if not member or not category or not brand:
            raise ValueError("empty id field")
        event_date = _iso_date(day, "event_date")
        try:
            quantity = int(qty)
        except ValueError:
            raise ValueError(f"bad quantity {qty!r}") from None
        if quantity < 1:
            raise ValueError(f"quantity must be positive, got {quantity}")
        return member, category, brand, event_date

    result = _read_csv(path, TRANSACTION_FIELDS, "transaction", parse)
    return sorted(result.records, key=lambda row: row[3]), result.issues


# Transaction lines: ids that only a trailing NUL or a non-ASCII letter
# tells apart, few dates (so same-day rows tie, in any file order), bad
# dates and quantities, 2**64 among the good ones; and lines that are
# not UTF-8, too long for the csv module, short or empty.
TX_LINES = st.one_of(
    st.tuples(
        *[st.sampled_from(["m1", "m1\x00", " m2 ", "é", ""])] * 3,
        st.sampled_from(["2024-07-01", "2024-07-02", " 2024-06-30", "2024-13-01", "20240701"]),
        st.sampled_from(["1", " 3 ", str(2**64), str(2**63), "0", "-1", "2.5", "x"]),
    ).map(lambda fields: (",".join(fields) + "\n").encode("utf-8")),
    st.sampled_from([
        b"m\xff1,c1,b1,2024-07-01,1\n",
        b"x" * 200_000 + b",c1,b1,2024-07-01,1\n",
        b"m1,c1,b1,2024-07-01\n",
        b"\n",
    ]),
)


def assert_ingest_equals_reference(path):
    """ingest_transactions of the file gives the row_by_row_ingest rows
    in its order, each id column's sorted distinct names, and its tally;
    or both keep no row."""
    rows, issues = row_by_row_ingest(path)
    if not rows:
        with pytest.raises(IngestError, match="no valid transactions"):
            ingest_transactions(path)
        return
    result = ingest_transactions(path)
    assert result.issues == issues
    assert log_rows(result.records) == rows
    log = result.records
    assert (log.members, log.categories, log.brands) == tuple(sorted({row[k] for row in rows}) for k in range(3))
    assert all(getattr(log, c).dtype == "int64" for c in ("member", "category", "brand", "day"))


# Ids of a plain file: printable ASCII but the comma and the quote, no
# space at either end, of 1-8 bytes (one uint64 key) or 9-20.
PLAIN_ID = st.one_of(
    *(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters=',"'),
              min_size=lo, max_size=hi) for lo, hi in ((1, 8), (9, 20)))
).filter(lambda text: text == text.strip())


@st.composite
def plain_files(draw):
    """The bytes of a transaction file that the per-row loop reads
    without a skip: ids drawn from small pools, so they repeat, a few
    dates, so same-day rows tie, quantities in the forms int() reads,
    LF or CRLF line ends, an optional byte-order mark and an optional
    last line end."""
    pools = [draw(st.lists(PLAIN_ID, min_size=1, max_size=4)) for _ in range(3)]
    days = draw(st.lists(st.dates().map(date.isoformat), min_size=1, max_size=3))
    quantities = st.sampled_from(["1", "+3", "0007", "1_0"]) | st.integers(1, 10**6).map(str)
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, [*pools, days]), quantities), min_size=1, max_size=25))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([HEADER.rstrip("\n"), *map(",".join, rows)]) + draw(st.sampled_from([eol, ""]))
    return draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode("ascii")


PLAIN_ROWS = "m1,c1,b1,2024-07-02,1\nm10,c2,b1,2024-07-01,2\nm1,c1,b2,2024-07-01,3\n"


class TestTransactions:
    def test_round_trip_preserves_records(self, tmp_path):
        rows = generate_transactions(n_members=6, events_per_member=15, seed=3)
        path = tmp_path / "tx.csv"
        write_transactions_csv(path, rows)
        result = ingest_transactions(path)
        assert result.issues == []
        assert log_rows(result.records) == [row[:4] for row in sorted(rows, key=lambda row: row[3])]
        assert result.records == transaction_log(rows)

    def test_output_sorted_by_event_date(self, tmp_path):
        body = (
            "m1,c1,b1,2024-03-05,1\n"
            "m2,c1,b1,2024-01-02,2\n"
            "m3,c1,b1,2024-02-10,1\n"
        )
        result = ingest_transactions(write_csv(tmp_path / "t.csv", body))
        dates = [row[3] for row in log_rows(result.records)]
        assert dates == sorted(dates)
        assert log_rows(result.records)[0][0] == "m2"

    def test_sort_is_stable_within_a_date(self, tmp_path):
        body = (
            "mA,c1,b1,2024-01-01,1\n"
            "mB,c1,b1,2024-01-01,1\n"
            "mC,c1,b1,2024-01-01,1\n"
        )
        result = ingest_transactions(write_csv(tmp_path / "t.csv", body))
        assert [row[0] for row in log_rows(result.records)] == ["mA", "mB", "mC"]

    def test_malformed_rows_tallied_with_index_and_reason(self, tmp_path):
        body = (
            "m1,c1,b1,2024-01-01,1\n"
            "m1,c1,b1,not-a-date,1\n"
            "m1,c1,b1,2024-01-03,zero\n"
            "m1,c1,b1,2024-01-04,0\n"
            "m1,c1,2024-01-05,1\n"
            ",c1,b1,2024-01-06,1\n"
            "m1,c1,b1,2024-01-07,2\n"
        )
        result = ingest_transactions(write_csv(tmp_path / "t.csv", body))
        assert len(result.records) == 2
        assert [idx for idx, _ in result.issues] == [1, 2, 3, 4, 5]
        reasons = dict(result.issues)
        assert "event_date" in reasons[1]
        assert "quantity" in reasons[2]
        assert "positive" in reasons[3]
        assert "5 fields" in reasons[4]
        assert "empty id" in reasons[5]

    def test_only_the_extended_date_form_is_read(self, tmp_path):
        # Python 3.11's date.fromisoformat also reads the basic and week
        # forms; 3.10 does not, and ingest takes the same rows on both.
        body = "m1,c1,b1,2024-01-05,1\nm1,c1,b1,20240105,1\nm1,c1,b1,2024-W02-1,1\n"
        result = ingest_transactions(write_csv(tmp_path / "t.csv", body))
        assert [row[3] for row in log_rows(result.records)] == [date(2024, 1, 5)]
        assert result.issues == [(1, "bad event_date '20240105'"), (2, "bad event_date '2024-W02-1'")]

    @given(bom=st.booleans(), lines=st.lists(TX_LINES, min_size=1, max_size=25))
    @example(bom=True, lines=[
        b"m1\x00,c1,b1,2024-07-02," + str(2**64).encode() + b"\n",
        b"m\xff1,c1,b1,2024-07-01,1\n",
        b"m1,c1,b1,2024-07-02,1\n",
        b"x" * 200_000 + b",c1,b1,2024-07-01,1\n",
        b"m2,c1,b2,2024-07-01,2\n",
        b"m1,c1,b1,2024-07-02,0\n",
        b"m1,c2,b1,2024-07-01,3\n",
    ])
    def test_columnar_ingest_equals_the_row_by_row_reference(self, tmp_path_factory, bom, lines):
        path = tmp_path_factory.mktemp("tx") / "t.csv"
        path.write_bytes((codecs.BOM_UTF8 if bom else b"") + HEADER.encode("utf-8") + b"".join(lines))
        assert_ingest_equals_reference(path)

    @given(raw=plain_files())
    def test_a_plain_file_is_read_as_columns_equal_to_the_reference(self, tmp_path_factory, raw):
        assert _plain_transactions(raw) is not None
        path = tmp_path_factory.mktemp("tx") / "t.csv"
        path.write_bytes(raw)
        assert_ingest_equals_reference(path)

    @pytest.mark.parametrize("body", [
        "m 1,c1,b1,2024-07-01,1\n",
        "x" * csv.field_size_limit() + ",c1,b1,2024-07-01,1\n",
        "m" * 65 + ",c1,b1,2024-07-01,1\nm" + "0" * 64 + ",c1,b1,2024-07-01,1\n",
        "m1,c1,b1,2024-07-01,1\r",
    ], ids=["inner space", "field at the csv limit", "ids past the gather width", "last line ending in a lone CR"])
    def test_plain_edge_cases_are_read_as_columns(self, tmp_path, body):
        path = write_csv(tmp_path / "t.csv", PLAIN_ROWS + body)
        assert _plain_transactions(path.read_bytes()) is not None
        assert_ingest_equals_reference(path)

    @pytest.mark.parametrize("body", [
        '"m1",c1,b1,2024-07-01,1\n',
        "m3\rm4,c1,b1,2024-07-01,1\n",
        "m1,c1 ,b1,2024-07-01,1\n",
        ",c1,b1,2024-07-01,1\n",
        "\u00e9,c1,b1,2024-07-01,1\n",
        "m1\x00,c1,b1,2024-07-01,1\n",
        "\n",
        "x" * (csv.field_size_limit() + 1) + ",c1,b1,2024-07-01,1\n",
        "m1,c1,b1,2024-13-01,1\n",
        "m1,c1,b1,2024-07-01,0\n",
    ], ids=["quoted field", "lone CR", "space at a field edge", "empty id", "non-ASCII id", "NUL", "blank line",
            "field past the csv limit", "bad date", "bad quantity"])
    def test_a_row_the_columns_cannot_take_sends_the_file_to_the_per_row_loop(self, tmp_path, body):
        # The odd row sits among plain ones; the per-row loop reads the
        # whole file, and skips or keeps that row as it always did.
        path = write_csv(tmp_path / "t.csv", PLAIN_ROWS + body + PLAIN_ROWS)
        assert _plain_transactions(path.read_bytes()) is None
        assert_ingest_equals_reference(path)

    @pytest.mark.parametrize("header", [HEADER.replace("\n", " \n"), " " + HEADER])
    def test_a_header_with_spaces_is_read_by_the_per_row_loop(self, tmp_path, header):
        path = write_csv(tmp_path / "t.csv", PLAIN_ROWS, header=header)
        assert _plain_transactions(path.read_bytes()) is None
        assert_ingest_equals_reference(path)

    def test_a_header_with_more_after_it_is_fatal(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", PLAIN_ROWS, header=HEADER.replace("\n", "_x\n"))
        with pytest.raises(IngestError, match="header"):
            ingest_transactions(path)

    def test_a_plain_file_never_reaches_the_per_row_loop(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "t.csv", PLAIN_ROWS)
        expected = ingest_transactions(path).records

        def per_row_loop(*args):
            raise AssertionError("a plain file went to the per-row loop")

        monkeypatch.setattr(data, "_read_csv", per_row_loop)
        assert ingest_transactions(path).records == expected
        assert log_rows(expected) == row_by_row_ingest(path)[0]

    def test_a_very_long_id_is_read_without_a_rows_by_width_array(self, tmp_path):
        # 10,000 rows, one of whose member ids is 100,000 bytes long: its
        # column is not gathered as 10,000 x 100,000 bytes, 3,000 times the
        # file. The per-row loop's own peak is about 11 times the file.
        rows = [f"m{i % 50},c{i % 7},b{i % 5},2024-07-{1 + i % 28:02d},{1 + i % 3}\n" for i in range(10_000)]
        rows[5_000] = "m" * 100_000 + rows[5_000][rows[5_000].index(","):]
        path = write_csv(tmp_path / "t.csv", "".join(rows))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ingest_transactions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * size
        assert _plain_transactions(path.read_bytes()) is not None
        assert_ingest_equals_reference(path)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(IngestError, match="missing input file"):
            ingest_transactions(tmp_path / "nope.csv")

    def test_wrong_header_is_fatal(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "m1,c1,b1,2024-01-01,1\n",
                         header="member,category,brand,date,qty\n")
        with pytest.raises(IngestError, match="header"):
            ingest_transactions(path)

    def test_zero_valid_rows_is_fatal(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "m1,c1,b1,bad-date,1\n")
        with pytest.raises(IngestError, match="no valid transactions"):
            ingest_transactions(path)

    def test_ingest_is_idempotent(self, tmp_path):
        rows = generate_transactions(n_members=4, events_per_member=10, seed=1)
        path = tmp_path / "t.csv"
        write_transactions_csv(path, rows)
        assert ingest_transactions(path).records == ingest_transactions(path).records

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 400),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_any_valid_rows_round_trip(self, tmp_path_factory, raw):
        rows = [(f"m{m}", f"c{c}", f"b{b}", date(2024, 1, 1) + timedelta(days=d), q) for m, c, b, d, q in raw]
        path = tmp_path_factory.mktemp("tx") / "t.csv"
        write_transactions_csv(path, rows)
        result = ingest_transactions(path)
        assert result.issues == []
        assert sorted(log_rows(result.records)) == sorted(row[:4] for row in rows)


class TestOffers:
    def offer_line(self, **over):
        obj = {
            "offer_id": "o1",
            "category_ids": ["c1", "c2"],
            "brand_ids": ["b1"],
            "discount_value": 2.5,
            "start_date": "2024-01-01",
            "end_date": "2024-01-31",
            "num_items": 2,
        }
        obj.update(over)
        return json.dumps(obj)

    def test_round_trip(self, tmp_path):
        offers = generate_offers(n_offers=12, seed=5)
        path = tmp_path / "offers.jsonl"
        write_offers_jsonl(path, offers)
        result = ingest_offers(path)
        assert result.issues == []
        assert result.records == offers

    def test_field_types(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text(self.offer_line() + "\n", encoding="utf-8")
        (offer,) = ingest_offers(path).records
        assert offer.category_ids == frozenset({"c1", "c2"})
        assert offer.brand_ids == frozenset({"b1"})
        assert offer.start_date == date(2024, 1, 1)
        assert offer.duration_days() == 30
        assert offer.active_on(date(2024, 1, 31))
        assert not offer.active_on(date(2024, 2, 1))

    def test_single_day_offer_has_duration_one(self):
        offer = Offer("o", frozenset({"c"}), frozenset(), 1.0,
                      date(2024, 5, 5), date(2024, 5, 5), 1)
        assert offer.duration_days() == 1

    def test_invalid_records_tallied(self, tmp_path):
        lines = [
            self.offer_line(),
            self.offer_line(offer_id="o2", start_date="2024-02-01", end_date="2024-01-01"),
            self.offer_line(offer_id="o3", category_ids=[]),
            self.offer_line(offer_id="o4", num_items=0),
            self.offer_line(offer_id="o5", discount_value=-1.0),
            self.offer_line(offer_id="o6", discount_value=float("nan")),
            self.offer_line(offer_id="o7", discount_value=float("inf")),
            self.offer_line(offer_id="o8", discount_value=float("-inf")),
            self.offer_line(offer_id="o9", num_items=float("inf")),
            self.offer_line(offer_id="o10", num_items=2.7),
            self.offer_line(offer_id="o11", num_items=True),
            self.offer_line(offer_id="o12", num_items=10**400),
            self.offer_line(offer_id="o13", num_items="3"),
            self.offer_line(offer_id="o14", category_ids="c1"),
            self.offer_line(offer_id="o15", brand_ids="b1"),
            self.offer_line(offer_id="o16", discount_value="3"),
            self.offer_line(offer_id="o17", discount_value=True),
            self.offer_line(offer_id="o1"),
            "not json at all",
        ]
        path = tmp_path / "o.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest_offers(path)
        assert [o.offer_id for o in result.records] == ["o1"]
        assert [idx for idx, _ in result.issues] == list(range(1, 19))
        assert all("num_items" in reason for _, reason in result.issues[8:12])
        keys = ["category_ids", "brand_ids", "discount_value", "discount_value"]
        assert all(key in reason for key, (_, reason) in zip(keys, result.issues[12:16]))
        assert "duplicate offer_id o1" in result.issues[16][1]

    def test_only_the_extended_date_form_is_read(self, tmp_path):
        lines = [
            self.offer_line(),
            self.offer_line(offer_id="o2", start_date="20240101"),
            self.offer_line(offer_id="o3", end_date="2024-W05-3"),
            self.offer_line(offer_id="o4", start_date=20240101),
        ]
        path = tmp_path / "o.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest_offers(path)
        assert [o.offer_id for o in result.records] == ["o1"]
        assert result.issues == [
            (1, "bad offer record: bad start_date '20240101'"),
            (2, "bad offer record: bad end_date '2024-W05-3'"),
            (3, "bad offer record: bad start_date 20240101"),
        ]

    @pytest.mark.parametrize("key, value", [
        ("offer_id", None), ("offer_id", ""), ("offer_id", True), ("offer_id", ["o1"]), ("offer_id", {}),
        ("offer_id", float("nan")), ("category_ids", ["c1", None]), ("category_ids", [""]),
        ("category_ids", [float("inf")]), ("brand_ids", [False]), ("brand_ids", [["b1"]]),
    ], ids=repr)
    def test_null_empty_and_non_scalar_ids_tallied(self, tmp_path, key, value):
        path = tmp_path / "o.jsonl"
        path.write_text(self.offer_line(offer_id="o0") + "\n" + self.offer_line(**{key: value}) + "\n",
                        encoding="utf-8")
        result = ingest_offers(path)
        assert [o.offer_id for o in result.records] == ["o0"]
        assert [idx for idx, _ in result.issues] == [1]
        assert key in result.issues[0][1]

    def test_numeric_ids_keep_their_str_form(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text(self.offer_line(offer_id=7, category_ids=[1, 2.5], brand_ids=[3]) + "\n", encoding="utf-8")
        result = ingest_offers(path)
        assert result.issues == []
        (offer,) = result.records
        assert (offer.offer_id, offer.category_ids, offer.brand_ids) == ("7", {"1", "2.5"}, {"3"})

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_offers(tmp_path / "gone.jsonl")


NON_OBJECT_LINES = ["[1, 2]", "null", "5", '"abc"', "true"]


@pytest.mark.parametrize("ingest, record", [
    (ingest_offers, {"offer_id": "o1", "category_ids": ["c1"], "discount_value": 1.0,
                     "start_date": "2024-01-01", "end_date": "2024-01-31", "num_items": 1}),
    (ingest_impressions, {"timestamp": "2024-01-10T09:30:00", "member_id": "m1", "offers_shown": ["o1"]}),
], ids=["offers", "impressions"])
def test_non_object_lines_tallied(tmp_path, ingest, record):
    lines = [json.dumps(record), *NON_OBJECT_LINES, json.dumps(record).replace("o1", "o2")]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest(path)
    assert len(result.records) == 2
    assert [idx for idx, _ in result.issues] == list(range(1, 1 + len(NON_OBJECT_LINES)))
    assert all("must be a JSON object" in reason for _, reason in result.issues)


class TestImpressions:
    def imp_line(self, **over):
        obj = {
            "timestamp": "2024-01-10T09:30:00",
            "member_id": "m1",
            "offers_shown": ["o1", "o2"],
            "clipped": ["o2"],
        }
        obj.update(over)
        return json.dumps(obj)

    def test_round_trip(self, tmp_path):
        offers = generate_offers(n_offers=10, seed=2)
        imps = generate_impressions(offers, n_members=5, n_impressions=40, seed=4)
        path = tmp_path / "imp.jsonl"
        write_impressions_jsonl(path, imps)
        result = ingest_impressions(path)
        assert result.issues == []
        assert result.records == sorted(imps, key=lambda i: i.timestamp)

    def test_clipped_must_be_subset_of_shown(self, tmp_path):
        lines = [self.imp_line(), self.imp_line(clipped=["o9"])]
        path = tmp_path / "i.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert len(result.records) == 1
        assert len(result.issues) == 1
        assert "o9" in result.issues[0][1]

    def test_offer_shown_twice_rejected(self, tmp_path):
        lines = [self.imp_line(), self.imp_line(offers_shown=["o1", "o2", "o1"])]
        path = tmp_path / "i.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert len(result.records) == 1
        assert [idx for idx, _ in result.issues] == [1]
        assert "['o1'] shown more than once" in result.issues[0][1]

    def test_sorted_by_timestamp(self, tmp_path):
        lines = [
            self.imp_line(timestamp="2024-01-12T10:00:00"),
            self.imp_line(timestamp="2024-01-10T10:00:00"),
            self.imp_line(timestamp="2024-01-11T10:00:00"),
        ]
        path = tmp_path / "i.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stamps = [i.timestamp for i in ingest_impressions(path).records]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("over, key", [
        ({"offers_shown": "o12", "clipped": []}, "offers_shown"),
        ({"offers_shown": ["a", "b"], "clipped": "ab"}, "clipped"),
        ({"offers_shown": {"o1": 1}, "clipped": []}, "offers_shown"),
    ], ids=["string-shown", "string-clipped", "object-shown"])
    def test_id_lists_must_be_arrays(self, tmp_path, over, key):
        path = tmp_path / "i.jsonl"
        path.write_text(self.imp_line(**over) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert result.records == []
        assert len(result.issues) == 1
        assert f"{key} must be a JSON array" in result.issues[0][1]

    OFFSET = "timestamp {!r} carries a UTC offset; timestamps must be naive"
    UNPARSED = "bad timestamp {!r}"

    # The Z suffix, a basic-form time and a one-digit fraction parse on
    # Python 3.11 but not on 3.10; they are bad timestamps on both.
    @pytest.mark.parametrize("stamp, reason", [
        ("2024-01-10T19:00:00+02:00", OFFSET),
        ("2024-01-10T19:00:00Z", UNPARSED),
        ("2024-01-10T1900", UNPARSED),
        ("2024-01-10T19:00:00.5", UNPARSED),
        ("20240110T19:00:00", UNPARSED),
        ("2024-01-10 at 7pm", UNPARSED),
        (None, UNPARSED),
    ], ids=["offset", "z-suffix", "basic-time", "short-fraction", "basic-date", "unparsed", "null"])
    def test_offset_or_unparsed_timestamp_rejected(self, tmp_path, stamp, reason):
        path = tmp_path / "i.jsonl"
        path.write_text(self.imp_line() + "\n" + self.imp_line(timestamp=stamp) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert [i.timestamp for i in result.records] == [datetime(2024, 1, 10, 9, 30)]
        assert result.issues == [(1, "bad impression record: " + reason.format(stamp))]

    @pytest.mark.parametrize("stamp, expected", [
        ("2024-01-10", datetime(2024, 1, 10)),
        ("2024-01-10 07", datetime(2024, 1, 10, 7)),
        ("2024-01-10T07:05", datetime(2024, 1, 10, 7, 5)),
        ("2024-01-10T07:05:09.250", datetime(2024, 1, 10, 7, 5, 9, 250000)),
        ("2024-01-10T07:05:09.000250", datetime(2024, 1, 10, 7, 5, 9, 250)),
    ])
    def test_python_3_10_timestamp_forms_read(self, tmp_path, stamp, expected):
        path = tmp_path / "i.jsonl"
        path.write_text(self.imp_line(timestamp=stamp) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert result.issues == []
        assert [i.timestamp for i in result.records] == [expected]

    @pytest.mark.parametrize("over, key", [
        ({"member_id": None}, "member_id"),
        ({"member_id": ""}, "member_id"),
        ({"member_id": False}, "member_id"),
        ({"member_id": float("-inf")}, "member_id"),
        ({"offers_shown": [None], "clipped": []}, "offers_shown"),
        ({"offers_shown": ["o1", {}], "clipped": []}, "offers_shown"),
        ({"offers_shown": ["o1", ""], "clipped": []}, "offers_shown"),
        ({"clipped": [None]}, "clipped"),
        ({"clipped": [True]}, "clipped"),
    ], ids=repr)
    def test_null_empty_and_non_scalar_ids_tallied(self, tmp_path, over, key):
        path = tmp_path / "i.jsonl"
        path.write_text(self.imp_line() + "\n" + self.imp_line(**over) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert [i.member_id for i in result.records] == ["m1"]
        assert [idx for idx, _ in result.issues] == [1]
        assert key in result.issues[0][1]

    def test_empty_shown_rejected(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text(self.imp_line(offers_shown=[], clipped=[]) + "\n", encoding="utf-8")
        result = ingest_impressions(path)
        assert result.records == []
        assert len(result.issues) == 1


class TestMFScores:
    def test_parse_and_default(self, tmp_path):
        path = tmp_path / "mf.csv"
        path.write_text(
            "member_id,offer_id,score\nm1,o1,0.7\nm1,o2,-0.25\n", encoding="utf-8"
        )
        table, issues = ingest_mf_scores(path, default_score=0.1)
        assert issues == []
        assert table.score("m1", "o1") == 0.7
        assert table.score("m1", "o2") == -0.25
        assert table.score("mX", "o1") == 0.1
        assert len(table) == 2

    def test_duplicate_rows_last_wins(self, tmp_path):
        path = tmp_path / "mf.csv"
        path.write_text(
            "member_id,offer_id,score\nm1,o1,0.1\nm1,o1,0.9\n", encoding="utf-8"
        )
        table, _ = ingest_mf_scores(path)
        assert table.score("m1", "o1") == 0.9

    def test_bad_rows_tallied(self, tmp_path):
        path = tmp_path / "mf.csv"
        path.write_text(
            "member_id,offer_id,score\nm1,o1,not-a-number\nm1,o1\nm1,o2,0.5\n"
            "m1,o3,nan\nm1,o4,inf\nm1,o5,-Infinity\n",
            encoding="utf-8",
        )
        table, issues = ingest_mf_scores(path)
        assert len(table) == 1
        assert [idx for idx, _ in issues] == [0, 1, 3, 4, 5]

    def test_empty_ids_tallied(self, tmp_path):
        path = tmp_path / "mf.csv"
        path.write_text("member_id,offer_id,score\n,o1,0.5\nm1,,0.25\n , o2,0.1\nm1,o3,0.7\n", encoding="utf-8")
        table, issues = ingest_mf_scores(path)
        assert table.entries == {("m1", "o3"): 0.7}
        assert issues == [(0, "empty id field"), (1, "empty id field"), (2, "empty id field")]

    def test_bad_header_is_fatal(self, tmp_path):
        path = tmp_path / "mf.csv"
        path.write_text("member,offer,score\nm1,o1,0.5\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            ingest_mf_scores(path)


def read_state(path):
    return read_state_file(path, "state", 1, 0, ("t",), lambda t: None, list)


OFFER = {"offer_id": "o1", "category_ids": ["c1"], "discount_value": 1.0,
         "start_date": "2024-01-01", "end_date": "2024-01-31", "num_items": 1}
IMPRESSION = {"timestamp": "2024-01-10T09:30:00", "member_id": "m1", "offers_shown": ["o1"]}


@pytest.mark.parametrize("read, text", [
    (ingest_transactions, HEADER + "m1,c1,b1,2024-01-05,1\nm1,c1,b1,20240105,1\nm2,c2,b2,2024-01-03,2\n"),
    (ingest_offers, f"{json.dumps(OFFER)}\nnot json\n{json.dumps(dict(OFFER, offer_id='o2'))}\n"),
    (ingest_impressions, f"{json.dumps(IMPRESSION)}\n[]\n{json.dumps(dict(IMPRESSION, member_id='m2'))}\n"),
    (ingest_mf_scores, "member_id,offer_id,score\nm1,o1,0.5\nm1,o2,nan\nm2,o1,-1\n"),
    (read_state, '{"feature_order_version": 1}\n{"t": 1}\n{"t": 2}\n'),
], ids=["transactions", "offers", "impressions", "mf_scores", "state"])
def test_leading_byte_order_mark_is_ignored(tmp_path, read, text):
    # Excel's "CSV UTF-8" export and Notepad start a file with one.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert read(marked) == read(plain)


def test_catalog_orphans_flag_unknown_offers():
    offers = [Offer("o1", frozenset({"c"}), frozenset(), 1.0,
                    date(2024, 1, 1), date(2024, 1, 31), 1)]
    imps = [
        Impression(datetime(2024, 1, 5, 9), "m1", ("o1",), frozenset()),
        Impression(datetime(2024, 1, 6, 9), "m1", ("o1", "oX"), frozenset()),
    ]
    issues = catalog_orphan_issues(IngestResult(imps, [], [0, 1]), offers)
    assert issues == [(1, "unknown offer oX in impression")]


def test_validation_report_format(tmp_path):
    path = tmp_path / "report.jsonl"
    write_validation_report(path, [(3, "bad row"), (7, "worse row")])
    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert lines == [
        {"record_index": 3, "reason": "bad row"},
        {"record_index": 7, "reason": "worse row"},
    ]


def test_generate_dataset_is_self_consistent(tmp_path):
    paths = generate_dataset(tmp_path, seed=9, n_impressions=60)
    tx = ingest_transactions(paths["transactions"])
    offers = ingest_offers(paths["offers"])
    imps = ingest_impressions(paths["impressions"])
    assert tx.issues == [] and offers.issues == [] and imps.issues == []
    assert catalog_orphan_issues(imps, offers.records) == []
    catalog = {o.offer_id: o for o in offers.records}
    for imp in imps.records:
        for oid in imp.offers_shown:
            assert catalog[oid].active_on(imp.timestamp.date())


def test_generate_dataset_rejects_unknown_size_names(tmp_path):
    with pytest.raises(TypeError, match="n_member"):
        generate_dataset(tmp_path, seed=0, n_member=3, n_impression=10)
    assert not any(tmp_path.iterdir())
    paths = generate_dataset(tmp_path, seed=0, n_members=3, n_impressions=10)
    imps = ingest_impressions(paths["impressions"]).records
    assert len(imps) == 10 and {imp.member_id for imp in imps} <= {"m000", "m001", "m002"}
