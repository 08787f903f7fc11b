"""Property tests: the columnar trace against the row path it replaced, the
cached and templated trace paths, the CSV table format, the record codec, the
amplifier distance matrix and the whole detection chain against the
straightforward implementations in oracles.py, plus invariants of
detection and of the order of a trace's table of values."""

import copy
import dataclasses
import json
import math
import re
from array import array
from datetime import date, datetime, timedelta, timezone
from itertools import compress
from operator import not_

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnsamp import amplifiers as amp
from dnsamp import cli
from dnsamp import detector as det
from dnsamp import fileio
from dnsamp import fingerprint as fp
from dnsamp import honeypot as hp
from dnsamp import pipeline
from dnsamp import selectors as sel
from dnsamp import synth
from dnsamp import trace as tr
from oracles import (aggregate_client_days_rows, annotate_rows, benign_client_records_reference,
                     consensus_reference, csv_table_reference, detection_reference,
                     event_from_obj_reference, event_to_obj_reference, ingest_stats_rows,
                     jaccard_distance_matrix_reference, lpm_reference, nscount_shares_rows,
                     parity_alternation_period_reference, parse_trace_reference,
                     parse_trace_rows, record_is_valid_reference, sanitize_reference,
                     sanitize_rows,
                     selector_any_volume_rows, selector_ground_truth_rows,
                     selector_max_size_rows, selector_rankings_reference,
                     serialize_trace_rows, trace_line_reference,
                     visibility_curve_reference)

# Small pools so that keys repeat within one trace, as they do in real ones.
ADDRESSES = ("10.0.0.1", "192.0.2.53", "198.18.0.7", "2001:db8::1", "::1",
             "256.1.1.1", "10.0.0", "not-an-ip", "", "2001:db8::zz", " 10.0.0.1",
             # dotted quads at the edges of the canonical IPv4 form
             "010.0.0.1", "1.2.3.04", "0.0.0.0", "255.255.255.255", "10.0.0.1\n",
             "\uff11.2.3.4", "\u0661.\u0662.\u0663.\u0664", "::ffff:10.0.0.1")
QNAMES = ("example.com.", "Example.COM", "www.example.com", ".", "", "  ",
          "a..b.", "-.", "x" * 63 + ".", "x" * 64 + ".", ".".join(["y" * 60] * 5),
          "ünïcode.example.", 'quote".example.', "back\\slash.", "tab\there.",
          "ctl\x01.", "emoji\U0001f600.", "del\x7f.")

finite_ts = st.floats(min_value=-1e9, max_value=4e9, allow_nan=False)
# the first and last ts of 0001-01-01 to 9999-12-31 UTC, and one beyond each
TS_EDGES = (-62135596800.0, math.nextafter(253402300800.0, 0),
            math.nextafter(-62135596800.0, -math.inf), 253402300800.0)
any_ts = st.one_of(finite_ts, st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 1e12,
                                               *TS_EDGES]),
                   st.integers(0, 4 * 10 ** 9), finite_ts.map(np.float64))
as_field = st.one_of(st.none(), st.integers(0, 2 ** 32))


@st.composite
def records(draw, ts=any_ts, bools_as_ints=True):
    def number(lo, hi):
        values = st.integers(lo, hi)
        return st.one_of(values, st.booleans()) if bools_as_ints else values

    qr = draw(st.booleans())
    server_port = draw(st.sampled_from([53, 53, 53, 5353, -1, 70000]))
    client_port = draw(st.one_of(st.integers(-2, 70000), st.just(53)))
    return tr.PacketRecord(
        ts=draw(ts),
        src_ip=draw(st.sampled_from(ADDRESSES)),
        dst_ip=draw(st.sampled_from(ADDRESSES)),
        src_port=server_port if qr else client_port,
        dst_port=client_port if qr else server_port,
        ip_ttl=draw(number(-1, 300)),
        ip_id=draw(number(-3, 70000)),
        udp_len=draw(number(0, 600)),
        is_response=qr,
        dns_id=draw(number(-3, 70000)),
        qname=draw(st.one_of(st.sampled_from(QNAMES), st.text(max_size=12))),
        qtype=draw(st.one_of(st.sampled_from([1, 28, 255]), number(-3, 70000))),
        rcode=draw(number(-1, 17)),
        ancount=draw(st.integers(-1, 40)),
        nscount=draw(st.integers(-1, 40)),
        src_as=draw(as_field),
        dst_as=draw(as_field),
    )


traces = st.lists(records(), max_size=20)


def sanitized_copy(batch):
    kept, _ = tr.sanitize(copy.deepcopy(batch))
    return kept


@given(traces)
def test_sanitize_matches_reference(batch):
    ours_in, reference_in = copy.deepcopy(batch), copy.deepcopy(batch)
    kept, dropped = tr.sanitize(ours_in)
    kept_ref, dropped_ref = sanitize_reference(reference_in)
    assert dropped == dropped_ref
    assert [tr.record_to_obj(r) for r in kept] == [tr.record_to_obj(r) for r in kept_ref]
    # neither rewrites the qnames it was given
    assert [r.qname for r in ours_in] == [r.qname for r in reference_in] == \
        [r.qname for r in batch]


@given(traces)
def test_sanitize_is_idempotent(batch):
    kept = sanitized_copy(batch)
    again, dropped = tr.sanitize(list(kept))
    assert dropped == 0
    assert again == kept


@given(traces)
def test_serialize_matches_json_dumps(batch):
    assert list(tr.serialize_trace(batch)) == [trace_line_reference(r) for r in batch]


# the fields of parsed records: a bool in an integer field is written as
# true/false, which parse_trace rejects
@given(st.lists(records(ts=finite_ts, bools_as_ints=False), max_size=20))
def test_parse_after_serialize_is_identity(batch):
    kept = sanitized_copy(batch)
    lines = list(tr.serialize_trace(kept))
    parsed, skipped = tr.parse_trace(lines)
    assert skipped == 0
    assert parsed == kept
    assert list(tr.serialize_trace(parsed)) == lines


# Ways a trace line goes wrong, or stays right in a form the writer never uses.
LINE_EDITS = {
    "as-written": lambda line: line,
    "bom": lambda line: "\ufeff" + line,
    "trailing-garbage": lambda line: line + "x",
    "second-value": lambda line: line + " {}",
    "cut-short": lambda line: line[:-1],
    "repeated-key": lambda line: line[:-1] + ',"ts":7}',
    "in-a-list": lambda line: f"[{line}]",
    "over-digit-limit": lambda line: line.replace('"ip_id":', '"ip_id":' + "9" * 5000 + ',"x":'),
    "ts-over-float-range": lambda line: line.replace('"ts":', '"ts":' + "9" * 400 + ',"y":'),
    "qr-as-0-1": lambda line: line.replace('"qr":true', '"qr":1').replace('"qr":false', '"qr":0'),
    "qr-as-2": lambda line: line.replace('"qr":true', '"qr":2').replace('"qr":false', '"qr":-1'),
    "nan": lambda line: line.replace('"ancount":', '"ancount":NaN,"z":'),
    "infinity": lambda line: line.replace('"nscount":', '"nscount":-Infinity,"z":'),
    "inner-whitespace": lambda line: line.replace(":", " :\t", 3).replace(",", "\r, ", 2),
    "json-whitespace": lambda line: " \t" + line + "\r\x0c",
    "python-whitespace": lambda line: "\xa0\x1c" + line + "\u3000\x85",
    "zero-width-space": lambda line: line + "\u200b",
}
CONSTANT_LINES = ("[" * 3000 + "]" * 3000, '{"a":' * 3000 + "1" + "}" * 3000, "5", '"text"',
                  "null", "true", "{}", "", "   ", "NaN", "[]")


@pytest.mark.parametrize("edit", LINE_EDITS)
@settings(max_examples=15)
# mostly lines that parse before their edit
@given(st.lists(st.one_of(records(ts=finite_ts, bools_as_ints=False), records()),
                min_size=1, max_size=6),
       st.lists(st.sampled_from(CONSTANT_LINES), max_size=2))
def test_parse_matches_json_loads_reader(edit, batch, constants):
    lines = [LINE_EDITS[edit](line) for line in tr.serialize_trace(batch)] + constants
    records, skipped = tr.parse_trace(lines)
    records_ref, skipped_ref = parse_trace_reference(lines)
    assert skipped == skipped_ref
    valid = list(map(record_is_valid_reference, records_ref))
    # serialized, because a nan ts never equals itself
    assert list(tr.serialize_trace(records)) == \
        list(tr.serialize_trace(list(compress(records_ref, valid))))
    assert list(tr.serialize_trace(records.dropped)) == \
        list(tr.serialize_trace(list(compress(records_ref, map(not_, valid)))))


# --- the columnar trace against the row path --------------------------------

PREFIXES = [("0.0.0.0/1", 1), ("10.0.0.0/8", 2), ("192.0.2.0/24", 3), ("2001:db8::/32", 4)]


def rankings(records, windows):
    return (sel.selector_max_size(records).ranked, sel.selector_any_volume(records).ranked,
            sel.selector_ground_truth(records, windows, slack_s=60.0).ranked)


def rankings_rows(records, windows):
    return (selector_max_size_rows(records), selector_any_volume_rows(records),
            selector_ground_truth_rows(records, windows, 60.0))


VALID_ADDRESSES = ("10.0.0.1", "192.0.2.53", "198.18.0.7", "2001:db8::1", "::1", "0.0.0.0",
                   "255.255.255.255", "::ffff:10.0.0.1")


@st.composite
def valid_records(draw):
    """Records that sanitize keeps, their values often at the edges of their
    ranges."""
    qr = draw(st.booleans())
    client_port = draw(st.integers(0, 65535).filter(lambda port: port != 53))
    return tr.PacketRecord(
        ts=draw(finite_ts), src_ip=draw(st.sampled_from(VALID_ADDRESSES)),
        dst_ip=draw(st.sampled_from(VALID_ADDRESSES)),
        src_port=53 if qr else client_port, dst_port=client_port if qr else 53,
        ip_ttl=draw(st.integers(0, 255)), ip_id=draw(st.integers(0, 65535)),
        udp_len=draw(st.integers(8, 600)), is_response=qr, dns_id=draw(st.integers(0, 65535)),
        qname=draw(st.sampled_from(QNAMES)),
        qtype=draw(st.one_of(st.sampled_from([1, 28, 255]), st.integers(0, 65535))),
        rcode=draw(st.integers(0, 15)), ancount=draw(st.integers(0, 40)),
        nscount=draw(st.one_of(st.sampled_from([1, 2, 10, 11]), st.integers(0, 40))),
        src_as=draw(as_field), dst_as=draw(as_field))


mixed_records = st.one_of(valid_records(), records(ts=finite_ts, bools_as_ints=False),
                          records())
victim_windows = st.lists(st.builds(
    hp.HoneypotEvent, victim_ip=st.sampled_from(ADDRESSES), start=finite_ts,
    end=finite_ts, request_count=st.just(5), sensor_ids=st.just(("s1",))), max_size=4)


# Lines of sound, invalid (a nan ts, an out-of-range field, a bad address)
# and malformed (a bool in an integer field) records, written by the row
# path's serializer.
@settings(max_examples=120)
@given(st.lists(mixed_records, max_size=25),
       st.sets(st.sampled_from(QNAMES).map(tr.normalize_qname), max_size=6), victim_windows)
def test_columnar_trace_matches_row_path(batch, names, windows):
    lines = list(serialize_trace_rows(copy.deepcopy(batch)))
    trace, skipped = tr.parse_trace(lines)
    rows, skipped_rows = parse_trace_rows(lines)
    assert skipped == skipped_rows
    # the trace's rows are the valid records, the others are set aside
    valid = list(map(record_is_valid_reference, rows))
    assert list(tr.serialize_trace(trace)) == list(serialize_trace_rows(compress(rows, valid)))
    assert list(tr.serialize_trace(trace.dropped)) == \
        list(serialize_trace_rows(compress(rows, map(not_, valid))))
    kept_rows, dropped_rows = sanitize_rows(rows)
    assert rankings(trace, windows) == rankings_rows(kept_rows, windows)
    table = tr.PrefixTable(PREFIXES)
    tr.annotate(trace, table)
    annotate_rows(kept_rows, table)
    assert list(tr.serialize_trace(trace)) == list(serialize_trace_rows(kept_rows))
    kept, dropped = tr.sanitize(trace)
    assert dropped == dropped_rows
    assert list(tr.serialize_trace(kept)) == list(serialize_trace_rows(kept_rows))
    assert pipeline.prepare(lines)["ingest_stats.json"] == ingest_stats_rows(lines)
    assert det.aggregate_client_days(kept, names) == aggregate_client_days_rows(kept_rows, names)
    assert rankings(kept, windows) == rankings_rows(kept_rows, windows)
    report = pipeline.report([], names, kept)["report.json"]
    assert (report["nscount_le1_share"], report["nscount_le10_share"]) == \
        nscount_shares_rows(kept_rows)


# Hand-built records, as tests, demos and synth pass them: a consumer of a
# list reads the records that sanitize keeps, their qnames normalized, and
# leaves the list as it was.
@settings(max_examples=120)
@given(st.lists(mixed_records, max_size=25), st.sets(st.sampled_from(QNAMES), max_size=6),
       victim_windows)
def test_consumers_of_hand_built_records_match_row_path(batch, names, windows):
    given_records = copy.deepcopy(batch)
    assert list(tr.serialize_trace(batch)) == list(serialize_trace_rows(batch))
    kept_rows, dropped_rows = sanitize_rows(copy.deepcopy(batch))
    assert rankings(batch, windows) == rankings_rows(kept_rows, windows)
    assert det.aggregate_client_days(batch, names) == \
        aggregate_client_days_rows(kept_rows, names)
    kept, dropped = tr.sanitize(batch)
    adopted_kept, adopted_dropped = tr.sanitize(tr.as_trace(batch))
    assert dropped == adopted_dropped == dropped_rows
    assert list(tr.serialize_trace(kept)) == list(tr.serialize_trace(adopted_kept)) == \
        list(serialize_trace_rows(kept_rows))
    assert batch == given_records
    ours, theirs = copy.deepcopy(batch), copy.deepcopy(batch)
    table = tr.PrefixTable(PREFIXES)
    assert tr.annotate(ours, table) is ours
    annotate_rows(theirs, table)
    assert ours == theirs


@given(st.lists(mixed_records, max_size=25))
def test_trace_rows_are_the_valid_records(batch):
    trace = tr.Trace.of(batch)
    assert all(map(record_is_valid_reference, trace))
    assert list(map(id, trace.dropped)) == \
        [id(record) for record in batch if not record_is_valid_reference(record)]
    assert list(tr.serialize_trace(trace)) == \
        list(tr.serialize_trace(sanitize_reference(batch)[0]))


# Lines of sound, invalid and malformed records, each as written or edited.
edited_records = st.tuples(mixed_records, st.sampled_from(["as-written"] * 3 + sorted(LINE_EDITS)))


# What ingest writes beside annotated.jsonl loads as ingest's own trace, its
# table as it is, and that equals a parse of the file's lines row for row,
# serialized alike, nothing dropped and nothing skipped.
@settings(max_examples=60)
@given(st.lists(edited_records, max_size=25), st.lists(st.sampled_from(CONSTANT_LINES),
                                                       max_size=2), st.booleans())
def test_loaded_columns_equal_the_parse(tmp_path_factory, edited, constants, annotated):
    lines = [LINE_EDITS[edit](line) for line, (_, edit)
             in zip(tr.serialize_trace([record for record, _ in edited]), edited)] + constants
    out = tmp_path_factory.mktemp("ingest")
    result = pipeline.prepare(lines, tr.PrefixTable(PREFIXES) if annotated else None)
    cli._write(result, out)
    path = out / "annotated.jsonl"
    assert tr._load_columns(str(path)) is not None
    trace, skipped = tr.parse_trace(path)
    parsed, parse_skipped = tr.parse_trace(path.read_text(encoding="utf-8").splitlines())
    assert (skipped, parse_skipped) == (0, 0)
    assert trace.columns == result["annotated.jsonl"].columns
    assert trace.values == result["annotated.jsonl"].values
    assert list(trace) == list(parsed)
    assert trace.dropped == parsed.dropped == []
    assert list(tr.serialize_trace(trace)) == list(tr.serialize_trace(parsed))


def read_jsonl_reference(path):
    """([(line number, json.dumps of the value)], line number of the first
    line json.loads rejects or None), over the file's lines as Python's text
    reader splits them."""
    values = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                values.append((lineno, json.dumps(json.loads(line.strip()))))
            except (ValueError, RecursionError):
                return values, lineno
    return values, None


@pytest.mark.parametrize("edit", LINE_EDITS)
@settings(max_examples=15)
@given(st.lists(st.one_of(records(ts=finite_ts, bools_as_ints=False), records()),
                min_size=1, max_size=6),
       st.lists(st.sampled_from(CONSTANT_LINES), max_size=2))
def test_read_jsonl_matches_json_loads(tmp_path_factory, edit, batch, constants):
    lines = [LINE_EDITS[edit](line) for line in tr.serialize_trace(batch)] + constants
    path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected, bad_line = read_jsonl_reference(path)
    values = []
    try:
        # json.dumps, because a nan never equals itself; a pathlib path opens
        # as a string path does
        values.extend((lineno, json.dumps(value))
                      for lineno, value in fileio.read_jsonl(path))
        error = None
    except ValueError as exc:
        error = str(exc)
    assert values == expected
    if bad_line is None:
        assert error is None
    else:
        assert error is not None and re.match(rf"{re.escape(str(path))} line {bad_line}"
                                              rf"( column \d+)?: \S", error), error


@pytest.mark.parametrize("address", ADDRESSES)
def test_lookup_matches_linear_scan(address):
    table = [("0.0.0.0/0", 1), ("10.0.0.0/8", 2), ("10.0.0.1/32", 3), ("1.2.3.0/24", 4),
             ("255.255.255.254/31", 5), ("2001:db8::/32", 6), ("::/0", 7), ("::ffff:0:0/96", 8)]
    assert tr.PrefixTable(table).lookup(address) == lpm_reference(address, table)


def utc_day_reference(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


near_midnight = st.builds(lambda day, offset: day * 86400 + offset,
                          st.integers(-20000, 50000),
                          st.floats(min_value=-2e-6, max_value=2e-6))


@given(st.one_of(finite_ts, near_midnight, st.integers(-10 ** 9, 4 * 10 ** 9)))
def test_day_matches_fromtimestamp(ts):
    record = tr.PacketRecord(ts, "10.0.0.1", "192.0.2.1", 5353, 53, 60, 1, 64,
                             False, 1, "a.", 1, 0, 0, 0)
    assert record.day == utc_day_reference(ts)


def test_day_at_last_microsecond_rounds_into_next_day():
    ts = 86400 * 18000 - 4e-7
    assert utc_day_reference(ts) == "2019-04-14"
    assert tr.PacketRecord(ts, "10.0.0.1", "192.0.2.1", 5353, 53, 60, 1, 64,
                           False, 1, "a.", 1, 0, 0, 0).day == "2019-04-14"


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30),
       st.sampled_from([25, 50, 75, 90]))
def test_percentile_matches_numpy(values, p):
    ours = det._percentile(sorted(values), p)
    with np.errstate(invalid="ignore"):  # infinities make numpy compute inf - inf
        theirs = float(np.percentile(np.array(values, dtype=float), p))
    assert repr(ours) == repr(theirs)


# days drawn from a short range, so that the axis has gaps and a day repeats
parity_days = st.lists(st.tuples(
    st.integers(0, 40).map(lambda k: (date(2019, 6, 1) + timedelta(days=k)).isoformat()),
    st.sampled_from([-1, 0, 1])), max_size=30)


@given(parity_days, st.one_of(st.none(), st.integers(-1, 45)))
def test_parity_period_matches_numpy(daily_parity, max_lag):
    assert fp.parity_alternation_period(daily_parity, max_lag) == \
        parity_alternation_period_reference(daily_parity, max_lag)


def tables(cell):
    """(header, rows) of one width, 2 to 6 columns. A row whose only field is
    empty is written as "" so that it differs from a blank line; two or more
    columns keep that case out of the byte-for-byte comparison."""
    return st.integers(2, 6).flatmap(lambda width: st.tuples(
        st.just(tuple(f"col{i}" for i in range(width))),
        st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8)))


plain_text = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)
plain_cell = st.one_of(st.none(), st.integers(), plain_text,
                       st.floats(allow_nan=False, allow_infinity=False))


@given(tables(plain_cell))
def test_write_csv_matches_fstring_writer(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    fileio.write_csv(str(path), header, rows)
    assert path.read_bytes() == csv_table_reference(header, rows).encode("utf-8")


# Members of any hashable type from a pool of about 200, so that the members
# of a family span several 64-bit words.
members = st.one_of(st.integers(0, 150), st.integers(0, 40).map(lambda i: f"198.18.0.{i}"),
                    st.tuples(st.integers(0, 3), st.integers(0, 3)))


@st.composite
def set_families(draw):
    """Up to 16 sets, some empty, some repeating an earlier one, after a
    large leading set when one is drawn."""
    sets = draw(st.lists(st.frozensets(st.integers(0, 150), min_size=64, max_size=120),
                         max_size=1))
    sets += draw(st.lists(st.frozensets(members, max_size=40), max_size=12))
    repeats = draw(st.lists(st.integers(0, max(len(sets) - 1, 0)), max_size=3))
    return sets + [sets[i] for i in repeats if sets]


# Inputs the strategy rarely draws.
SET_FAMILY_EXAMPLES = [
    [frozenset(range(20))] * 300,
    [frozenset(), frozenset({1, 2}), frozenset(), frozenset(), frozenset({2, 3}),
     frozenset(), frozenset({1, 2})],
    [frozenset(range(i, i + 40)) for i in range(30)],  # every pair overlaps
    [],
    [frozenset({"a"})],
    [frozenset()],
    # the second and third sets overlap each other and the first
    [frozenset(range(100)), frozenset(range(70, 90)), frozenset(range(80, 130))],
]


def set_family_examples(test):
    for sets in reversed(SET_FAMILY_EXAMPLES):
        test = example(sets)(test)
    return test


@given(set_families())
@set_family_examples
def test_jaccard_distance_matrix_matches_reference(sets):
    rows = amp.jaccard_distance_matrix(sets)
    # n rows of n: the reshape fails on any other row length, also for n = 0
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(rows))
    reference = jaccard_distance_matrix_reference(sets)
    assert matrix.shape == reference.shape == (len(sets), len(sets))
    assert np.array_equal(matrix.view(np.uint64), reference.view(np.uint64))
    # DBSCAN visits each neighborhood in this order, read from the stored entries
    for eps in (0.0, 0.5, math.nextafter(1.0, 0.0)):
        assert rows.neighborhoods(eps) == [[j for j, d in enumerate(row) if d <= eps]
                                           for row in reference.tolist()]


@given(set_families())
@set_family_examples
def test_write_stored_distance_matrix_matches_write_csv(tmp_path_factory, sets):
    # each written row is built from the stored entries alone
    directory = tmp_path_factory.mktemp("matrix")
    amp.write_distance_matrix(amp.jaccard_distance_matrix(sets), str(directory / "matrix.csv"))
    fileio.write_csv(str(directory / "reference.csv"), None,
                     jaccard_distance_matrix_reference(sets).tolist())
    assert (directory / "matrix.csv").read_bytes() == \
        (directory / "reference.csv").read_bytes()


special_floats = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                  -2.2250738585072e-308, 1.0, 1 / 3])
float_matrices = st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.one_of(special_floats, st.floats()), min_size=width, max_size=width),
    max_size=6).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width)))


@given(float_matrices)
def test_write_float_csv_matches_write_csv(tmp_path_factory, matrix):
    directory = tmp_path_factory.mktemp("matrix")
    fileio.write_float_csv(str(directory / "matrix.csv"), matrix.tolist())
    fileio.write_csv(str(directory / "reference.csv"), None, matrix.tolist())
    assert (directory / "matrix.csv").read_bytes() == \
        (directory / "reference.csv").read_bytes()


@given(st.one_of(tables(st.text(max_size=8)),
                 st.tuples(st.just(("col0",)), st.lists(st.lists(st.text(max_size=8),
                                                                  min_size=1, max_size=1)))))
def test_read_csv_inverts_write_csv(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    fileio.write_csv(str(path), header, rows)
    assert [fields for _, fields in fileio.read_csv(str(path), "COL0")] == rows


# --- the record codec ------------------------------------------------------

numbers = st.one_of(st.floats(allow_nan=False), st.integers(-10 ** 20, 10 ** 20))
texts = st.text(max_size=6)
int_tuples = st.lists(st.integers(-3, 70000), max_size=6).map(tuple)
# the times read_events takes: 0001-01-01 to 9999-12-31 UTC
event_times = st.one_of(st.floats(-62135596800.0, 253402300800.0, exclude_max=True),
                        st.integers(-62135596800, 253402300799))
# the days read_events takes: YYYY-MM-DD
iso_days = st.dates().map(date.isoformat)

events = st.builds(
    det.AttackEvent,
    victim_ip=texts, day=iso_days, packet_count=st.integers(), misused_packet_count=st.integers(),
    est_original_packets=st.integers(), est_misused_packets=st.integers(),
    share=numbers, share_excluding_root=numbers, first_ts=event_times, last_ts=event_times,
    request_count=st.integers(), response_count=st.integers(),
    qname_counts=st.dictionaries(texts, st.integers(), max_size=3),
    amplifier_set=st.lists(texts, max_size=4).map(tuple),
    dns_ids=int_tuples, req_ip_ids=int_tuples, req_src_ports=int_tuples, req_dns_ids=int_tuples,
    ingress_as_counts=st.dictionaries(st.integers(-5, 2 ** 32), st.integers(), max_size=3),
    victim_as=st.one_of(st.none(), st.integers()),
    intensity_decile=st.one_of(st.none(), st.integers(1, 10)))


@given(st.lists(events, max_size=5))
def test_event_lines_match_reference(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("events") / "attacks.jsonl"
    det.write_events(batch, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(event_to_obj_reference(e), separators=(",", ":"))
                     for e in batch]
    assert det.read_events(str(path)) == batch
    assert [event_from_obj_reference(json.loads(line)) for line in lines] == batch


honeypot_events = st.builds(
    hp.HoneypotEvent, victim_ip=texts, start=numbers, end=numbers,
    request_count=st.integers(), sensor_ids=st.lists(texts, max_size=3).map(tuple),
    intensity_decile=st.one_of(st.none(), st.integers(1, 10)))

attack_truths = st.builds(
    synth.AttackTruth, attack_id=texts, victim_ip=texts, qname=texts, start_ts=numbers,
    end_ts=numbers, qps=numbers, dns_id_mode=texts, entity=st.one_of(st.none(), texts),
    honeypot_visible=st.booleans(), original_packets=st.integers(),
    sampled_packets=st.integers(), sampled_requests=st.integers(),
    sampled_responses=st.integers(),
    daily_packets=st.dictionaries(texts, st.integers(), max_size=3),
    daily_amplifiers=st.dictionaries(texts, st.lists(texts, max_size=3).map(tuple), max_size=3))

attack_specs = st.builds(
    synth.AttackSpec, victim_ip=st.sampled_from(["10.1.0.5", "10.2.0.9"]),
    qname=st.sampled_from(["alpha.example.", "Beta.Example"]),
    qps=st.one_of(st.integers(1, 10 ** 4), st.floats(0.5, 1e4)),
    start_s=st.one_of(st.just(0), st.floats(0, 1000)), duration_s=st.floats(1, 1000),
    amplifiers_per_attack=st.integers(1, 20),
    dns_id_mode=st.sampled_from(synth.DNS_ID_MODES), request_fraction=st.floats(0, 1),
    entity=st.one_of(st.none(), texts), dns_id_pool=st.one_of(st.none(), st.integers(1, 9)))

# each number within the range ScenarioConfig accepts for its field
rates = st.one_of(st.floats(0, 1e18), st.integers(0, 2 ** 62))
fractions = st.one_of(st.floats(0, 1), st.integers(0, 1))
scenarios = st.builds(
    synth.ScenarioConfig, seed=st.integers(0, 2 ** 64), duration_days=st.integers(1, 3),
    attacks=st.lists(attack_specs, max_size=3).map(tuple),
    background_clients=st.integers(0, 10 ** 6),
    background_daily_rate=st.tuples(rates, rates).map(sorted).map(tuple),
    background_any_fraction=fractions, sensor_coverage=st.tuples(fractions, fractions),
    honeypot_requests_per_sensor=st.integers(5, 10 ** 6))


@given(st.one_of(honeypot_events, attack_truths))
def test_from_obj_inverts_to_obj(record):
    obj = json.loads(json.dumps(fileio.to_obj(record)))
    assert fileio.from_obj(type(record), obj, "record") == record


# to_obj is one level deep, so a scenario, which nests its attacks, is
# written with dataclasses.asdict
@given(scenarios)
def test_scenario_from_obj_inverts_asdict(scenario):
    obj = json.loads(json.dumps(dataclasses.asdict(scenario)))
    assert synth.scenario_from_obj(obj) == scenario


labels = st.text("abcdefghij-0123456789", min_size=1, max_size=12)
qnames = st.lists(labels, min_size=1, max_size=3).map(lambda parts: ".".join(parts) + ".")
windows = st.tuples(st.floats(1.5e9, 1.6e9), st.floats(1e-3, 2 * 86400.0)).map(
    lambda span: (span[0], span[0] + span[1]))


@given(st.integers(0, 2 ** 64 - 1), texts, st.integers(0, 40), windows,
       st.lists(qnames, min_size=1, max_size=300), st.floats(0, 1))
@example(7, "background/0/0", 1, (1.5e9, 1.5e9 + 86400.0), ["bg000.example."], 0.02)
def test_benign_client_records_match_reference(seed, tag, count, window, names, any_fraction):
    cfg = synth.ScenarioConfig(seed=seed, duration_days=1, background_any_fraction=any_fraction)
    got = synth._benign_client_records(cfg, "172.16.0.9", tag, count, window,
                                       synth._BenignTables(names))
    want = benign_client_records_reference(seed, "172.16.0.9", tag, count, window, names,
                                           any_fraction)
    assert got == want
    # builtin values, so the records serialize as the reference's do
    assert [[type(value) for value in dataclasses.astuple(r)] for r in got] == \
        [[type(value) for value in dataclasses.astuple(r)] for r in want]


# synth draws several rows of one distribution in one call; that holds only
# while numpy fills bounded integers and doubles element by element
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.tuples(st.integers(-2 ** 31, 2 ** 31), st.integers(1, 2 ** 32)),
                min_size=1, max_size=6),
       st.integers(1, 20))
def test_stacked_draws_match_one_draw_per_row(seed, bounds, count):
    lows = np.array([[low] for low, _ in bounds])
    highs = np.array([[low + width] for low, width in bounds])
    stacked, per_row = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    integers = stacked.integers(lows, highs, size=(len(bounds), count)).tolist()
    doubles = stacked.random((len(bounds), count)).tolist()
    assert integers == [per_row.integers(low, high, size=count).tolist()
                        for (low,), (high,) in zip(lows.tolist(), highs.tolist())]
    assert doubles == [per_row.random(count).tolist() for _ in bounds]
    assert stacked.integers(0, 65536) == per_row.integers(0, 65536)


# wrong-typed JSON values for each kind of AttackEvent field
WRONG_VALUES = {
    "integer": ["7", 1.5, True, None, [7]],
    "number": ["7", True, None, [1.0], {}],
    "string": [7, None, False, ["a"]],
    "optional integer": ["7", 1.5, True, {}],
    "integer list": ["1,2", {}, 5, ["x"], [1.5], [None], [True]],
    "string list": ["a", 5, [7], [None]],
    "string-keyed counts": [[], {"a": "1"}, {"a": 1.5}, {"a": None}],
    "AS-keyed counts": [[], {"x": 1}, {"01": 1}, {" 1": 1}, {"1": "1"}],
}
EVENT_FIELD_KINDS = {
    **dict.fromkeys(("victim_ip", "day"), "string"),
    **dict.fromkeys(("packet_count", "misused_packet_count", "est_original_packets",
                     "est_misused_packets", "request_count", "response_count"), "integer"),
    **dict.fromkeys(("share", "share_excluding_root", "first_ts", "last_ts"), "number"),
    **dict.fromkeys(("victim_as", "intensity_decile"), "optional integer"),
    **dict.fromkeys(("dns_ids", "req_ip_ids", "req_src_ports", "req_dns_ids"), "integer list"),
    "amplifier_set": "string list",
    "qname_counts": "string-keyed counts",
    "ingress_as_counts": "AS-keyed counts",
}
wrong_fields = st.sampled_from(sorted(EVENT_FIELD_KINDS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(WRONG_VALUES[EVENT_FIELD_KINDS[key]])))


def test_wrong_field_table_covers_every_field():
    assert set(EVENT_FIELD_KINDS) == {f.name for f in dataclasses.fields(det.AttackEvent)}


@given(events, wrong_fields)
def test_wrong_typed_field_names_its_key(tmp_path_factory, event, wrong):
    key, value = wrong
    obj = {**event_to_obj_reference(event), key: value}
    path = tmp_path_factory.mktemp("events") / "attacks.jsonl"
    path.write_text(json.dumps(event_to_obj_reference(event)) + "\n\n" + json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match=f"attacks.jsonl line 3: key '{key}': "):
        det.read_events(str(path))


# --- detection thresholds -------------------------------------------------

client_days = st.lists(st.builds(
    lambda i, total, misused: det.ClientDayStats(
        client_ip=f"10.0.0.{i}", day="2019-06-01", total_pkts=total,
        misused_pkts=min(misused, total)),
    st.integers(0, 255), st.integers(1, 60), st.integers(0, 60)), max_size=30)
thresholds = st.floats(min_value=1e-6, max_value=1.0)


@given(client_days, st.one_of(st.none(), st.integers(0, 70)))
@example([], None)
@example([], 5)
def test_visibility_curve_matches_reference(stats, max_packets):
    # totals run 1..60, so max_packets falls below and above the largest
    assert det.visibility_curve(stats, max_packets) == \
        visibility_curve_reference(stats, max_packets)


@given(client_days, thresholds, thresholds, st.integers(1, 70), st.integers(1, 70))
def test_events_shrink_as_thresholds_rise(stats, share_a, share_b, packets_a, packets_b):
    def detected(share, packets):
        config = det.DetectorConfig(share_threshold=share, min_sampled_packets=packets)
        return [(e.victim_ip, e.day) for e in det.detect_attacks(stats, config)]

    low_share, high_share = sorted((share_a, share_b))
    low_packets, high_packets = sorted((packets_a, packets_b))
    base = detected(low_share, low_packets)
    for stricter in (detected(high_share, low_packets), detected(low_share, high_packets)):
        assert len(stricter) <= len(base)
        assert set(stricter) <= set(base)


# --- the whole detection chain --------------------------------------------

# A drawn scenario with its sizes cut down to a few thousand sampled records;
# every other key as `scenarios` draws it.
small_scenarios = st.builds(
    lambda scenario, clients, rate, requests: dataclasses.replace(
        scenario, background_clients=clients, background_daily_rate=rate,
        honeypot_requests_per_sensor=requests),
    scenarios, st.integers(0, 30),
    st.tuples(st.floats(0, 4e5), st.floats(0, 4e5)).map(sorted).map(tuple),
    st.integers(5, 12))
# A share threshold that attacked client-days, which tend to be all misused,
# often meet exactly.
chain_settings = st.builds(
    pipeline.Settings,
    share_threshold=st.one_of(st.just(1.0), st.sampled_from([0.5, 0.9]), st.floats(0.01, 1.0)),
    k_max=st.integers(1, 12), slack=st.sampled_from([0.0, 300.0]),
    min_requests=st.integers(1, 6))


@given(small_scenarios, chain_settings, st.data())
def test_detection_chain_matches_reference(tmp_path_factory, scenario, config, data):
    records, requests, _ = synth.generate_scenario(scenario)
    lines = list(tr.serialize_trace(records))
    kept = pipeline.prepare(lines)["annotated.jsonl"]
    reference_kept, _ = sanitize_reference(parse_trace_reference(lines)[0])
    windows = hp.infer_honeypot_attacks(requests, min_requests=config.min_requests,
                                        max_gap_s=config.max_gap)
    expected = consensus_reference(
        selector_rankings_reference(reference_kept, windows, config.slack), config.k_max)
    if expected is None:
        with pytest.raises(ValueError, match="all selector rankings are empty"):
            pipeline.select_names(kept, config, requests)
        return
    names = pipeline.select_names(kept, config, requests)["names.json"]
    assert (list(names.names), names.k_star, list(names.curve)) == expected

    def reference_lines(min_packets):
        return detection_reference(reference_kept, set(expected[0]), config.share_threshold,
                                   min_packets, config.sampling)

    # the packet floor at the size of a client-day that meets it exactly
    sizes = [json.loads(line)["packet_count"] for line in reference_lines(1)]
    config = dataclasses.replace(config, min_packets=data.draw(
        st.sampled_from(sizes) if sizes else st.integers(1, 30)))
    writer, events = pipeline.detect(kept, names.name_set(), config).files["attacks.jsonl"]
    path = tmp_path_factory.mktemp("chain") / "attacks.jsonl"
    writer(events, str(path))
    assert path.read_text(encoding="utf-8").splitlines() == reference_lines(config.min_packets)


# --- the order of a trace's table -------------------------------------------

def with_table_order(trace, order):
    """A copy of the trace whose table holds its values in `order`, a list of
    its table indices with 0 (None) first, each interned column remapped to
    match."""
    permuted = tr.Trace()
    for index in order[1:]:
        permuted.intern(trace.values[index])
    new_index = [0] * len(order)
    for new, old in enumerate(order):
        new_index[old] = new
    for name, column in zip(tr.COLUMNS, trace.columns):
        if name in tr._INTERNED:
            column = array(column.typecode, map(new_index.__getitem__, column))
        setattr(permuted, name, column)
    return permuted


def stage_outputs(trace, config, requests, out):
    """The printed lines and the bytes of every file that select-names,
    detect and report write for the trace, and its annotated.jsonl lines."""
    outputs = {"annotated.jsonl": list(tr.serialize_trace(trace))}
    try:
        selected = pipeline.select_names(trace, config, requests)
    except ValueError as exc:  # all selector rankings are empty
        outputs["select-names"] = str(exc)
        names = set(map(trace.values.__getitem__, trace.qname))
        results = []
    else:
        names = selected["names.json"].name_set()
        results = [selected]
    detected = pipeline.detect(trace, names, config)
    results += [detected, pipeline.report(detected["attacks.jsonl"], names, trace)]
    for result in results:
        for name, (writer, value) in result.files.items():
            writer(value, str(out / name))
            outputs[name] = (out / name).read_bytes()
    outputs["lines"] = [result.line for result in results]
    return outputs


# Drawn scenarios with sound, invalid and malformed lines among theirs, with
# and without a prefix table: no output of the trace stages depends on the
# order of the trace's table, so a load may hold ingest's table as it is.
@settings(max_examples=30)
@given(small_scenarios, st.lists(edited_records, max_size=10),
       st.lists(st.sampled_from(CONSTANT_LINES), max_size=2), st.booleans(),
       chain_settings, st.integers(1, 10), st.data())
def test_stage_outputs_ignore_table_order(tmp_path_factory, scenario, edited, constants,
                                          annotated, config, min_packets, data):
    records, requests, _ = synth.generate_scenario(scenario)
    lines = [LINE_EDITS[edit](line) for line, (_, edit)
             in zip(tr.serialize_trace([record for record, _ in edited]), edited)]
    lines += [*tr.serialize_trace(records), *constants]
    trace = pipeline.prepare(lines, tr.PrefixTable(PREFIXES) if annotated else None)[
        "annotated.jsonl"]
    order = [0, *data.draw(st.permutations(range(1, len(trace.values))))]
    permuted = with_table_order(trace, order)
    assert list(permuted) == list(trace)
    config = dataclasses.replace(config, min_packets=min_packets)
    assert stage_outputs(permuted, config, requests, tmp_path_factory.mktemp("permuted")) == \
        stage_outputs(trace, config, requests, tmp_path_factory.mktemp("ingested"))
