"""Property tests: the cached and templated trace paths, and the CSV table
format, against the straightforward implementations in oracles.py."""

import copy
import math
from datetime import datetime, timezone

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dnsamp import detector as det
from dnsamp import fileio
from dnsamp import trace as tr
from oracles import csv_table_reference, sanitize_reference, trace_line_reference

# Small pools so that keys repeat within one trace, as they do in real ones.
ADDRESSES = ("10.0.0.1", "192.0.2.53", "198.18.0.7", "2001:db8::1", "::1",
             "256.1.1.1", "10.0.0", "not-an-ip", "", "2001:db8::zz", " 10.0.0.1")
QNAMES = ("example.com.", "Example.COM", "www.example.com", ".", "", "  ",
          "a..b.", "-.", "x" * 63 + ".", "x" * 64 + ".", ".".join(["y" * 60] * 5),
          "ünïcode.example.", 'quote".example.', "back\\slash.", "tab\there.",
          "ctl\x01.", "emoji\U0001f600.", "del\x7f.")

finite_ts = st.floats(min_value=-1e9, max_value=4e9, allow_nan=False)
any_ts = st.one_of(finite_ts, st.sampled_from([math.inf, -math.inf, math.nan]),
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
    assert [r.qname for r in ours_in] == [r.qname for r in reference_in]


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
    assert repr(ours) == repr(float(np.percentile(np.array(values, dtype=float), p)))


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


@given(st.one_of(tables(st.text(max_size=8)),
                 st.tuples(st.just(("col0",)), st.lists(st.lists(st.text(max_size=8),
                                                                  min_size=1, max_size=1)))))
def test_read_csv_inverts_write_csv(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    fileio.write_csv(str(path), header, rows)
    assert [fields for _, fields in fileio.read_csv(str(path), "COL0")] == rows
