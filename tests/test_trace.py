"""Trace parsing, sanitization, and prefix annotation."""

import io
import json
import math
import random
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

from dnsamp import cli, fileio, pipeline, synth
from dnsamp import trace as tr
from dnsamp.records import qname_is_valid, qname_wire_length
from oracles import lpm_reference, wire_name


def make_record(**overrides):
    base = dict(ts=100.5, src_ip="10.0.0.1", dst_ip="192.0.2.1",
                src_port=5353, dst_port=53, ip_ttl=60, ip_id=7, udp_len=64,
                qr=0, dns_id=42, qname="example.com.", qtype=255, rcode=0,
                ancount=0, nscount=0)
    base.update(overrides)
    return base


def hand_built(**overrides):
    fields = make_record(**overrides)
    qr = bool(fields.pop("qr"))
    fields.setdefault("is_response", qr)
    return tr.PacketRecord(**fields)


def parse_one(obj):
    records, skipped = tr.parse_trace(io.StringIO(json.dumps(obj) + "\n"))
    return records, skipped


class TestQnames:
    def test_normalize_lowercases_and_roots(self):
        assert tr.normalize_qname("WwW.Example.COM") == "www.example.com."
        assert tr.normalize_qname("example.com.") == "example.com."
        assert tr.normalize_qname("") == "."
        assert tr.normalize_qname(".") == "."

    def test_wire_length_matches_byte_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            labels = ["".join(rng.choices("abc", k=rng.randint(1, 12)))
                      for _ in range(rng.randint(0, 5))]
            name = ".".join(labels) + "." if labels else "."
            assert qname_wire_length(name) == len(wire_name(name))

    def test_wire_length_known_values(self):
        assert qname_wire_length(".") == 1
        assert qname_wire_length("a.b.") == 5
        assert qname_wire_length("example.com.") == 13

    def test_validity_rejects_oversized_labels(self):
        assert qname_is_valid("a" * 63 + ".com.")
        assert not qname_is_valid("a" * 64 + ".com.")
        long = ".".join(["a" * 63] * 4) + "."
        assert not qname_is_valid(long)  # wire length 257


class TestParse:
    def test_parses_and_skips_malformed(self):
        good = json.dumps(make_record())
        lines = [good, "not json", json.dumps({"ts": 1}), good]
        records, skipped = tr.parse_trace(io.StringIO("\n".join(lines) + "\n"))
        assert len(records) == 2
        assert skipped == 2

    @pytest.mark.parametrize("line", [
        json.dumps(make_record(ts=10 ** 400)),  # no float holds this ts
        "[" + "9" * 5000 + "]",                 # over json's integer digit limit
        "[" * 100000,                           # nested deeper than json decodes
    ], ids=["ts-overflow", "digit-limit", "deep-nesting"])
    def test_undecodable_lines_are_skipped(self, line):
        text = json.dumps(make_record()) + "\n" + line + "\n"
        records, skipped = tr.parse_trace(io.StringIO(text))
        assert len(records) == 1 and skipped == 1

    def test_rejects_bool_masquerading_as_int(self):
        records, skipped = parse_one(make_record(dns_id=True))
        assert not records and skipped == 1

    def test_direction_properties(self):
        request, _ = parse_one(make_record(qr=0))
        response, _ = parse_one(make_record(
            qr=1, src_ip="192.0.2.1", dst_ip="10.0.0.1",
            src_port=53, dst_port=5353))
        assert request[0].client_ip == "10.0.0.1"
        assert request[0].server_ip == "192.0.2.1"
        assert response[0].client_ip == "10.0.0.1"
        assert response[0].server_ip == "192.0.2.1"

    def test_day_is_utc(self):
        records, _ = parse_one(make_record(ts=0.0))
        assert records[0].day == "1970-01-01"
        records, _ = parse_one(make_record(ts=86399.999))
        assert records[0].day == "1970-01-01"
        records, _ = parse_one(make_record(ts=86400.0))
        assert records[0].day == "1970-01-02"

    def test_payload_length_strips_udp_header(self):
        records, _ = parse_one(make_record(udp_len=64))
        assert records[0].dns_payload_len == 56

    def test_line_with_a_lone_surrogate_is_skipped(self):
        # what a byte that is not UTF-8 becomes when the file is read
        bad = json.dumps(make_record(qname="x\udcff."), ensure_ascii=False)
        accented = json.dumps(make_record(qname="\u00e9t\u00e9."), ensure_ascii=False)
        records, skipped = tr.parse_trace([bad, accented])
        assert [r.qname for r in records] == ["\u00e9t\u00e9."] and skipped == 1

    def test_undecodable_byte_in_file_is_a_skipped_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(make_record()).encode()
        path.write_bytes(good + b"\n" + good.replace(b"example", b"ex\xffample") + b"\r\n" + good)
        records, skipped = tr.parse_trace(str(path))
        assert len(records) == 2 and skipped == 1

    @staticmethod
    def repeating_lines(count):
        """Annotated lines whose addresses, udp_len and AS numbers repeat, as
        a trace's heavy clients and amplifiers do."""
        rng = random.Random(5)
        lines = []
        for i in range(count):
            lines.append(json.dumps(make_record(
                ts=1559347200 + i / 7, qr=False,
                src_ip=f"10.0.{rng.randrange(4)}.{rng.randrange(50)}",
                dst_ip=f"198.18.0.{rng.randrange(20)}", src_port=rng.randrange(1024, 65536),
                ip_id=rng.randrange(300, 65536), udp_len=rng.choice([1200, 3000, 4096]),
                dns_id=rng.randrange(300, 65536), src_as=64512 + rng.randrange(4),
                dst_as=65000 + rng.randrange(20)), separators=(",", ":")))
        return lines

    def test_records_share_repeated_values(self):
        records, _ = tr.parse_trace(self.repeating_lines(400))
        for field in ("src_ip", "dst_ip", "udp_len", "src_as", "dst_as", "qname"):
            values = [getattr(r, field) for r in records]
            assert len({id(v) for v in values}) == len(set(values)), field

    def test_kept_bytes_per_record(self):
        lines = self.repeating_lines(4000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records, _ = tr.parse_trace(lines)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # about 73 B/rec as columns, and about 290 as one PacketRecord per
        # line; a copy of every value per record, and a freed tuple per line
        # kept on the free list, cost about 565
        assert kept / len(records) <= 380


    def test_prepared_trace_holds_under_100_bytes_a_record(self):
        # columns of 49 B a row plus the shared table; a PacketRecord per row
        # held about 290
        records, _, _ = synth.generate_scenario(
            synth.read_scenario(str(Path(__file__).parent / "data" / "scenario_small.json")))
        lines = list(tr.serialize_trace(records))
        del records
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = pipeline.prepare(lines)["annotated.jsonl"]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == 5834
        assert held / len(kept) <= 100


class TestSanitize:
    def drops(self, **overrides):
        records, skipped = parse_one(make_record(**overrides))
        assert skipped == 0
        kept, dropped = tr.sanitize(records)
        return dropped == 1 and not kept

    def test_keeps_clean_record(self):
        records, _ = parse_one(make_record())
        kept, dropped = tr.sanitize(records)
        assert len(kept) == 1 and dropped == 0

    def test_drops_out_of_range_fields(self):
        assert self.drops(qtype=70000)
        assert self.drops(rcode=16)
        assert self.drops(ip_ttl=256)
        assert self.drops(dns_id=65536)
        assert self.drops(udp_len=7)
        assert self.drops(src_port=-1)
        assert self.drops(ancount=-1)

    def test_drops_bad_qnames(self):
        assert self.drops(qname="a" * 64 + ".com.")
        assert self.drops(qname="bad..name.")

    def test_drops_port_qr_mismatch(self):
        # a response must come from port 53, a request must go to it,
        # and exactly one side sits on 53 so direction is unambiguous
        assert self.drops(qr=1)  # src_port 5353 claims response
        assert self.drops(qr=0, src_port=53, dst_port=5353)
        assert self.drops(src_port=53, dst_port=53)
        assert self.drops(src_port=5353, dst_port=5353)

    def test_drops_unparseable_ip(self):
        assert self.drops(src_ip="300.1.2.3")
        assert self.drops(dst_ip="nonsense")

    def test_drops_nonfinite_ts(self):
        assert self.drops(ts=float("nan"))
        assert self.drops(ts=float("inf"))

    def test_normalizes_qname_in_place(self):
        records, _ = parse_one(make_record(qname="WWW.Example.COM"))
        kept, _ = tr.sanitize(records)
        assert kept[0].qname == "www.example.com."

    def test_idempotent(self):
        rng = random.Random(11)
        objs = []
        for i in range(300):
            obj = make_record(ts=float(rng.randint(0, 10**6)),
                              dns_id=rng.randint(-2, 70000),
                              qtype=rng.choice([1, 255, 70000]),
                              qr=rng.randint(0, 1),
                              qname=rng.choice(["A.b.", "x..y.", "ok.example."]))
            if obj["qr"] == 1:
                obj["src_port"], obj["dst_port"] = 53, 5353
            objs.append(json.dumps(obj))
        records, _ = tr.parse_trace(io.StringIO("\n".join(objs) + "\n"))
        once, dropped_once = tr.sanitize(records)
        twice, dropped_twice = tr.sanitize(once)
        assert dropped_twice == 0
        assert twice == once


class TestRoundTrip:
    def test_write_read_byte_identical(self, tmp_path):
        rng = random.Random(3)
        objs = []
        for i in range(50):
            obj = make_record(ts=rng.uniform(0, 1000), dns_id=rng.randint(0, 65535))
            if i % 2:
                obj.update(qr=1, src_ip="192.0.2.9", dst_ip="10.0.0.8",
                           src_port=53, dst_port=4000 + i)
            objs.append(json.dumps(obj))
        records, _ = tr.parse_trace(io.StringIO("\n".join(objs) + "\n"))
        kept, _ = tr.sanitize(records)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        tr.write_trace(kept, str(first))
        reread, _ = tr.parse_trace(str(first))
        tr.write_trace(reread, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_as_fields_survive_round_trip(self, tmp_path):
        records, _ = parse_one(make_record())
        table = tr.PrefixTable([("10.0.0.0/8", 64512)])
        tr.annotate(records, table)
        path = tmp_path / "annotated.jsonl"
        tr.write_trace(records, str(path))
        reread, _ = tr.parse_trace(str(path))
        assert reread[0].src_as == 64512
        assert reread[0].dst_as is None

    # A bool passes every range check as 0 or 1 but is written as true/false,
    # json cannot write an np.int64, ipaddress also reads an integer address,
    # and normalize_qname needs a string. (The integer-field cases keep the
    # ids of the bool and np.int64 wrappers they were first written with.)
    @pytest.mark.parametrize("field, bad", [
        *(pytest.param(field, wrap(getattr(hand_built(), field)), id=f"{name}-{field}")
          for name, wrap in (("<lambda>", lambda value: True), ("int64", np.int64))
          for field in ("src_port", "ip_ttl", "ip_id", "dns_id", "qtype", "rcode",
                        "ancount", "nscount")),
        pytest.param("src_ip", 167772161, id="int-src_ip"),
        pytest.param("dst_ip", 3221225985, id="int-dst_ip"),
        pytest.param("is_response", "", id="str-is_response"),
        pytest.param("src_as", True, id="bool-src_as"),
        pytest.param("src_as", 5.0, id="float-src_as"),
        pytest.param("dst_as", np.int64(5), id="int64-dst_as"),
        pytest.param("qname", 5, id="int-qname"),
    ])
    def test_hand_built_records_kept_by_sanitize_survive(self, tmp_path, field, bad):
        # an np.float64 ts is a float and stays
        records = [hand_built(ts=np.float64(100.5)), hand_built(**{field: bad})]
        kept, dropped = tr.sanitize(records)
        assert (len(kept), dropped) == (1, 1)
        path = tmp_path / "trace.jsonl"
        tr.write_trace(kept, str(path))
        assert tr.parse_trace(str(path)) == (kept, 0)


def same_parse(ours, expected):
    """Whether two (trace, skipped) results hold the same rows, serialized
    alike, the same dropped records and skipped count. Their tables may
    differ in order and in values that no row uses."""
    (trace, skipped), (expected_trace, expected_skipped) = ours, expected
    return (skipped == expected_skipped and list(trace) == list(expected_trace)
            and list(tr.serialize_trace(trace)) == list(tr.serialize_trace(expected_trace))
            and trace.dropped == expected_trace.dropped)


def parse_lines_of(path):
    """parse_trace of a file's lines: a parse, never a load of its columns."""
    return tr.parse_trace(path.read_text(encoding="utf-8").splitlines())


def edit_columns(change, seal=True, layout=tr._layout):
    """A defect that rewrites the columns file as change(header, columns)
    leaves it; `layout(rows)` gives each column's type code and length.
    Sealed, the header's CRC-32 of the table and the columns, when it has
    one, is made to match, so that another check must find the defect."""
    def defect(jsonl, columns):
        with columns.open("rb") as handle:
            header, arrays = json.loads(handle.readline()), []
            for code, count, _ in layout(header["rows"]):
                arrays.append(array(code))
                arrays[-1].fromfile(handle, count)
        change(header, arrays)
        if seal and "crc32" in header:
            header["crc32"] = fileio._crc32(header["values"], arrays)
        columns.write_bytes(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"
                            + b"".join(map(array.tobytes, arrays)))
    return defect


def replace_value(old, new):
    """A change that puts new in the table in place of old."""
    return lambda header, columns: header["values"].__setitem__(header["values"].index(old), new)


def column(columns, name):
    return columns[list(tr.COLUMNS).index(name)]


def set_cell(name, value):
    """A change that puts value in the first row of a column."""
    return lambda header, columns: column(columns, name).__setitem__(0, value)


OTHER_BYTEORDER = {"little": "big", "big": "little"}[sys.byteorder]


class TestColumnsFile:
    @pytest.fixture
    def ingested(self, tmp_path):
        """annotated.jsonl and annotated.columns of ingest: two clients, two
        names, responses and requests, AS numbers from a prefix table, and a
        dropped record whose address only ingest's table holds."""
        lines = [json.dumps(make_record(ts=100.5 + i, dns_id=i, ancount=i % 3,
                                        qname=("a.example." if i % 2 else "B.example"),
                                        src_ip=f"10.0.0.{i % 2 + 1}"))
                 for i in range(6)]
        lines += [json.dumps(make_record(ts=200.0 + i, qr=1, src_ip="192.0.2.1",
                                         dst_ip="10.0.0.1", src_port=53, dst_port=4000 + i,
                                         udp_len=1200, ancount=12, nscount=2))
                  for i in range(3)]
        lines.append(json.dumps(make_record(ip_ttl=300, src_ip="10.9.9.9")))
        result = pipeline.prepare(lines, tr.PrefixTable([("10.0.0.0/8", 64512)]))
        cli._write(result, tmp_path)
        return tmp_path / "annotated.jsonl", tmp_path / "annotated.columns"

    def test_load_equals_the_parse(self, ingested):
        jsonl, _ = ingested
        loaded = tr._load_columns(str(jsonl))
        assert "10.9.9.9" in loaded.values
        assert "10.9.9.9" not in parse_lines_of(jsonl)[0].values
        assert same_parse(tr.parse_trace(jsonl), parse_lines_of(jsonl))
        assert same_parse(tr.parse_trace(str(jsonl)), parse_lines_of(jsonl))

    def test_rewrite_is_byte_identical(self, ingested, tmp_path):
        jsonl, columns = ingested
        cli._write(pipeline.prepare(str(jsonl)), tmp_path / "again")
        for path in (jsonl, columns):
            assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()

    # Each leaves the files as something a parse of the JSONL must answer.
    DEFECTS = {
        "jsonl-byte-edited": lambda jsonl, columns: jsonl.write_bytes(
            jsonl.read_bytes().replace(b'"ip_ttl":60', b'"ip_ttl":61', 1)),
        "jsonl-line-appended": lambda jsonl, columns: jsonl.write_bytes(
            jsonl.read_bytes() + jsonl.read_bytes().splitlines(keepends=True)[0]),
        "columns-missing": lambda jsonl, columns: columns.unlink(),
        "columns-truncated": lambda jsonl, columns: columns.write_bytes(
            columns.read_bytes()[:-1]),
        "trailing-bytes": lambda jsonl, columns: columns.write_bytes(
            columns.read_bytes() + b"\0"),
        "header-not-json": lambda jsonl, columns: columns.write_bytes(
            b"{" + columns.read_bytes()),
        "header-not-an-object": edit_columns(lambda header, arrays: header.clear()),
        "wrong-format": edit_columns(
            lambda header, arrays: header.update(format=tr.COLUMNS_FORMAT + 1)),
        "format-1": edit_columns(lambda header, arrays: (header.pop("crc32", None),
                                                          header.update(format=1))),
        "format-as-bool": edit_columns(lambda header, arrays: header.update(format=True)),
        "other-byteorder": edit_columns(
            lambda header, arrays: header.update(byteorder=OTHER_BYTEORDER)),
        "index-past-table": edit_columns(lambda header, arrays: column(
            arrays, "qname").__setitem__(0, len(header["values"]))),
        "bool-in-table": edit_columns(replace_value(1, True)),
        "float-in-table": edit_columns(replace_value(1200, 1200.0)),
        "duplicate-in-table": edit_columns(replace_value("a.example.", "b.example.")),
        "none-not-first": edit_columns(lambda header, arrays: header["values"].reverse()),
        "cell-edited": edit_columns(lambda header, arrays: column(arrays, "dns_id").__setitem__(
            0, column(arrays, "dns_id")[0] ^ 1), seal=False),
        "table-value-renamed": edit_columns(replace_value("a.example.", "c.example."),
                                            seal=False),
        **{f"ts-{ts!r}": edit_columns(set_cell("ts", ts))
           for ts in (tr.TS_END, math.nextafter(tr.TS_MIN, -math.inf), math.nan, math.inf)},
    }

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defect_falls_back_to_parsing(self, ingested, defect):
        jsonl, columns = ingested
        self.DEFECTS[defect](jsonl, columns)
        assert tr._load_columns(str(jsonl)) is None
        assert same_parse(tr.parse_trace(jsonl), parse_lines_of(jsonl))


class TestPrefixTable:
    TABLE = [("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.0/24", 3),
             ("192.0.2.0/24", 4), ("0.0.0.0/0", 99), ("2001:db8::/32", 6)]

    def test_longest_match_wins(self):
        table = tr.PrefixTable(self.TABLE)
        assert table.lookup("10.1.2.3") == 3
        assert table.lookup("10.1.9.9") == 2
        assert table.lookup("10.9.9.9") == 1
        assert table.lookup("8.8.8.8") == 99
        assert table.lookup("2001:db8::1") == 6

    def test_matches_linear_scan_on_random_ips(self):
        rng = random.Random(9)
        table = tr.PrefixTable(self.TABLE)
        for _ in range(500):
            ip = ".".join(str(rng.randint(0, 255)) for _ in range(4))
            assert table.lookup(ip) == lpm_reference(ip, self.TABLE)

    def test_from_csv_reports_bad_rows(self, tmp_path):
        path = tmp_path / "prefixes.csv"
        path.write_text("prefix,asn\n10.0.0.0/8,64512\nnot-a-prefix,1\n")
        with pytest.raises(ValueError, match="3"):
            tr.PrefixTable.from_csv(str(path))

    @pytest.mark.parametrize("row, message", [
        ("10.0.0.0/8,-3", "prefix table line 2: bad ASN '-3'"),
        ("10.0.0.0/8,x", "prefix table line 2: bad ASN 'x'"),
        # int() would read these three as 64500, 64 and 64
        ("10.0.0.0/8,6_4500", "prefix table line 2: bad ASN '6_4500'"),
        ("10.0.0.0/8,+64", "prefix table line 2: bad ASN '+64'"),
        ("10.0.0.0/8,\u0666\u0664", "prefix table line 2: bad ASN '\u0666\u0664'"),
        ("10.0.0.1/8,5", "prefix table line 2: bad CIDR '10.0.0.1/8'"),
        ("not-a-prefix,1", "prefix table line 2: bad CIDR 'not-a-prefix'"),
        ("10.0.0.0/8", "prefix table line 2: expected prefix,asn"),
    ])
    def test_from_csv_names_the_file_line(self, tmp_path, row, message):
        path = tmp_path / "prefixes.csv"
        path.write_text(f"prefix,asn\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            tr.PrefixTable.from_csv(str(path))
        assert str(info.value).startswith(message)

    def test_annotate_fills_both_sides(self):
        records, _ = parse_one(make_record())
        tr.annotate(records, tr.PrefixTable([("10.0.0.0/8", 7), ("192.0.2.0/24", 8)]))
        assert records[0].src_as == 7
        assert records[0].dst_as == 8
        assert records[0].ingress_as == 7
        assert records[0].client_as == 7
