"""Sampled DNS trace I/O: JSONL parsing into a Trace, sanitization,
serialization and AS annotation.

Traces come from packet-sampled, truncated captures, so records carry only
header-level fields. The client side of a flow is the source of requests and
the destination of responses; everything downstream keys on that convention.
The record model, `PacketRecord` and the columnar `Trace`, lives in
`records`.

`ingest` writes the columns of its trace beside the JSONL, in
`<name>.columns`, and `parse_trace` of `<name>.jsonl` loads them instead of
parsing while they are bound to the JSONL's bytes (`write_columns`): the
same trace row for row.
"""

from __future__ import annotations

import ipaddress
import json
import math
import os
from array import array
from copy import copy
from functools import partial
from operator import itemgetter
from typing import Any, Iterable, Iterator, TextIO

from .fileio import (Memo, csv_int, read_bound_arrays, read_csv, read_lines,
                     write_bound_arrays, write_lines)
from .records import (COLUMNS, FIELD_TYPES, PLAIN_RECORD_TYPES, TS_END, TS_MIN, PacketRecord,
                      Trace, as_trace, ip_or_none, ipv4_int, normalize_qname, record_values,
                      row_filler)

# Canonical JSONL field order. Serialization always emits these fields in this
# order so that parse -> serialize round-trips byte-identically.
TRACE_FIELDS = (
    "ts", "src_ip", "dst_ip", "src_port", "dst_port", "ip_ttl", "ip_id",
    "udp_len", "qr", "dns_id", "qname", "qtype", "rcode", "ancount", "nscount",
)

# A list, to compare with a list of a line's types: a tuple built from an
# iterator starts at another size and is resized, so each one freed would
# grow the interpreter's free list of 15-tuples (up to 2000 kept) rather than
# reuse it.
_FIELD_TYPES = list(FIELD_TYPES)
_get_fields = itemgetter(*TRACE_FIELDS)


def _values_from_obj(normalized: Memo, obj: Any) -> tuple:
    """PacketRecord's 17 values from one line's JSON value, the qname as
    `normalized` maps it; ValueError if structurally bad."""
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    try:
        values = _get_fields(obj)
    except KeyError:
        raise ValueError("a field is missing") from None
    (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr,
     dns_id, qname, qtype, rcode, ancount, nscount) = values
    types = list(map(type, values))
    if types != _FIELD_TYPES:
        # ts may arrive as an integer, and the QR bit as true/false or 0/1
        # depending on the exporter
        if types[8] is int and qr in (0, 1):
            qr, types[8] = bool(qr), bool
        if types[0] is int:
            try:
                ts, types[0] = float(ts), float
            except OverflowError:  # an integer beyond the float range
                raise ValueError("ts is beyond the float range") from None
        if types != _FIELD_TYPES:
            raise ValueError("a field has the wrong type")
    src_as, dst_as = obj.get("src_as"), obj.get("dst_as")
    if (src_as is not None and type(src_as) is not int) or \
            (dst_as is not None and type(dst_as) is not int):
        raise ValueError("an AS number is not an integer")
    return (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr, dns_id,
            normalized[qname], qtype, rcode, ancount, nscount, src_as, dst_as)


def parse_trace(source: str | TextIO | Iterable[str]) -> tuple[Trace, int]:
    """Parse a JSONL trace into a Trace.

    `source` is a file path, an open text handle, or an iterable of lines.
    Returns (trace, skipped_line_count); malformed lines (bad lines as
    `fileio.read_lines` finds them, missing fields, wrong types, a ts beyond
    the float range) are counted and skipped, never raised. A sound line that
    sanitize() drops is set aside in the trace's `dropped`.

    A path `<name>.jsonl` whose `<name>.columns` is sound and was written
    beside these very bytes (`write_columns`) is loaded from the columns
    instead, as (trace, 0): row for row the trace that parsing would return.
    """
    trace = _load_columns(source) if isinstance(source, (str, os.PathLike)) else None
    if trace is not None:
        return trace, 0
    trace = Trace()
    add, flush = row_filler(trace)
    values_from_obj = partial(_values_from_obj, Memo(normalize_qname))
    skipped = 0
    for _, obj in read_lines(source):
        try:
            values = values_from_obj(obj)
        except ValueError:
            skipped += 1
        else:
            add(values)
    flush()
    return trace, skipped


def record_to_obj(record: PacketRecord) -> dict:
    """Canonical-order dict for one record; AS fields only when annotated."""
    obj = dict(zip(TRACE_FIELDS, record_values(record)))
    if record.src_as is not None or record.dst_as is not None:
        obj["src_as"] = record.src_as
        obj["dst_as"] = record.dst_as
    return obj


def serialize_trace(records: Iterable[PacketRecord]) -> Iterator[str]:
    """Yield canonical JSONL lines (no trailing newline per line).

    Each line equals json.dumps(record_to_obj(r), separators=(",", ":")).
    The rows of a Trace, and records whose fields are all exactly builtin
    types with a finite ts, are written from a template with each distinct
    value encoded once; any other record goes through json.dumps."""
    if isinstance(records, Trace):
        values = records.values
        texts = Memo(lambda index: json.dumps(values[index]))
        rows = records.rows()
    else:
        texts = Memo(json.dumps)
        rows = map(_template_row, records)
    for row in rows:
        if type(row) is not tuple:
            yield json.dumps(record_to_obj(row), separators=(",", ":"))
            continue
        (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr, dns_id, qname,
         qtype, rcode, ancount, nscount, src_as, dst_as) = row
        line = (f'{{"ts":{ts!r},"src_ip":{texts[src_ip]},"dst_ip":{texts[dst_ip]},'
                f'"src_port":{src_port},"dst_port":{dst_port},"ip_ttl":{ip_ttl},'
                f'"ip_id":{ip_id},"udp_len":{texts[udp_len]},'
                f'"qr":{"true" if qr else "false"},"dns_id":{dns_id},'
                f'"qname":{texts[qname]},"qtype":{qtype},"rcode":{rcode},'
                f'"ancount":{texts[ancount]},"nscount":{texts[nscount]}')
        src_as, dst_as = texts[src_as], texts[dst_as]
        if src_as == "null" == dst_as:  # not annotated
            yield line + "}"
        else:
            yield f'{line},"src_as":{src_as},"dst_as":{dst_as}}}'


def _template_row(record: PacketRecord) -> tuple | PacketRecord:
    """The record's 17 values when they are all exactly builtin types and ts
    is finite, else the record."""
    values = record_values(record)
    if tuple(map(type, values)) in PLAIN_RECORD_TYPES and math.isfinite(values[0]):
        return values
    return record


def write_trace(records: Iterable[PacketRecord], path: str) -> None:
    write_lines(serialize_trace(records), path)


# The columns file: a header line, then each column of COLUMNS in order, its
# raw bytes in the byte order the header names.
COLUMNS_FORMAT = 2
# The columns that hold an index into the table of values.
_INTERNED = ("src_ip", "dst_ip", "qname", "udp_len", "ancount", "nscount", "src_as", "dst_as")


def write_columns(trace: Trace, path: str) -> None:
    """The columns file `<name>.columns` at path, of the trace that
    write_trace has just written to `<name>.jsonl` beside it
    (`fileio.write_bound_arrays`): its rows are the row count, and its table
    the trace's table of values. Table and columns are written as they are:
    a load equals the parse row for row, and its table may hold values that
    only dropped rows used."""
    write_bound_arrays(path, COLUMNS_FORMAT, len(trace), trace.values, trace.columns)


def _layout(rows: Any) -> list[tuple[str, Any, bool]]:
    return [(code, rows, name in _INTERNED) for name, code in COLUMNS.items()]


def _load_columns(path: str | os.PathLike) -> Trace | None:
    """The trace in the columns file `<name>.columns` beside the JSONL trace
    `<name>.jsonl` at path, when `fileio.read_bound_arrays` reads it and
    every ts is on a day that day_index can name, as the parse checks; else
    None."""
    loaded = read_bound_arrays(path, COLUMNS_FORMAT, _layout)
    if loaded is None:
        return None
    _, values, columns = loaded
    trace = Trace()
    for name, column in zip(COLUMNS, columns):
        setattr(trace, name, column)
    if not (all(map(TS_MIN.__le__, trace.ts)) and all(map(TS_END.__gt__, trace.ts))):
        return None
    trace.values, trace._index = values, dict(zip(values, range(len(values))))
    return trace


def sanitize(records: Iterable[PacketRecord]) -> tuple[Trace, int]:
    """Keep semantically well-formed records, count the rest.

    A Trace holds only the records sanitize keeps, qnames normalized, and
    sets the rest aside in `dropped`, so its kept trace is a copy that shares
    the columns, with nothing dropped. Other records are adopted as a Trace
    and are left as they are. Idempotent: a second pass drops nothing.
    """
    trace = as_trace(records)
    kept = copy(trace)  # shares the arrays and the table
    kept.dropped = []
    return kept, len(trace.dropped)


class PrefixTable:
    """Longest-prefix-match IP-to-AS table built from (cidr, asn) rows."""

    def __init__(self, rows: Iterable[tuple[str, int]]):
        # maps (ip_version, prefix_len) -> {masked_int: asn}
        self._buckets: dict[tuple[int, int], dict[int, int]] = {}
        self._lengths: dict[int, list[int]] = {4: [], 6: []}
        for index, (prefix, asn) in enumerate(rows):
            self._add(prefix, asn, f"row {index}")

    def _add(self, prefix: str, asn: object, where: str) -> None:
        try:
            network = ipaddress.ip_network(prefix, strict=True)
        except ValueError as exc:
            raise ValueError(f"prefix table {where}: bad CIDR {prefix!r}: {exc}") from None
        if not isinstance(asn, int) or isinstance(asn, bool) or asn < 0:
            raise ValueError(f"prefix table {where}: bad ASN {asn!r}")
        key = (network.version, network.prefixlen)
        if key not in self._buckets:
            self._lengths[network.version].append(network.prefixlen)
            self._lengths[network.version].sort(reverse=True)
        self._buckets.setdefault(key, {})[int(network.network_address)] = asn

    @classmethod
    def from_csv(cls, path: str) -> "PrefixTable":
        """Load `prefix,asn` rows; a header line is tolerated. An error names
        the line of the file."""
        table = cls(())
        for lineno, row in read_csv(path, "prefix"):
            if len(row) != 2:
                raise ValueError(f"prefix table line {lineno}: expected prefix,asn")
            asn_text = row[1].strip()
            try:
                asn: object = csv_int(asn_text)
            except ValueError:
                asn = asn_text  # reported as a bad ASN
            table._add(row[0].strip(), asn, f"line {lineno}")
        return table

    def lookup(self, ip: str) -> int | None:
        addr_int = ipv4_int(ip)
        if addr_int is not None:
            version, max_bits = 4, 32
        else:
            addr = ip_or_none(ip)
            if addr is None:
                return None
            version, max_bits, addr_int = addr.version, addr.max_prefixlen, int(addr)
        for plen in self._lengths[version]:
            masked = (addr_int >> (max_bits - plen)) << (max_bits - plen) if plen else 0
            asn = self._buckets[(version, plen)].get(masked)
            if asn is not None:
                return asn
        return None


def annotate(trace: Trace, table: PrefixTable) -> Trace:
    """Set the trace's src_as/dst_as columns by longest-prefix match, one
    lookup per distinct address (the table of values holds each address
    once); which rows it holds never changes. Unmatched addresses get None."""
    values = trace.values
    as_index = {address: trace.intern(table.lookup(values[address]))
                for address in {*trace.src_ip, *trace.dst_ip}}
    trace.src_as = array("I", map(as_index.__getitem__, trace.src_ip))
    trace.dst_as = array("I", map(as_index.__getitem__, trace.dst_ip))
    return trace
