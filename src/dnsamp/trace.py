"""Sampled DNS trace model: JSONL parsing, sanitization, AS annotation.

Traces come from packet-sampled, truncated captures, so records carry only
header-level fields. The client side of a flow is the source of requests and
the destination of responses; everything downstream keys on that convention.
"""

from __future__ import annotations

import ipaddress
import json
import math
import re
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import lru_cache, partial
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, TextIO

from .fileio import Memo, decode_lines, read_csv, read_lines, shared, write_lines

# Canonical JSONL field order. Serialization always emits these fields in this
# order so that parse -> serialize round-trips byte-identically.
TRACE_FIELDS = (
    "ts", "src_ip", "dst_ip", "src_port", "dst_port", "ip_ttl", "ip_id",
    "udp_len", "qr", "dns_id", "qname", "qtype", "rcode", "ancount", "nscount",
)

DNS_PORT = 53
UDP_HEADER_LEN = 8
MAX_NAME_WIRE_LEN = 255
MAX_LABEL_LEN = 63
DAY_S = 86400


def normalize_qname(qname: str) -> str:
    """Lowercase and append the trailing dot; the root name is ".".

    Idempotent: normalize_qname(normalize_qname(x)) == normalize_qname(x).
    """
    name = qname.strip().lower()
    if name in ("", "."):
        return "."
    if not name.endswith("."):
        name += "."
    return name


def qname_labels(qname: str) -> list[str]:
    """Labels of a normalized name, without the empty root label."""
    name = normalize_qname(qname)
    if name == ".":
        return []
    return name[:-1].split(".")


def qname_wire_length(qname: str) -> int:
    """Uncompressed wire length of a name: one length byte per label plus
    the label bytes, terminated by the single zero byte of the root label."""
    labels = qname_labels(qname)
    return sum(len(label) + 1 for label in labels) + 1


def qname_is_valid(qname: str) -> bool:
    """Grammar check after normalization: labels 1..63 bytes, wire length
    capped at 255 bytes, no empty interior labels."""
    name = normalize_qname(qname)
    if name == ".":
        return True
    labels = name[:-1].split(".")
    if any(not 1 <= len(label) <= MAX_LABEL_LEN for label in labels):
        return False
    return qname_wire_length(name) <= MAX_NAME_WIRE_LEN


@dataclass(slots=True)
class PacketRecord:
    """One sampled DNS packet, truncated to header-level fields."""

    ts: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    ip_ttl: int
    ip_id: int
    udp_len: int
    is_response: bool
    dns_id: int
    qname: str
    qtype: int
    rcode: int
    ancount: int
    nscount: int
    src_as: int | None = None
    dst_as: int | None = None

    @property
    def client_ip(self) -> str:
        """Source of requests, destination of responses."""
        return self.dst_ip if self.is_response else self.src_ip

    @property
    def server_ip(self) -> str:
        return self.src_ip if self.is_response else self.dst_ip

    @property
    def client_as(self) -> int | None:
        return self.dst_as if self.is_response else self.src_as

    @property
    def ingress_as(self) -> int | None:
        """Origin-side AS of the packet as it arrived (source AS)."""
        return self.src_as

    @property
    def dns_payload_len(self) -> int:
        return self.udp_len - UDP_HEADER_LEN

    @property
    def day(self) -> str:
        """UTC calendar day of the packet, ISO formatted."""
        ts = self.ts
        second = math.floor(ts)
        # fromtimestamp rounds to the microsecond, which can carry the last
        # microsecond of a day into the next one
        if ts - second < 0.999999:
            return _utc_day(second // DAY_S)
        return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


@lru_cache(maxsize=4096)
def _utc_day(day_index: int) -> str:
    return datetime.fromtimestamp(day_index * DAY_S, tz=timezone.utc).date().isoformat()


# Exact builtin types of the canonical fields, in TRACE_FIELDS order (the QR
# bit as a bool). Decoded objects and records of exactly these types take the
# fast paths below. A list, to compare with a list of a line's types: a tuple
# built from an iterator starts at another size and is resized, so each one
# freed would grow the interpreter's free list of 15-tuples (up to 2000 kept)
# rather than reuse it.
_FIELD_TYPES = [float, str, str, int, int, int, int, int, bool, int, str, int, int, int, int]
_get_fields = itemgetter(*TRACE_FIELDS)
_record_values = attrgetter(*(f.name for f in fields(PacketRecord)))
_PLAIN_RECORD_TYPES = {(*_FIELD_TYPES, src_as, dst_as)
                       for src_as in (int, type(None)) for dst_as in (int, type(None))}
_TEN_INTS = (int,) * 10  # the range-checked integer fields
_AS_TYPES = (int, type(None))


def _record_from_obj(normalized: Memo, addresses: Memo, integers: Memo,
                     obj: Any) -> PacketRecord:
    """A record from one line's JSON value; ValueError if structurally bad.

    `normalized` maps raw qnames to normalize_qname() of them; `addresses`
    and `integers` map an address and udp_len or an AS number (or None) to
    the one object that every record of the call shares for that value."""
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
    # the memos hold values of exactly one type each (None aside), so no
    # bool or float equal to an int is ever shared in its place
    return PacketRecord(ts, addresses[src_ip], addresses[dst_ip], src_port, dst_port,
                        ip_ttl, ip_id, integers[udp_len], qr, dns_id, normalized[qname],
                        qtype, rcode, ancount, nscount, integers[src_as], integers[dst_as])


def parse_trace(source: str | TextIO | Iterable[str]) -> tuple[list[PacketRecord], int]:
    """Parse a JSONL trace into records.

    `source` is a file path, an open text handle, or an iterable of lines.
    Returns (records, skipped_line_count); malformed lines (bad lines as
    `fileio.read_lines` finds them, missing fields, wrong types, a ts beyond
    the float range) are counted and skipped, never raised. Semantic
    validity is sanitize()'s job. Records of one call share each distinct
    address, qname, udp_len and AS number as one object.
    """
    return decode_lines(read_lines(source), partial(_record_from_obj, Memo(normalize_qname),
                                                    shared(), shared()))


def record_to_obj(record: PacketRecord) -> dict:
    """Canonical-order dict for one record; AS fields only when annotated."""
    obj = dict(zip(TRACE_FIELDS, _record_values(record)))
    if record.src_as is not None or record.dst_as is not None:
        obj["src_as"] = record.src_as
        obj["dst_as"] = record.dst_as
    return obj


def serialize_trace(records: Iterable[PacketRecord]) -> Iterator[str]:
    """Yield canonical JSONL lines (no trailing newline per line).

    Each line equals json.dumps(record_to_obj(r), separators=(",", ":")).
    Records whose fields are all exactly builtin types, with a finite ts, are
    written from a template with each distinct string encoded once; any other
    record goes through json.dumps."""
    quoted = Memo(json.dumps)
    for record in records:
        values = _record_values(record)
        if tuple(map(type, values)) not in _PLAIN_RECORD_TYPES or not math.isfinite(values[0]):
            yield json.dumps(record_to_obj(record), separators=(",", ":"))
            continue
        (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr,
         dns_id, qname, qtype, rcode, ancount, nscount, src_as, dst_as) = values
        line = (f'{{"ts":{ts!r},"src_ip":{quoted[src_ip]},"dst_ip":{quoted[dst_ip]},'
                f'"src_port":{src_port},"dst_port":{dst_port},"ip_ttl":{ip_ttl},'
                f'"ip_id":{ip_id},"udp_len":{udp_len},"qr":{"true" if qr else "false"},'
                f'"dns_id":{dns_id},"qname":{quoted[qname]},"qtype":{qtype},'
                f'"rcode":{rcode},"ancount":{ancount},"nscount":{nscount}')
        if src_as is None and dst_as is None:
            yield line + "}"
        else:
            yield (f'{line},"src_as":{"null" if src_as is None else src_as},'
                   f'"dst_as":{"null" if dst_as is None else dst_as}}}')


def write_trace(records: Iterable[PacketRecord], path: str) -> None:
    write_lines(serialize_trace(records), path)


def _ip_or_none(text: str) -> ipaddress.IPv4Address | ipaddress.IPv6Address | None:
    try:
        return ipaddress.ip_address(text)
    except ValueError:
        return None


# A canonical dotted quad: the IPv4 text ipaddress accepts, ASCII digits with
# no leading zeros, each octet at most 255. Any other text goes to ipaddress.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(r"\.".join([_OCTET] * 4) + r"\Z")


def _ipv4_int(text: str) -> int | None:
    """The address a canonical dotted quad writes, as an integer; None for
    any other text."""
    quad = _IPV4.match(text) if isinstance(text, str) else None
    if quad is None:
        return None
    a, b, c, d = map(int, quad.groups())
    return a << 24 | b << 16 | c << 8 | d


def _record_is_valid(record: PacketRecord, ip_valid: Memo, name_valid: Memo) -> bool:
    """`ip_valid` and `name_valid` map an address or a normalized qname to
    whether it is valid."""
    # only a builtin int round-trips through write_trace and parse_trace: a
    # bool is written as true/false, and a numpy integer is not JSON at all;
    # likewise only a bool QR bit. Exactly one endpoint is on the DNS port,
    # consistent with the QR bit: requests travel to port 53, responses come
    # from it. (Reading each field where it is used is faster than unpacking
    # all 17 of them first.)
    return (isinstance(record.ts, float) and math.isfinite(record.ts)
            and (type(record.src_port), type(record.dst_port), type(record.ip_ttl),
                 type(record.ip_id), type(record.udp_len), type(record.dns_id),
                 type(record.qtype), type(record.rcode), type(record.ancount),
                 type(record.nscount)) == _TEN_INTS
            and type(record.is_response) is bool
            and type(record.src_as) in _AS_TYPES and type(record.dst_as) in _AS_TYPES
            and ip_valid[record.src_ip] and ip_valid[record.dst_ip]
            and 0 <= record.src_port <= 65535 and 0 <= record.dst_port <= 65535
            and (record.src_port == DNS_PORT) != (record.dst_port == DNS_PORT)
            and (record.src_port if record.is_response else record.dst_port) == DNS_PORT
            and 0 <= record.ip_ttl <= 255 and 0 <= record.ip_id <= 65535
            and 0 <= record.dns_id <= 65535 and record.udp_len >= UDP_HEADER_LEN
            and 0 <= record.qtype <= 65535 and 0 <= record.rcode <= 15
            and record.ancount >= 0 and record.nscount >= 0
            and name_valid[record.qname])


def sanitize(records: Iterable[PacketRecord]) -> tuple[list[PacketRecord], int]:
    """Keep semantically well-formed records, count the rest.

    Idempotent: a second pass over the kept records drops nothing. Kept
    records get their qname normalized so hand-built input behaves like
    parsed input. Each distinct address and qname is checked once per call.
    """
    # an address or qname must be a string: ipaddress also reads an integer
    ip_valid = Memo(lambda ip: isinstance(ip, str) and (
        _ipv4_int(ip) is not None or _ip_or_none(ip) is not None))
    normalized = Memo(lambda qname: normalize_qname(qname) if isinstance(qname, str) else qname)
    name_valid = Memo(lambda qname: isinstance(qname, str) and qname_is_valid(qname))
    kept: list[PacketRecord] = []
    dropped = 0
    for record in records:
        record.qname = normalized[record.qname]
        if _record_is_valid(record, ip_valid, name_valid):
            kept.append(record)
        else:
            dropped += 1
    return kept, dropped


class PrefixTable:
    """Longest-prefix-match IP-to-AS table built from (cidr, asn) rows."""

    def __init__(self, rows: Iterable[tuple[str, int]]):
        # maps (ip_version, prefix_len) -> {masked_int: asn}
        self._buckets: dict[tuple[int, int], dict[int, int]] = {}
        self._lengths: dict[int, list[int]] = {4: [], 6: []}
        self._size = 0
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
        self._size += 1

    def __len__(self) -> int:
        return self._size

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
                asn: object = int(asn_text)
            except ValueError:
                asn = asn_text  # reported as a bad ASN
            table._add(row[0].strip(), asn, f"line {lineno}")
        return table

    def lookup(self, ip: str) -> int | None:
        addr_int = _ipv4_int(ip)
        if addr_int is not None:
            version, max_bits = 4, 32
        else:
            addr = _ip_or_none(ip)
            if addr is None:
                return None
            version, max_bits, addr_int = addr.version, addr.max_prefixlen, int(addr)
        for plen in self._lengths[version]:
            masked = (addr_int >> (max_bits - plen)) << (max_bits - plen) if plen else 0
            asn = self._buckets[(version, plen)].get(masked)
            if asn is not None:
                return asn
        return None


def annotate(records: list[PacketRecord], table: PrefixTable) -> list[PacketRecord]:
    """Fill src_as/dst_as in place via longest-prefix match; membership of the
    record list never changes. Unmatched addresses stay None."""
    cache: dict[str, int | None] = {}
    for record in records:
        for ip in (record.src_ip, record.dst_ip):
            if ip not in cache:
                cache[ip] = table.lookup(ip)
        record.src_as = cache[record.src_ip]
        record.dst_as = cache[record.dst_ip]
    return records
