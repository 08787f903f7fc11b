"""The packet record, its fields and the columnar trace that holds them.

`PacketRecord` is one sampled packet. `Trace` holds the packets that
sanitize keeps as one typed array per field, with addresses, qnames, AS
numbers and the fields unbounded above held once each in a table of values,
and reads as a sequence of records built on demand. The validity rules that
decide which rows the columns hold live in `row_filler`.
"""

from __future__ import annotations

import ipaddress
import math
import operator
import re
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

from .fileio import Memo

DNS_PORT = 53
UDP_HEADER_LEN = 8
MAX_NAME_WIRE_LEN = 255
MAX_LABEL_LEN = 63
DAY_S = 86400
# The timestamps of 0001-01-01 and 10000-01-01 UTC: a ts in [TS_MIN, TS_END)
# falls on a day that day_index and utc_day can name.
TS_MIN = -62135596800.0
TS_END = 253402300800.0


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
        return utc_day(day_index(self.ts))


_EPOCH = date(1970, 1, 1)


def day_index(ts: float) -> int:
    """Days from 1970-01-01 to the UTC calendar day of a timestamp."""
    second = math.floor(ts)
    # fromtimestamp rounds to the microsecond, which can carry the last
    # microsecond of a day into the next one
    if ts - second < 0.999999:
        return second // DAY_S
    return (datetime.fromtimestamp(ts, tz=timezone.utc).date() - _EPOCH).days


@lru_cache(maxsize=4096)
def utc_day(index: int) -> str:
    """The ISO day `index` days after 1970-01-01."""
    return datetime.fromtimestamp(index * DAY_S, tz=timezone.utc).date().isoformat()


# The columns of a Trace: PacketRecord's fields in order, each with the type
# code of its array. An interned field holds the index of its value in the
# trace's table: an address, a qname, an AS number (None included) or a field
# that validity leaves unbounded above.
COLUMNS = {"ts": "d", "src_ip": "I", "dst_ip": "I", "src_port": "H", "dst_port": "H",
           "ip_ttl": "B", "ip_id": "H", "udp_len": "I", "is_response": "B", "dns_id": "H",
           "qname": "I", "qtype": "H", "rcode": "B", "ancount": "I", "nscount": "I",
           "src_as": "I", "dst_as": "I"}
_CHUNK = 256  # rows gathered before the columns are extended


class Trace:
    """A trace held as one typed array per PacketRecord field, plus one table
    of the values that the interned fields point into.

    The columns hold the rows that sanitize() keeps, each qname normalized;
    every other sound record of the input is set aside in `dropped`, in input
    order. A trace is a sequence of PacketRecords, built on demand from the
    columns; the pipeline's consumers read the columns instead.
    """

    __slots__ = (*COLUMNS, "values", "_index", "dropped")

    def __init__(self) -> None:
        for name, code in COLUMNS.items():
            setattr(self, name, array(code))
        self.values: list = [None]  # index 0: an AS number not annotated
        self._index: dict = {None: 0}
        self.dropped: list[PacketRecord] = []

    @classmethod
    def of(cls, records: Iterable[PacketRecord]) -> Trace:
        """The records as a trace: those that sanitize() keeps as rows, the
        others in `dropped`. The records themselves are left as they are."""
        trace = cls()
        add, flush = row_filler(trace)
        for record in records:
            values = record_values(record)
            if _has_record_types(values):
                add(values, record)
            else:
                trace.dropped.append(record)
        flush()
        return trace

    def intern(self, value: Any) -> int:
        """The index of value in the table, added if new. Its values are
        strings, ints (never a bool) and None, so values that compare equal
        are interchangeable."""
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.values)
            self.values.append(value)
        return index

    @property
    def columns(self) -> list[array]:
        return [getattr(self, name) for name in COLUMNS]

    def _record(self, row: tuple) -> PacketRecord:
        values = self.values
        (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr, dns_id, qname,
         qtype, rcode, ancount, nscount, src_as, dst_as) = row
        return PacketRecord(ts, values[src_ip], values[dst_ip], src_port, dst_port, ip_ttl,
                            ip_id, values[udp_len], bool(qr), dns_id, values[qname], qtype,
                            rcode, values[ancount], values[nscount], values[src_as],
                            values[dst_as])

    def __len__(self) -> int:
        return len(self.ts)

    def rows(self) -> Iterator[tuple]:
        """Each row in order, as a tuple of the columns' values."""
        return zip(*self.columns)

    def __iter__(self) -> Iterator[PacketRecord]:
        return map(self._record, self.rows())

    def __getitem__(self, position: int) -> PacketRecord:
        return self._record(tuple(column[position] for column in self.columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]


def as_trace(records: Iterable[PacketRecord]) -> Trace:
    """A trace as it is; any other records as a trace of them."""
    return records if isinstance(records, Trace) else Trace.of(records)


# Exact builtin types of the first 15 fields, as a parsed trace line gives
# them (the QR bit as a bool), and of all 17 with the AS numbers.
FIELD_TYPES = (float, str, str, int, int, int, int, int, bool, int, str, int, int, int, int)
PLAIN_RECORD_TYPES = {(*FIELD_TYPES, src_as, dst_as)
                      for src_as in (int, type(None)) for dst_as in (int, type(None))}
record_values = attrgetter(*COLUMNS)
_FOUR_INTS = (int,) * 4
_AS_TYPES = (int, type(None))


def _has_record_types(values: tuple) -> bool:
    """Whether a record's 17 values have the types of a parsed record's: a
    float ts, str addresses and qname, a bool QR bit, int fields and AS
    numbers of int or None. Only a builtin int round-trips through
    write_trace and parse_trace: a bool is written as true/false, and a numpy
    integer is not JSON at all. A float or str subclass passes."""
    types = tuple(map(type, values))
    return types in PLAIN_RECORD_TYPES or (
        isinstance(values[0], float) and isinstance(values[1], str)
        and isinstance(values[2], str) and isinstance(values[10], str)
        and types[3:7] == _FOUR_INTS and types[7] is int and types[8] is bool
        and types[9] is int and types[11:15] == _FOUR_INTS
        and types[15] in _AS_TYPES and types[16] in _AS_TYPES)


def row_filler(trace: Trace) -> tuple[Callable[..., None], Callable[[], None]]:
    """(add, flush) that add rows to a trace: a valid row to its columns, a
    chunk at a time, with its qname normalized, any other to its `dropped`.
    The validity rules live here. Each distinct address and qname is checked
    once.

    add(values, record=None) takes PacketRecord's 17 values, of the types
    that _has_record_types accepts, and drops an invalid row as `record`, or
    as a record of its values. flush() extends the columns by the rows that
    add has gathered."""
    intern, dropped, chunk = trace.intern, trace.dropped, []
    addresses = Memo(lambda ip: intern(ip) if ipv4_int(ip) is not None
                     or ip_or_none(ip) is not None else None)
    names = Memo(lambda qname: intern(normalize_qname(qname)) if qname_is_valid(qname)
                 else None)
    numbers = Memo(intern)

    def add(values: tuple, record: PacketRecord | None = None) -> None:
        (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr, dns_id, qname,
         qtype, rcode, ancount, nscount, src_as, dst_as) = values
        src, dst, name = addresses[src_ip], addresses[dst_ip], names[qname]
        # Exactly one endpoint is on the DNS port, consistent with the QR
        # bit: requests travel to port 53, responses come from it. A nan ts
        # fails the range test.
        if (src is not None and dst is not None and name is not None and TS_MIN <= ts < TS_END
                and 0 <= src_port <= 65535 and 0 <= dst_port <= 65535
                and (src_port == DNS_PORT) != (dst_port == DNS_PORT)
                and (src_port if qr else dst_port) == DNS_PORT
                and 0 <= ip_ttl <= 255 and 0 <= ip_id <= 65535 and 0 <= dns_id <= 65535
                and udp_len >= UDP_HEADER_LEN and 0 <= qtype <= 65535 and 0 <= rcode <= 15
                and ancount >= 0 and nscount >= 0):
            chunk.append((ts, src, dst, src_port, dst_port, ip_ttl, ip_id, numbers[udp_len],
                          qr, dns_id, name, qtype, rcode, numbers[ancount], numbers[nscount],
                          numbers[src_as], numbers[dst_as]))
            if len(chunk) == _CHUNK:
                flush()
        else:
            dropped.append(PacketRecord(*values) if record is None else record)

    def flush() -> None:
        # fromlist converts about twice as fast as extend from a tuple
        for column, values in zip(trace.columns, zip(*chunk)):
            column.fromlist(list(values))
        chunk.clear()

    return add, flush


def ip_or_none(text: str) -> ipaddress.IPv4Address | ipaddress.IPv6Address | None:
    try:
        return ipaddress.ip_address(text)
    except ValueError:
        return None


# A canonical dotted quad: the IPv4 text ipaddress accepts, ASCII digits with
# no leading zeros, each octet at most 255. Any other text goes to ipaddress.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(r"\.".join([_OCTET] * 4) + r"\Z")


def ipv4_int(text: str) -> int | None:
    """The address a canonical dotted quad writes, as an integer; None for
    any other text."""
    quad = _IPV4.match(text) if isinstance(text, str) else None
    if quad is None:
        return None
    a, b, c, d = map(int, quad.groups())
    return a << 24 | b << 16 | c << 8 | d
