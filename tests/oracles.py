"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way on purpose: wire formats are
built byte by byte with struct, clustering is recomputed from first
principles, and rank math uses exact rationals. None of it imports the
corresponding fast paths under test.
"""

from __future__ import annotations

import ipaddress
import json
import math
import struct
from datetime import date
from fractions import Fraction

import numpy as np

from dnsamp.detector import AttackEvent
from dnsamp.synth import derive_seed
from dnsamp.trace import TRACE_FIELDS, PacketRecord, normalize_qname, qname_is_valid

QCLASS_IN = 1
TYPE_CODES = {"A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "MX": 15, "TXT": 16,
              "AAAA": 28, "RRSIG": 46, "DNSKEY": 48, "ANY": 255}


def wire_name(owner: str) -> bytes:
    """Uncompressed wire encoding of a domain name."""
    owner = owner.rstrip(".")
    out = b""
    if owner:
        for label in owner.split("."):
            raw = label.encode("ascii")
            out += struct.pack("!B", len(raw)) + raw
    return out + b"\x00"


def wire_any_response(owner: str, records: list[tuple[str, int, int]]) -> bytes:
    """A full uncompressed response message: header, one question, n answers.

    records holds (rr_type, ttl, rdata_len) triples; rdata content is
    zero-filled since only lengths matter.
    """
    name = wire_name(owner)
    header = struct.pack("!HHHHHH", 0x1234, 0x8180, 1, len(records), 0, 0)
    question = name + struct.pack("!HH", TYPE_CODES["ANY"], QCLASS_IN)
    body = b""
    for rr_type, ttl, rdata_len in records:
        code = TYPE_CODES.get(rr_type, 10)
        body += name + struct.pack("!HHIH", code, QCLASS_IN, ttl, rdata_len)
        body += b"\x00" * rdata_len
    return header + question + body


def jaccard_distance_matrix_reference(sets) -> np.ndarray:
    """1 - |a & b| / |a | b| for every pair, one pair at a time; two empty
    sets are at distance 0."""
    n = len(sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sets[i], sets[j]
            similarity = len(a & b) / len(a | b) if a or b else 1.0
            matrix[i, j] = matrix[j, i] = 1.0 - similarity
    return matrix


def dbscan_reference(matrix, eps: float, min_pts: int):
    """First-principles density clustering on a distance matrix.

    Returns a per-point description rather than labels, because border
    points reachable from several clusters are genuinely ambiguous:
      ('core', component_id) | ('border', frozenset of component ids) | 'noise'
    Component ids are arbitrary but stable (ordered by smallest member).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    neighbors = [set(np.flatnonzero(matrix[i] <= eps)) for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    comp = [-1] * n
    n_comp = 0
    for i in range(n):
        if not core[i] or comp[i] != -1:
            continue
        stack = [i]
        comp[i] = n_comp
        while stack:
            j = stack.pop()
            for k in neighbors[j]:
                if core[k] and comp[k] == -1:
                    comp[k] = n_comp
                    stack.append(k)
        n_comp += 1
    out = []
    for i in range(n):
        if core[i]:
            out.append(("core", comp[i]))
            continue
        candidates = frozenset(comp[k] for k in neighbors[i] if core[k])
        out.append(("border", candidates) if candidates else "noise")
    return out


def check_dbscan_labels(labels, reference) -> None:
    """Assert labels are consistent with the reference, up to renaming."""
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for label, ref in zip(labels, reference):
        if ref == "noise":
            assert label == -1, f"noise point labeled {label}"
        elif ref[0] == "core":
            comp = ref[1]
            assert label != -1, "core point labeled noise"
            if comp in mapping:
                assert mapping[comp] == label
            else:
                assert label not in reverse, "two components share one label"
                mapping[comp] = label
                reverse[label] = comp
    for label, ref in zip(labels, reference):
        if isinstance(ref, tuple) and ref[0] == "border":
            assert label != -1, "border point labeled noise"
            assert reverse.get(label) in ref[1], \
                f"border point joined cluster {label} outside its candidates"


def max_bipartite_matching(edges: list[tuple[int, int]], n_left: int) -> int:
    """Maximum matching size via augmenting paths. edges are (left, right)."""
    adjacency: dict[int, list[int]] = {}
    for left, right in edges:
        adjacency.setdefault(left, []).append(right)
    match_right: dict[int, int] = {}

    def augment(left: int, seen: set[int]) -> bool:
        for right in adjacency.get(left, []):
            if right in seen:
                continue
            seen.add(right)
            if right not in match_right or augment(match_right[right], seen):
                match_right[right] = left
                return True
        return False

    size = 0
    for left in range(n_left):
        if augment(left, set()):
            size += 1
    return size


def decile_reference(counts: list[int]) -> list[int]:
    """Average-rank deciles with exact rational arithmetic."""
    n = len(counts)
    order = sorted(range(n), key=lambda i: counts[i])
    ranks: list[Fraction] = [Fraction(0)] * n
    i = 0
    while i < n:
        j = i
        while j < n and counts[order[j]] == counts[order[i]]:
            j += 1
        avg = Fraction(sum(range(i + 1, j + 1)), j - i)
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    out = []
    for rank in ranks:
        value = 10 * rank / n
        out.append(int(value) if value == int(value) else int(value) + 1)
    return out


def lpm_reference(ip: str, table: list[tuple[str, int]]) -> int | None:
    """Longest-prefix match by linear scan; None for text that is no address."""
    address = _ip_or_none(ip)
    if address is None:
        return None
    best_len = -1
    best_asn = None
    for prefix, asn in table:
        network = ipaddress.ip_network(prefix)
        if network.version == address.version and address in network:
            if network.prefixlen > best_len:
                best_len = network.prefixlen
                best_asn = asn
    return best_asn


def _ip_or_none(text):
    try:
        return ipaddress.ip_address(text)
    except ValueError:
        return None


def record_is_valid_reference(record) -> bool:
    """Per-record validity, every field checked on every record."""
    if not (isinstance(record.ts, float) and math.isfinite(record.ts)):
        return False
    integers = (record.src_port, record.dst_port, record.ip_ttl, record.ip_id, record.udp_len,
                record.dns_id, record.qtype, record.rcode, record.ancount, record.nscount)
    if any(type(value) is not int for value in integers):
        return False
    if type(record.is_response) is not bool:
        return False
    if any(value is not None and type(value) is not int
           for value in (record.src_as, record.dst_as)):
        return False
    for address in (record.src_ip, record.dst_ip):
        if not isinstance(address, str) or _ip_or_none(address) is None:
            return False
    for port in (record.src_port, record.dst_port):
        if not 0 <= port <= 65535:
            return False
    if (record.src_port == 53) == (record.dst_port == 53):
        return False
    if record.is_response and record.src_port != 53:
        return False
    if not record.is_response and record.dst_port != 53:
        return False
    if not 0 <= record.ip_ttl <= 255:
        return False
    if not 0 <= record.ip_id <= 65535:
        return False
    if not 0 <= record.dns_id <= 65535:
        return False
    if record.udp_len < 8:
        return False
    if not 0 <= record.qtype <= 65535:
        return False
    if not 0 <= record.rcode <= 15:
        return False
    if record.ancount < 0 or record.nscount < 0:
        return False
    return isinstance(record.qname, str) and qname_is_valid(record.qname)


def sanitize_reference(records):
    """(kept, dropped) with the qname of every record normalized in place."""
    kept = []
    dropped = 0
    for record in records:
        if isinstance(record.qname, str):
            record.qname = normalize_qname(record.qname)
        if record_is_valid_reference(record):
            kept.append(record)
        else:
            dropped += 1
    return kept, dropped


def _record_from_obj_reference(obj, normalized: dict) -> PacketRecord | None:
    if not isinstance(obj, dict):
        return None
    try:
        values = tuple(obj[name] for name in TRACE_FIELDS)
    except KeyError:
        return None
    types = (float, str, str, int, int, int, int, int, bool, int, str, int, int, int, int)
    ts = values[0]
    if tuple(map(type, values)) != types:
        qr = values[8]
        if type(qr) is int and qr in (0, 1):
            values = (*values[:8], bool(qr), *values[9:])
        if type(ts) not in (int, float) or tuple(map(type, values[1:])) != types[1:]:
            return None
        try:
            ts = float(ts)
        except OverflowError:
            return None
    src_as, dst_as = obj.get("src_as"), obj.get("dst_as")
    if (src_as is not None and type(src_as) is not int) or \
            (dst_as is not None and type(dst_as) is not int):
        return None
    qname = normalized.setdefault(values[10], normalize_qname(values[10]))
    return PacketRecord(ts, *values[1:10], qname, *values[11:], src_as, dst_as)


def parse_trace_reference(lines) -> tuple[list[PacketRecord], int]:
    """(records, skipped) of trace lines, each stripped line decoded by
    json.loads, as the trace reader did before its single-scan path."""
    normalized: dict = {}
    records = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            skipped += 1
            continue
        record = _record_from_obj_reference(obj, normalized)
        if record is None:
            skipped += 1
        else:
            records.append(record)
    return records, skipped


def trace_line_reference(record) -> str:
    """Canonical JSONL line of one record, built by the json module."""
    obj = {
        "ts": record.ts, "src_ip": record.src_ip, "dst_ip": record.dst_ip,
        "src_port": record.src_port, "dst_port": record.dst_port,
        "ip_ttl": record.ip_ttl, "ip_id": record.ip_id, "udp_len": record.udp_len,
        "qr": record.is_response, "dns_id": record.dns_id, "qname": record.qname,
        "qtype": record.qtype, "rcode": record.rcode, "ancount": record.ancount,
        "nscount": record.nscount,
    }
    if record.src_as is not None or record.dst_as is not None:
        obj["src_as"] = record.src_as
        obj["dst_as"] = record.dst_as
    return json.dumps(obj, separators=(",", ":"))


def csv_table_reference(header, rows) -> str:
    """A CSV table as the f-string writers built it: fields joined by commas,
    floats by repr, None as an empty field, nothing quoted."""
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join("" if value is None else f"{value!r}" if isinstance(value, float)
                              else f"{value}" for value in row))
    return "".join(line + "\n" for line in lines)


EVENT_FIELDS_REFERENCE = (
    "victim_ip", "day", "packet_count", "misused_packet_count",
    "est_original_packets", "est_misused_packets", "share",
    "share_excluding_root", "first_ts", "last_ts", "request_count",
    "response_count", "qname_counts", "amplifier_set", "dns_ids",
    "req_ip_ids", "req_src_ports", "req_dns_ids", "ingress_as_counts",
    "victim_as", "intensity_decile",
)


def event_to_obj_reference(event) -> dict:
    """The JSON object of an attack event, field by field as it was written
    before the record codec."""
    obj = {}
    for name in EVENT_FIELDS_REFERENCE:
        value = getattr(event, name)
        if isinstance(value, tuple):
            value = list(value)
        elif name == "ingress_as_counts":
            value = {str(k): v for k, v in value.items()}
        obj[name] = value
    obj["duration_s"] = event.duration_s
    return obj


def event_from_obj_reference(obj: dict):
    """An attack event from its JSON object, field by field, unchecked."""
    return AttackEvent(
        victim_ip=obj["victim_ip"],
        day=obj["day"],
        packet_count=obj["packet_count"],
        misused_packet_count=obj["misused_packet_count"],
        est_original_packets=obj["est_original_packets"],
        est_misused_packets=obj["est_misused_packets"],
        share=obj["share"],
        share_excluding_root=obj["share_excluding_root"],
        first_ts=obj["first_ts"],
        last_ts=obj["last_ts"],
        request_count=obj["request_count"],
        response_count=obj["response_count"],
        qname_counts=dict(obj["qname_counts"]),
        amplifier_set=tuple(obj["amplifier_set"]),
        dns_ids=tuple(obj["dns_ids"]),
        req_ip_ids=tuple(obj["req_ip_ids"]),
        req_src_ports=tuple(obj["req_src_ports"]),
        req_dns_ids=tuple(obj["req_dns_ids"]),
        ingress_as_counts={int(k): v for k, v in obj["ingress_as_counts"].items()},
        victim_as=obj.get("victim_as"),
        intensity_decile=obj.get("intensity_decile"),
    )


def parity_alternation_period_reference(daily_parity, max_lag=None):
    """fingerprint.parity_alternation_period as it was written over numpy."""
    if len(daily_parity) < 2:
        return None
    days = sorted(daily_parity)
    first = date.fromisoformat(days[0][0]).toordinal()
    last = date.fromisoformat(days[-1][0]).toordinal()
    span = last - first + 1
    signal = np.zeros(span, dtype=float)
    for day, value in days:
        signal[date.fromisoformat(day).toordinal() - first] = value
    top = span - 1 if max_lag is None else min(max_lag, span - 1)
    best_lag, best_value = None, 0.0
    for lag in range(1, top + 1):
        products = signal[:-lag] * signal[lag:]
        valid = np.count_nonzero(products)
        if valid == 0:
            continue
        value = float(np.sum(products) / valid)
        if value < best_value:
            best_lag, best_value = lag, value
    return best_lag


def benign_client_records_reference(seed: int, client_ip: str, tag: str, count: int,
                                    window: tuple[float, float], names, any_fraction: float):
    """synth's benign records of one client as they were written with one
    draw per field: each numpy scalar converted on its own and each server
    address formatted by ipaddress."""
    if count <= 0:
        return []
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, tag)))
    stamps = np.sort(rng.uniform(window[0], window[1], size=count))
    name_picks = rng.integers(0, len(names), size=count)
    server_picks = rng.integers(0, 250, size=count)
    is_request = rng.random(count) < 0.6
    any_roll = rng.random(count)
    type_roll = rng.random(count)
    sizes = rng.integers(80, 1200, size=count)
    src_ports = rng.integers(1024, 65536, size=count)
    ids = rng.integers(0, 65536, size=count)
    ip_ids = rng.integers(0, 65536, size=count)
    ip_ttls = rng.integers(32, 256, size=count)
    ancounts = rng.integers(1, 5, size=count)
    server_base = int(ipaddress.IPv4Address("192.0.2.1"))
    records = []
    for j in range(count):
        qname = names[int(name_picks[j])]
        if any_roll[j] < any_fraction:
            qtype = 255
        else:
            qtype = 1 if type_roll[j] < 0.75 else 28
        server = str(ipaddress.IPv4Address(server_base + int(server_picks[j])))
        ts, port = float(stamps[j]), int(src_ports[j])
        common = (int(ip_ttls[j]), int(ip_ids[j]))
        if is_request[j]:
            records.append(PacketRecord(
                ts, client_ip, server, port, 53, *common,
                8 + 12 + len(wire_name(qname)) + 4, False, int(ids[j]), qname, qtype,
                0, 0, 0))
        else:
            records.append(PacketRecord(
                ts, server, client_ip, 53, port, *common, 8 + int(sizes[j]), True,
                int(ids[j]), qname, qtype, 0, int(ancounts[j]), 0))
    return records
