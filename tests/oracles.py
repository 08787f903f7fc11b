"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way on purpose: wire formats are
built byte by byte with struct, clustering is recomputed from first
principles, and rank math uses exact rationals. None of it imports the
corresponding fast paths under test.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import json
import math
import struct
from collections import Counter
from dataclasses import fields as dataclass_fields
from datetime import date, datetime, timezone
from fractions import Fraction
from functools import partial
from operator import attrgetter, itemgetter

import numpy as np

from dnsamp.detector import AttackEvent, ClientDayStats
from dnsamp.fileio import Memo, decode_lines, read_lines, shared
from dnsamp.synth import derive_seed
from dnsamp.records import qname_is_valid
from dnsamp.trace import TRACE_FIELDS, PacketRecord, normalize_qname

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


def visibility_curve_reference(stats, max_packets=None) -> list[tuple[int, float]]:
    """For p = 1 .. max_packets (default the largest total), the share of
    client-days with at least p sampled packets, counted one p at a time."""
    totals = [s.total_pkts for s in stats]
    if not totals:
        return []
    top = max(totals) if max_packets is None else max_packets
    curve = []
    for p in range(1, top + 1):
        seen = sum(1 for total in totals if total >= p)
        curve.append((p, seen / len(totals)))
    return curve


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


# A kept ts falls on a UTC day from 0001-01-01 to 9999-12-31, which datetime
# can name.
FIRST_TS = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
END_TS = datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp() + 86400


def record_is_valid_reference(record) -> bool:
    """Per-record validity, every field checked on every record."""
    if not (isinstance(record.ts, float) and FIRST_TS <= record.ts < END_TS):
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
    """(kept, dropped): copies of the valid records, each qname normalized;
    the records themselves are left as they are."""
    kept = []
    dropped = 0
    for record in records:
        if record_is_valid_reference(record):
            kept.append(dataclasses.replace(record, qname=normalize_qname(record.qname)))
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


def parity_alternation_period_reference(daily_parity):
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
    best_lag, best_value = None, 0.0
    for lag in range(1, span):
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


# --- the detection chain, from the README's detection rule -----------------

def utc_day_reference(ts) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


def _ranked_names(scores: dict) -> list:
    """Names by score, highest first, ties in name order."""
    return [name for name, _ in sorted(scores.items(), key=lambda item: (-item[1], item[0]))]


def selector_rankings_reference(records, victim_windows, slack_s: float) -> list:
    """[(selector, names ranked)] of the three selectors: the largest response
    payload seen for a name, the number of ANY requests for it, and the
    packets of a known victim inside its window widened by slack_s on each
    side. A victim window is anything with victim_ip, start and end."""
    largest: dict = {}
    any_requests: dict = {}
    at_victims: dict = {}
    for record in records:
        if record.is_response:
            payload = record.udp_len - 8
            if record.qname not in largest or payload > largest[record.qname]:
                largest[record.qname] = payload
        elif record.qtype == 255:
            any_requests[record.qname] = any_requests.get(record.qname, 0) + 1
        client = record.dst_ip if record.is_response else record.src_ip
        for window in victim_windows:
            if window.victim_ip == client and \
                    window.start - slack_s <= record.ts <= window.end + slack_s:
                at_victims[record.qname] = at_victims.get(record.qname, 0) + 1
                break
    return [("max_size", _ranked_names(largest)), ("any_volume", _ranked_names(any_requests)),
            ("ground_truth", _ranked_names(at_victims))]


def consensus_reference(rankings, k_max: int):
    """(names, k*, curve) of the rankings' consensus, or None when every
    ranking is empty. k* is the smallest k whose top-k sets have the largest
    mean pairwise Jaccard index; the names are the union of the top-k* sets."""
    active = [names for _, names in rankings if names]
    if not active:
        return None
    curve = []
    if len(active) == 1:
        k_star = min(k_max, len(active[0]))
    else:
        k_star, best = None, None
        for k in range(1, k_max + 1):
            tops = [set(names[:k]) for names in active]
            total, pairs = 0.0, 0
            for i in range(len(tops)):
                for j in range(i + 1, len(tops)):
                    total += len(tops[i] & tops[j]) / len(tops[i] | tops[j])
                    pairs += 1
            mean = total / pairs
            curve.append((k, mean))
            if best is None or mean > best:
                k_star, best = k, mean
    names = sorted({name for ranked in active for name in ranked[:k_star]})
    return names, k_star, curve


def detection_reference(records, names, share_threshold: float, min_packets: int,
                        sampling: int) -> list[str]:
    """The attacks.jsonl lines of the records: one event per (client, UTC
    day) with at least min_packets packets of which at least share_threshold
    carry a listed name, sorted by day and victim."""
    groups: dict = {}
    for record in records:
        client = record.dst_ip if record.is_response else record.src_ip
        groups.setdefault((client, utc_day_reference(record.ts)), []).append(record)
    events = []
    for (client, day), group in groups.items():
        misused = [r for r in group if r.qname in names]
        total = len(group)
        if not misused or total < min_packets or len(misused) / total < share_threshold:
            continue
        in_time = sorted(misused, key=lambda r: r.ts)  # stable: equal times keep trace order
        requests = [r for r in in_time if not r.is_response]
        qnames: dict = {}
        ingress: dict = {}
        victim_ases: dict = {}
        first, last = math.inf, -math.inf
        for r in misused:
            qnames[r.qname] = qnames.get(r.qname, 0) + 1
            if r.src_as is not None:
                ingress[r.src_as] = ingress.get(r.src_as, 0) + 1
            client_as = r.dst_as if r.is_response else r.src_as
            if client_as is not None:
                victim_ases[client_as] = victim_ases.get(client_as, 0) + 1
            first, last = min(first, r.ts), max(last, r.ts)
        top = max(victim_ases.values(), default=None)
        events.append({
            "victim_ip": client, "day": day,
            "packet_count": total, "misused_packet_count": len(misused),
            "est_original_packets": total * sampling,
            "est_misused_packets": len(misused) * sampling,
            "share": len(misused) / total,
            "share_excluding_root": sum(r.qname != "." for r in misused) / total,
            "first_ts": first, "last_ts": last,
            "request_count": len(requests), "response_count": len(misused) - len(requests),
            "qname_counts": {q: qnames[q] for q in sorted(qnames)},
            "amplifier_set": sorted({r.src_ip if r.is_response else r.dst_ip
                                     for r in misused}),
            "dns_ids": [r.dns_id for r in in_time],
            "req_ip_ids": [r.ip_id for r in requests],
            "req_src_ports": [r.src_port for r in requests],
            "req_dns_ids": [r.dns_id for r in requests],
            "ingress_as_counts": {str(a): ingress[a] for a in sorted(ingress)},
            "victim_as": None if top is None else min(a for a, n in victim_ases.items()
                                                      if n == top),
        })
    events.sort(key=lambda event: (event["day"], event["victim_ip"]))
    deciles = decile_reference([event["packet_count"] for event in events])
    lines = []
    for event, decile in zip(events, deciles):
        event["intensity_decile"] = decile
        event["duration_s"] = event["last_ts"] - event["first_ts"]
        lines.append(json.dumps(event, separators=(",", ":")))
    return lines


# --- the trace stages over lists of records --------------------------------
# The row path the columnar Trace replaced: parse into one PacketRecord per
# line, sanitize record by record, and loop over records in each consumer.
# It reads lines with the library's fileio.read_lines, which the two paths
# share and test_read_jsonl_matches_json_loads checks on its own.

_ROW_FIELD_TYPES = [float, str, str, int, int, int, int, int, bool, int, str, int, int, int, int]
_row_fields = itemgetter(*TRACE_FIELDS)
_row_values = attrgetter(*(f.name for f in dataclass_fields(PacketRecord)))
_PLAIN_ROW_TYPES = {(*_ROW_FIELD_TYPES, src_as, dst_as)
                    for src_as in (int, type(None)) for dst_as in (int, type(None))}
_TEN_INTS = (int,) * 10
_AS_TYPES = (int, type(None))


def _record_from_obj_rows(normalized: Memo, addresses: Memo, integers: Memo,
                          obj) -> PacketRecord:
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    try:
        values = _row_fields(obj)
    except KeyError:
        raise ValueError("a field is missing") from None
    (ts, src_ip, dst_ip, src_port, dst_port, ip_ttl, ip_id, udp_len, qr,
     dns_id, qname, qtype, rcode, ancount, nscount) = values
    types = list(map(type, values))
    if types != _ROW_FIELD_TYPES:
        if types[8] is int and qr in (0, 1):
            qr, types[8] = bool(qr), bool
        if types[0] is int:
            try:
                ts, types[0] = float(ts), float
            except OverflowError:
                raise ValueError("ts is beyond the float range") from None
        if types != _ROW_FIELD_TYPES:
            raise ValueError("a field has the wrong type")
    src_as, dst_as = obj.get("src_as"), obj.get("dst_as")
    if (src_as is not None and type(src_as) is not int) or \
            (dst_as is not None and type(dst_as) is not int):
        raise ValueError("an AS number is not an integer")
    return PacketRecord(ts, addresses[src_ip], addresses[dst_ip], src_port, dst_port,
                        ip_ttl, ip_id, integers[udp_len], qr, dns_id, normalized[qname],
                        qtype, rcode, ancount, nscount, integers[src_as], integers[dst_as])


def parse_trace_rows(source) -> tuple[list[PacketRecord], int]:
    """(records, skipped lines): one PacketRecord per sound line."""
    return decode_lines(read_lines(source), partial(_record_from_obj_rows,
                                                    Memo(normalize_qname), shared(), shared()))


def _record_is_valid_rows(record: PacketRecord, ip_valid: Memo, name_valid: Memo) -> bool:
    return (isinstance(record.ts, float) and FIRST_TS <= record.ts < END_TS
            and (type(record.src_port), type(record.dst_port), type(record.ip_ttl),
                 type(record.ip_id), type(record.udp_len), type(record.dns_id),
                 type(record.qtype), type(record.rcode), type(record.ancount),
                 type(record.nscount)) == _TEN_INTS
            and type(record.is_response) is bool
            and type(record.src_as) in _AS_TYPES and type(record.dst_as) in _AS_TYPES
            and ip_valid[record.src_ip] and ip_valid[record.dst_ip]
            and 0 <= record.src_port <= 65535 and 0 <= record.dst_port <= 65535
            and (record.src_port == 53) != (record.dst_port == 53)
            and (record.src_port if record.is_response else record.dst_port) == 53
            and 0 <= record.ip_ttl <= 255 and 0 <= record.ip_id <= 65535
            and 0 <= record.dns_id <= 65535 and record.udp_len >= 8
            and 0 <= record.qtype <= 65535 and 0 <= record.rcode <= 15
            and record.ancount >= 0 and record.nscount >= 0
            and name_valid[record.qname])


def sanitize_rows(records) -> tuple[list[PacketRecord], int]:
    """(kept, dropped), every record's qname normalized in place."""
    ip_valid = Memo(lambda ip: isinstance(ip, str) and _ip_or_none(ip) is not None)
    normalized = Memo(lambda qname: normalize_qname(qname) if isinstance(qname, str) else qname)
    name_valid = Memo(lambda qname: isinstance(qname, str) and qname_is_valid(qname))
    kept = []
    dropped = 0
    for record in records:
        record.qname = normalized[record.qname]
        if _record_is_valid_rows(record, ip_valid, name_valid):
            kept.append(record)
        else:
            dropped += 1
    return kept, dropped


def ingest_stats_rows(lines) -> dict:
    """The ingest_stats.json object of a trace's lines."""
    records, skipped = parse_trace_rows(lines)
    total_bytes = sum(max(r.udp_len, 0) for r in records)
    kept, dropped = sanitize_rows(records)
    kept_bytes = sum(r.udp_len for r in kept)
    return {
        "parsed_records": len(records),
        "skipped_lines": skipped,
        "dropped_records": dropped,
        "kept_records": len(kept),
        "dropped_packet_share": dropped / len(records) if records else 0.0,
        "dropped_byte_share": (1.0 - kept_bytes / total_bytes) if total_bytes else 0.0,
    }


def annotate_rows(records, table) -> None:
    """Fill src_as/dst_as of each record in place from table.lookup."""
    cache: dict = {}
    for record in records:
        for ip in (record.src_ip, record.dst_ip):
            if ip not in cache:
                cache[ip] = table.lookup(ip)
        record.src_as = cache[record.src_ip]
        record.dst_as = cache[record.dst_ip]


def serialize_trace_rows(records):
    """Canonical JSONL lines, each record of builtin types with a finite ts
    from a template, any other through json.dumps."""
    quoted = Memo(json.dumps)
    for record in records:
        values = _row_values(record)
        if tuple(map(type, values)) not in _PLAIN_ROW_TYPES or not math.isfinite(values[0]):
            yield trace_line_reference(record)
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


def _rank_rows(scores: dict) -> tuple:
    return tuple(sorted(scores.items(), key=lambda item: (-item[1], item[0])))


def selector_max_size_rows(records) -> tuple:
    """(qname, score) pairs of the max-size selector, record by record."""
    best: dict = {}
    for record in records:
        if not record.is_response:
            continue
        size = record.dns_payload_len
        if size > best.get(record.qname, -1):
            best[record.qname] = size
    return _rank_rows(best)


def selector_any_volume_rows(records) -> tuple:
    counts: dict = {}
    for record in records:
        if not record.is_response and record.qtype == 255:
            counts[record.qname] = counts.get(record.qname, 0) + 1
    return _rank_rows(counts)


def selector_ground_truth_rows(records, victim_windows, slack_s: float) -> tuple:
    windows: dict = {}
    for event in victim_windows:
        windows.setdefault(event.victim_ip, []).append(
            (event.start - slack_s, event.end + slack_s))
    counts: dict = {}
    for record in records:
        spans = windows.get(record.client_ip)
        if spans and any(lo <= record.ts <= hi for lo, hi in spans):
            counts[record.qname] = counts.get(record.qname, 0) + 1
    return _rank_rows(counts)


def aggregate_client_days_rows(records, names) -> list[ClientDayStats]:
    """The per-(client, UTC day) aggregates, record by record."""
    totals: Counter = Counter()
    details: dict = {}
    for record in records:
        key = (record.client_ip, record.day)
        totals[key] += 1
        if record.qname not in names:
            continue
        stats = details.get(key)
        if stats is None:
            stats = details[key] = ClientDayStats(client_ip=key[0], day=key[1])
        stats.misused_pkts += 1
        if record.qname != ".":
            stats.misused_nonroot_pkts += 1
        stats.first_ts = min(stats.first_ts, record.ts)
        stats.last_ts = max(stats.last_ts, record.ts)
        stats.qname_counts[record.qname] += 1
        stats.amplifiers.add(record.server_ip)
        stats.dns_id_seq.append((record.ts, record.dns_id))
        if record.is_response:
            stats.response_count += 1
        else:
            stats.request_count += 1
            stats.req_field_seq.append(
                (record.ts, record.ip_id, record.src_port, record.dns_id))
        if record.ingress_as is not None:
            stats.ingress_as_counts[record.ingress_as] += 1
        if record.client_as is not None:
            stats.client_as_counts[record.client_as] += 1
    out = []
    for key in sorted(details):
        stats = details[key]
        stats.total_pkts = totals[key]
        stats.dns_id_seq.sort(key=lambda pair: pair[0])
        stats.req_field_seq.sort(key=lambda row: row[0])
        out.append(stats)
    return out


def nscount_shares_rows(records) -> tuple:
    """report's (nscount_le1_share, nscount_le10_share) over the responses."""
    nscounts = [r.nscount for r in records if r.is_response]
    if not nscounts:
        return None, None
    return (sum(n <= 1 for n in nscounts) / len(nscounts),
            sum(n <= 10 for n in nscounts) / len(nscounts))
