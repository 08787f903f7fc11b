"""Attack detection over per-client, per-UTC-day aggregates.

A client-day becomes an attack event when at least min_sampled_packets DNS
packets were sampled for the client and at least share_threshold of them
carry misused names. Original packet volumes are estimated by scaling sampled
counts with the sampling denominator (integer arithmetic, so threshold cases
stay exact).
"""

from __future__ import annotations

import ipaddress
import math
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress, groupby
from operator import not_
from typing import AbstractSet, Iterable, Sequence

from .fileio import from_obj, is_iso_day, read_jsonl, shared, to_obj, write_jsonl
from .records import TS_END, TS_MIN, PacketRecord, as_trace, day_index, utc_day

ROOT_NAME = "."


@dataclass(slots=True)
class DetectorConfig:
    share_threshold: float = 0.9
    min_sampled_packets: int = 10
    sampling_denominator: int = 16000

    def __post_init__(self) -> None:
        if not 0.0 < self.share_threshold <= 1.0:
            raise ValueError(f"share_threshold must be in (0, 1], got {self.share_threshold}")
        if self.min_sampled_packets < 1:
            raise ValueError(f"min_sampled_packets must be >= 1, got {self.min_sampled_packets}")
        if self.sampling_denominator < 1:
            raise ValueError(f"sampling_denominator must be >= 1, got {self.sampling_denominator}")


@dataclass(slots=True)
class ClientDayStats:
    """Aggregate of one client's sampled DNS packets on one UTC day.

    Only client-days with at least one misused-name packet are kept; the
    packet detail lists hold misused packets only (the request-side sublists
    feed header-field fingerprinting)."""

    client_ip: str
    day: str
    total_pkts: int = 0
    misused_pkts: int = 0
    misused_nonroot_pkts: int = 0
    first_ts: float = math.inf
    last_ts: float = -math.inf
    qname_counts: Counter = field(default_factory=Counter)
    request_count: int = 0
    response_count: int = 0
    amplifiers: set = field(default_factory=set)
    dns_id_seq: list = field(default_factory=list)      # (ts, dns_id), misused pkts
    req_field_seq: list = field(default_factory=list)   # (ts, ip_id, src_port, dns_id)
    ingress_as_counts: Counter = field(default_factory=Counter)
    client_as_counts: Counter = field(default_factory=Counter)

    @property
    def share(self) -> float:
        return self.misused_pkts / self.total_pkts if self.total_pkts else 0.0

    @property
    def share_excluding_root(self) -> float:
        """Share recomputed as if the root name were not on the list."""
        return self.misused_nonroot_pkts / self.total_pkts if self.total_pkts else 0.0


def aggregate_client_days(records: Iterable[PacketRecord],
                          names: AbstractSet[str]) -> list[ClientDayStats]:
    """Group sampled packets by (client_ip, UTC day).

    total_pkts counts every DNS packet of the client that day; the misused
    fields and detail lists cover only packets whose qname is on the list.
    Client-days without misused packets are dropped. Root-name packets count
    as misused only if "." itself is on the list.
    """
    trace = as_trace(records)
    values = trace.values
    days = array("q", map(day_index, trace.ts))
    day_names = {day: utc_day(day) for day in set(days)}
    # keyed by (client, day) indices: requests count for their source,
    # responses for their destination
    totals = Counter(compress(zip(trace.src_ip, days), map(not_, trace.is_response)))
    totals.update(compress(zip(trace.dst_ip, days), trace.is_response))
    listed = {index for index in set(trace.qname) if values[index] in names}
    details: dict[tuple[int, int], ClientDayStats] = {}
    for (stamp, qr, src, dst, name, dns, ip, port, ingress, dst_asn,
         day) in compress(zip(trace.ts, trace.is_response, trace.src_ip, trace.dst_ip,
                              trace.qname, trace.dns_id, trace.ip_id, trace.src_port,
                              trace.src_as, trace.dst_as, days),
                          map(listed.__contains__, trace.qname)):
        client, server, client_as = (dst, src, dst_asn) if qr else (src, dst, ingress)
        key = (client, day)
        stats = details.get(key)
        if stats is None:
            stats = details[key] = ClientDayStats(client_ip=values[client], day=day_names[day])
        stats.misused_pkts += 1
        qname_value = values[name]
        if qname_value != ROOT_NAME:
            stats.misused_nonroot_pkts += 1
        stats.first_ts = min(stats.first_ts, stamp)
        stats.last_ts = max(stats.last_ts, stamp)
        stats.qname_counts[qname_value] += 1
        stats.amplifiers.add(values[server])
        stats.dns_id_seq.append((stamp, dns))
        if qr:
            stats.response_count += 1
        else:
            stats.request_count += 1
            stats.req_field_seq.append((stamp, ip, port, dns))
        if values[ingress] is not None:
            stats.ingress_as_counts[values[ingress]] += 1
        if values[client_as] is not None:
            stats.client_as_counts[values[client_as]] += 1
    out = []
    for key, stats in sorted(details.items(), key=lambda item: (item[1].client_ip, item[1].day)):
        stats.total_pkts = totals[key]
        stats.dns_id_seq.sort(key=lambda pair: pair[0])
        stats.req_field_seq.sort(key=lambda row: row[0])
        out.append(stats)
    return out


@dataclass(slots=True)
class AttackEvent:
    """One detected reflection attack: a qualifying (victim, UTC day) pair."""

    victim_ip: str
    day: str
    packet_count: int
    misused_packet_count: int
    est_original_packets: int
    est_misused_packets: int
    share: float
    share_excluding_root: float
    first_ts: float
    last_ts: float
    request_count: int
    response_count: int
    qname_counts: dict[str, int]
    amplifier_set: tuple[str, ...]
    dns_ids: tuple[int, ...]
    req_ip_ids: tuple[int, ...]
    req_src_ports: tuple[int, ...]
    req_dns_ids: tuple[int, ...]
    ingress_as_counts: dict[int, int]
    victim_as: int | None = None
    intensity_decile: int | None = None

    @property
    def duration_s(self) -> float:
        return self.last_ts - self.first_ts

    @property
    def start(self) -> float:
        return self.first_ts

    @property
    def end(self) -> float:
        return self.last_ts

    def dominant_qname(self) -> str:
        """Plurality name of the event's misused packets, ties lexicographic."""
        if not self.qname_counts:
            return ""
        return min(self.qname_counts, key=lambda q: (-self.qname_counts[q], q))


def _majority_as(counts: Counter) -> int | None:
    if not counts:
        return None
    return min(counts, key=lambda asn: (-counts[asn], asn))


def detect_attacks(stats: Sequence[ClientDayStats],
                   config: DetectorConfig | None = None) -> list[AttackEvent]:
    """Apply the two detection thresholds and materialize events.

    Events are sorted by (day, victim_ip). Estimated original volumes are
    sampled counts times the sampling denominator; the misused estimate uses
    the misused sampled count directly so the arithmetic stays integral.
    """
    cfg = config or DetectorConfig()
    events = []
    for s in stats:
        if s.total_pkts < cfg.min_sampled_packets:
            continue
        if s.share < cfg.share_threshold:
            continue
        events.append(AttackEvent(
            victim_ip=s.client_ip,
            day=s.day,
            packet_count=s.total_pkts,
            misused_packet_count=s.misused_pkts,
            est_original_packets=s.total_pkts * cfg.sampling_denominator,
            est_misused_packets=s.misused_pkts * cfg.sampling_denominator,
            share=s.share,
            share_excluding_root=s.share_excluding_root,
            first_ts=s.first_ts,
            last_ts=s.last_ts,
            request_count=s.request_count,
            response_count=s.response_count,
            qname_counts={q: s.qname_counts[q] for q in sorted(s.qname_counts)},
            amplifier_set=tuple(sorted(s.amplifiers)),
            dns_ids=tuple(i for _, i in s.dns_id_seq),
            req_ip_ids=tuple(row[1] for row in s.req_field_seq),
            req_src_ports=tuple(row[2] for row in s.req_field_seq),
            req_dns_ids=tuple(row[3] for row in s.req_field_seq),
            ingress_as_counts={a: s.ingress_as_counts[a]
                               for a in sorted(s.ingress_as_counts)},
            victim_as=_majority_as(s.client_as_counts),
        ))
    events.sort(key=lambda e: (e.day, e.victim_ip))
    return events


def decile_ranks(values: Sequence[int]) -> list[int]:
    """Decile (1..10) per value, ascending, average ranks on ties.

    decile = ceil(10 * avg_rank / N), computed in integer arithmetic:
    tied values share the mean of their 1-based sort positions.
    """
    n = len(values)
    deciles = [0] * n
    pos = 0
    order = sorted(range(n), key=values.__getitem__)
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        # 1-based positions pos+1 .. pos+len(run) share the average rank
        # (2*pos + len(run) + 1) / 2, so ceil(10 * avg_rank / n) is this
        decile = (5 * (2 * pos + len(run) + 1) + n - 1) // n
        for i in run:
            deciles[i] = decile
        pos += len(run)
    return deciles


def intensity_deciles(events: Sequence[AttackEvent]) -> list[AttackEvent]:
    """Score events 1..10 by sampled packet count (ascending), in place."""
    for event, decile in zip(events, decile_ranks([e.packet_count for e in events])):
        event.intensity_decile = decile
    return list(events)


def visibility_curve(stats: Sequence[ClientDayStats],
                     max_packets: int | None = None) -> list[tuple[int, float]]:
    """Share of client-days with at least p sampled packets, p = 1..max.

    Non-increasing in p by construction."""
    if not stats:
        return []
    totals = sorted(s.total_pkts for s in stats)
    top = max_packets if max_packets is not None else totals[-1]
    n = len(totals)
    return [(p, (n - bisect_left(totals, p)) / n) for p in range(1, top + 1)]


def _victim_prefixes(ip: str) -> tuple[tuple[int, int], ...]:
    """(IP version, network number) of the /24, /16 and /8 of an IPv4 victim
    and of the /48 and /32 of an IPv6 one; none for a victim_ip that is not
    an address. An IPv4-mapped IPv6 victim (::ffff:a.b.c.d) is the IPv4
    victim it maps."""
    try:
        address = ipaddress.ip_address(ip)
    except ValueError:
        return ()
    if address.version == 6 and address.ipv4_mapped is not None:
        address = address.ipv4_mapped
    bits = (24, 16, 8) if address.version == 4 else (48, 32)
    return tuple((address.version, int(address) >> (address.max_prefixlen - b)) for b in bits)


def victim_summary(events: Sequence[AttackEvent]) -> dict:
    """Daily victim/prefix/AS counts plus duration percentiles.

    An IPv6 victim counts by its /48 in prefixes_24 and by its /32 in
    prefixes_16; prefixes_8 counts IPv4 victims only, IPv4-mapped ones
    included."""
    daily: dict[str, dict[str, set]] = defaultdict(
        lambda: {"victims": set(), "p24": set(), "p16": set(), "p8": set(), "ases": set()})
    for event in events:
        bucket = daily[event.day]
        bucket["victims"].add(event.victim_ip)
        for key, prefix in zip(("p24", "p16", "p8"), _victim_prefixes(event.victim_ip)):
            bucket[key].add(prefix)
        if event.victim_as is not None:
            bucket["ases"].add(event.victim_as)
    rows = [
        {
            "day": day,
            "victims": len(daily[day]["victims"]),
            "prefixes_24": len(daily[day]["p24"]),
            "prefixes_16": len(daily[day]["p16"]),
            "prefixes_8": len(daily[day]["p8"]),
            "victim_ases": len(daily[day]["ases"]),
        }
        for day in sorted(daily)
    ]
    durations = sorted(float(e.duration_s) for e in events)
    percentiles = {}
    if durations:
        for p in (25, 50, 75, 90):
            percentiles[f"p{p}"] = _percentile(durations, p)
    return {"daily": rows, "duration_percentiles": percentiles}


def _percentile(ordered: Sequence[float], p: int) -> float:
    """np.percentile(values, p) by its default linear method, over the
    values sorted, with numpy's interpolation arithmetic step for step."""
    last = len(ordered) - 1
    position = last * (p / 100)
    if position >= last:
        # numpy takes the top value from index -1 on both sides
        a = b = ordered[last]
        t = position + 1
    else:
        lower = math.floor(position)
        a, b = ordered[lower], ordered[lower + 1]
        t = position - lower
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def write_events(events: Iterable[AttackEvent], path: str) -> None:
    write_jsonl(({**to_obj(event), "duration_s": event.duration_s} for event in events), path)


def read_events(path: str) -> list[AttackEvent]:
    """The events of an event log. Events of one call share each distinct
    victim, day, reflector address and qname as one string. A day must be
    written YYYY-MM-DD, and a first_ts or last_ts must fall on a UTC day from
    0001-01-01 to 9999-12-31."""
    strings = shared()
    events = []
    for lineno, obj in read_jsonl(path):
        if isinstance(obj, dict):
            obj.pop("duration_s", None)  # derived from first_ts and last_ts
        event = from_obj(AttackEvent, obj, f"{path} line {lineno}")
        if not is_iso_day(event.day):
            raise ValueError(f"{path} line {lineno}: key 'day': expected a YYYY-MM-DD string, "
                             f"got {event.day!r}")
        for key, ts in (("first_ts", event.first_ts), ("last_ts", event.last_ts)):
            if not TS_MIN <= ts < TS_END:  # nan and the infinities fail too
                raise ValueError(f"{path} line {lineno}: key {key!r}: expected a time from "
                                 f"0001-01-01 to 9999-12-31 UTC, got {ts!r}")
        event.victim_ip = strings[event.victim_ip]
        event.day = strings[event.day]
        event.qname_counts = {strings[q]: n for q, n in event.qname_counts.items()}
        event.amplifier_set = tuple(map(strings.__getitem__, event.amplifier_set))
        events.append(event)
    return events
