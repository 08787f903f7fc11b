"""Honeypot request logs: event inference and comparison with trace events.

Honeypot sensors emulate amplifiers and log unsampled attacker requests, so
they see a different slice of the same attacks than a sampled trace does.
Requests are segmented into events per sensor, merged across sensors, and
matched against trace-side events by victim and time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

from .fileio import (Memo, csv_float, csv_int, decode_lines, read_csv, shared, to_obj,
                     write_csv, write_jsonl)

if TYPE_CHECKING:
    from .detector import AttackEvent


@dataclass(slots=True)
class HoneypotRequest:
    ts: float
    sensor_id: str
    victim_ip: str
    qname: str
    qtype: int


@dataclass(slots=True)
class HoneypotEvent:
    victim_ip: str
    start: float
    end: float
    request_count: int
    sensor_ids: tuple[str, ...]
    intensity_decile: int | None = None

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def _request_from_row(strings: Memo, row: list[str]) -> HoneypotRequest:
    """`strings` maps a sensor, victim or qname to the one string that every
    request of the call shares for it."""
    ts, sensor_id, victim_ip, qname, qtype = row  # a row of another width raises
    return HoneypotRequest(csv_float(ts), strings[sensor_id], strings[victim_ip],
                           strings[qname], csv_int(qtype))


def read_honeypot_csv(path: str) -> tuple[list[HoneypotRequest], int]:
    """ts,sensor_id,victim_ip,qname,qtype rows; malformed rows, a non-finite
    ts among them, are counted. Requests of one call share each distinct
    sensor, victim and qname as one string."""
    return decode_lines(read_csv(path, "ts"), partial(_request_from_row, shared()))


def write_honeypot_csv(requests: Iterable[HoneypotRequest], path: str) -> None:
    write_csv(path, ("ts", "sensor_id", "victim_ip", "qname", "qtype"),
              ((r.ts, r.sensor_id, r.victim_ip, r.qname, r.qtype) for r in requests))


def infer_honeypot_attacks(requests: Sequence[HoneypotRequest],
                           min_requests: int = 5,
                           max_gap_s: float = 900.0) -> list[HoneypotEvent]:
    """Segment request streams into attack events.

    Per (sensor, victim) the time-sorted stream splits wherever consecutive
    requests are more than max_gap_s apart (a gap of exactly max_gap_s does
    not split); segments shorter than min_requests are discarded. Same-victim
    segments from different sensors whose windows intersect (touching counts)
    merge into one event with the union of sensors.
    """
    if min_requests < 1:
        raise ValueError(f"min_requests must be >= 1, got {min_requests}")
    if max_gap_s <= 0:
        raise ValueError(f"max_gap_s must be > 0, got {max_gap_s}")
    streams: dict[tuple[str, str], list[float]] = {}
    for req in requests:
        streams.setdefault((req.sensor_id, req.victim_ip), []).append(req.ts)

    segments: dict[str, list[tuple[float, float, int, str]]] = {}
    for (sensor, victim), stamps in streams.items():
        stamps.sort()
        seg_start = 0
        for i in range(1, len(stamps) + 1):
            if i == len(stamps) or stamps[i] - stamps[i - 1] > max_gap_s:
                size = i - seg_start
                if size >= min_requests:
                    segments.setdefault(victim, []).append(
                        (stamps[seg_start], stamps[i - 1], size, sensor))
                seg_start = i

    events: list[HoneypotEvent] = []
    for victim in sorted(segments):
        merged: list[list] = []  # [start, end, request count, sensors]
        for start, end, count, sensor in sorted(segments[victim]):
            if merged and start <= merged[-1][1]:
                last = merged[-1]
                last[1] = max(last[1], end)
                last[2] += count
                last[3].add(sensor)
            else:
                merged.append([start, end, count, {sensor}])
        events.extend(HoneypotEvent(victim, start, end, count, tuple(sorted(sensors)))
                      for start, end, count, sensors in merged)
    events.sort(key=lambda e: (e.start, e.victim_ip))
    return events


def score_honeypot_deciles(events: Sequence[HoneypotEvent]) -> list[HoneypotEvent]:
    """Intensity deciles by request count, same rule as trace-side events."""
    from .detector import decile_ranks  # here, so select-names leaves detector unloaded
    for event, decile in zip(events, decile_ranks([e.request_count for e in events])):
        event.intensity_decile = decile
    return list(events)


@dataclass(slots=True)
class OverlapReport:
    pairs: tuple[tuple[int, int], ...]          # (trace event idx, honeypot event idx)
    trace_total: int
    honeypot_total: int

    @property
    def mutual_count(self) -> int:
        return len(self.pairs)

    @property
    def trace_matched_fraction(self) -> float:
        return self.mutual_count / self.trace_total if self.trace_total else 0.0

    @property
    def honeypot_matched_fraction(self) -> float:
        return self.mutual_count / self.honeypot_total if self.honeypot_total else 0.0


def _windows_intersect(a_start: float, a_end: float,
                       b_start: float, b_end: float, slack: float) -> bool:
    return a_start <= b_end + slack and b_start <= a_end + slack


def overlap(trace_events: Sequence[AttackEvent],
            honeypot_events: Sequence[HoneypotEvent],
            slack_s: float = 300.0) -> OverlapReport:
    """Match trace events to honeypot events seen for the same victim.

    Windows widen by slack_s before the intersection test. The trace side
    drives a greedy pass in earliest-start order; each candidate set is the
    victim's unmatched honeypot events, and the earliest-ending one wins
    (then earliest-starting), which keeps the pairing maximal on interval
    instances. Every event matches at most once.
    """
    if slack_s < 0:
        raise ValueError(f"slack_s must be >= 0, got {slack_s}")
    by_victim: dict[str, list[int]] = {}
    for idx, event in enumerate(honeypot_events):
        by_victim.setdefault(event.victim_ip, []).append(idx)
    matched_hp: set[int] = set()
    pairs: list[tuple[int, int]] = []
    order = sorted(range(len(trace_events)),
                   key=lambda i: (trace_events[i].first_ts, trace_events[i].victim_ip))
    for trace_idx in order:
        event = trace_events[trace_idx]
        candidates = [
            hp_idx for hp_idx in by_victim.get(event.victim_ip, ())
            if hp_idx not in matched_hp and _windows_intersect(
                event.first_ts, event.last_ts,
                honeypot_events[hp_idx].start, honeypot_events[hp_idx].end,
                slack_s)
        ]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (honeypot_events[i].end,
                                              honeypot_events[i].start, i))
        matched_hp.add(best)
        pairs.append((trace_idx, best))
    pairs.sort()
    return OverlapReport(
        pairs=tuple(pairs),
        trace_total=len(trace_events),
        honeypot_total=len(honeypot_events),
    )


@dataclass(slots=True)
class IntensityComparison:
    trace_decile_counts: dict[int, int]
    honeypot_decile_counts: dict[int, int]
    trace_mean: float
    honeypot_mean: float


def intensity_comparison(trace_events: Sequence[AttackEvent],
                         honeypot_events: Sequence[HoneypotEvent],
                         report: OverlapReport) -> IntensityComparison:
    """Compare intensity deciles across the mutual pairs of both vantages.

    Both sides must be decile-scored over their full event populations first.
    """
    trace_deciles, hp_deciles = [], []
    for trace_idx, hp_idx in report.pairs:
        trace_event = trace_events[trace_idx]
        hp_event = honeypot_events[hp_idx]
        if trace_event.intensity_decile is None or hp_event.intensity_decile is None:
            raise ValueError("events must be decile-scored before comparison")
        trace_deciles.append(trace_event.intensity_decile)
        hp_deciles.append(hp_event.intensity_decile)
    if not trace_deciles:
        raise ValueError("no mutual pairs to compare")
    return IntensityComparison(
        trace_decile_counts={d: trace_deciles.count(d) for d in range(1, 11)},
        honeypot_decile_counts={d: hp_deciles.count(d) for d in range(1, 11)},
        trace_mean=sum(trace_deciles) / len(trace_deciles),
        honeypot_mean=sum(hp_deciles) / len(hp_deciles),
    )


def convergence_curve(events: Sequence[HoneypotEvent]) -> list[tuple[int, float]]:
    """Victim coverage as sensors are added in descending coverage order.

    Sensor order: by distinct victims seen, descending, sensor id as the tie
    break. The curve is non-decreasing and ends at 1.0.
    """
    victims_by_sensor: dict[str, set[str]] = {}
    all_victims: set[str] = set()
    for event in events:
        all_victims.add(event.victim_ip)
        for sensor in event.sensor_ids:
            victims_by_sensor.setdefault(sensor, set()).add(event.victim_ip)
    if not all_victims:
        return []
    order = sorted(victims_by_sensor,
                   key=lambda s: (-len(victims_by_sensor[s]), s))
    covered: set[str] = set()
    curve = []
    for rank, sensor in enumerate(order, start=1):
        covered |= victims_by_sensor[sensor]
        curve.append((rank, len(covered) / len(all_victims)))
    return curve


def write_honeypot_events(events: Iterable[HoneypotEvent], path: str) -> None:
    write_jsonl(map(to_obj, events), path)
