"""Attack-tool fingerprints from packet header fields.

Booter-style tools leave low-level tells: few distinct ip_id/src_port/dns_id
values relative to packet volume, DNS IDs drawn from a single parity class or
switching parity once mid-attack, and name schedules that step through the
misused list in order. These profiles let events be attributed to an entity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import AbstractSet, Iterable, Sequence

from .detector import AttackEvent
from .fileio import from_obj, read_json
from .records import normalize_qname, qname_is_valid

PATTERN_PURE_ODD = "pure_odd"
PATTERN_PURE_EVEN = "pure_even"
PATTERN_PHASED = "phased"
PATTERN_MIXED = "mixed"

LOW_ENTROPY_RATIO = 1 / 10


@dataclass(slots=True)
class CardinalityProfile:
    field: str
    packet_count: int
    unique_count: int
    ratio: float
    low_entropy: bool


def field_cardinality_profile(event: AttackEvent, field: str) -> CardinalityProfile:
    """Distinct-value profile of one header field over the event's request
    packets (the packets the attacker crafted, before amplification).

    Flags low entropy when unique/packets <= 1/10.
    """
    values = {
        "ip_id": event.req_ip_ids,
        "src_port": event.req_src_ports,
        "dns_id": event.req_dns_ids,
    }.get(field)
    if values is None:
        raise ValueError(f"unknown header field {field!r}")
    if not values:
        raise ValueError("event has no request packets")
    unique = len(set(values))
    ratio = unique / len(values)
    return CardinalityProfile(
        field=field,
        packet_count=len(values),
        unique_count=unique,
        ratio=ratio,
        low_entropy=ratio <= LOW_ENTROPY_RATIO,
    )


@dataclass(slots=True)
class DnsIdPattern:
    kind: str
    change_point: int | None = None


def _check_min_segment(min_segment: int) -> None:
    if min_segment < 1:
        raise ValueError(f"min_segment must be >= 1, got {min_segment}")


def classify_dnsid_pattern(ids: Sequence[int], min_segment: int = 3) -> DnsIdPattern:
    """Classify a time-ordered DNS-ID sequence, such as an event's dns_ids,
    by parity structure.

    pure_odd / pure_even: one parity throughout. phased: exactly one parity
    switch with both segments at least min_segment long (change_point is the
    index where the second segment starts). Anything else is mixed.
    """
    _check_min_segment(min_segment)
    if len(ids) < 2:
        raise ValueError(f"need at least 2 DNS IDs to classify, got {len(ids)}")
    parities = [value & 1 for value in ids]
    changes = [i for i in range(1, len(parities)) if parities[i] != parities[i - 1]]
    if not changes:
        return DnsIdPattern(PATTERN_PURE_ODD if parities[0] else PATTERN_PURE_EVEN)
    if len(changes) == 1:
        cut = changes[0]
        if cut >= min_segment and len(parities) - cut >= min_segment:
            return DnsIdPattern(PATTERN_PHASED, change_point=cut)
    return DnsIdPattern(PATTERN_MIXED)


@dataclass(slots=True)
class NameTimeline:
    intervals: dict[str, tuple[str, str]]
    transitions: tuple[tuple[str, str, str], ...]
    lexicographic: bool
    overlaps: tuple[tuple[str, str, str, str], ...]
    parity_period_days: int | None
    daily_dominant: tuple[tuple[str, str], ...]


def _interval_overlap(a: tuple[str, str], b: tuple[str, str]) -> tuple[str, str] | None:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def parity_alternation_period(daily_parity: Sequence[tuple[str, int]],
                              max_lag: int | None = None) -> int | None:
    """Alternation interval (days) of a daily majority-parity signal.

    Days are mapped to +1 (odd majority) / -1 (even majority) / 0 (tie or no
    data) on a contiguous day axis; the period is the lag with the deepest
    negative autocorrelation. Returns None when no lag anti-correlates.
    """
    if len(daily_parity) < 2:
        return None
    days = sorted(daily_parity)
    first = date.fromisoformat(days[0][0]).toordinal()
    last = date.fromisoformat(days[-1][0]).toordinal()
    span = last - first + 1
    signal = [0] * span
    for day, value in days:
        signal[date.fromisoformat(day).toordinal() - first] = value
    top = span - 1 if max_lag is None else min(max_lag, span - 1)
    best_lag, best_value = None, 0.0
    for lag in range(1, top + 1):
        products = [a * b for a, b in zip(signal, signal[lag:]) if a and b]
        if not products:
            continue
        # average over days present on both sides, else gap days dilute
        # short lags and a long lag with two lucky products wins; the
        # products are +1 and -1, so the sum is exact
        value = sum(products) / len(products)
        if value < best_value:
            best_lag, best_value = lag, value
    return best_lag


def build_name_timeline(events: Sequence[AttackEvent],
                        names: AbstractSet[str] | None = None) -> NameTimeline:
    """Per-name activity intervals and the day-to-day dominance schedule.

    A name is active on a day when it is the dominant name of at least one
    event; intervals of different names may overlap (tools run names
    concurrently). Transitions track the day-aggregate dominant name; the
    lexicographic flag holds when every transition moves forward in name
    order. The parity period comes from the daily majority parity of all
    DNS IDs.
    """
    active_days: dict[str, set[str]] = {}
    day_counts: dict[str, Counter] = {}
    day_parity: dict[str, list[int]] = {}
    for event in events:
        dominant = event.dominant_qname()
        if dominant and (names is None or dominant in names):
            active_days.setdefault(dominant, set()).add(event.day)
        counts = day_counts.setdefault(event.day, Counter())
        for qname, count in event.qname_counts.items():
            if names is None or qname in names:
                counts[qname] += count
        parity = day_parity.setdefault(event.day, [0, 0])
        for dns_id in event.dns_ids:
            parity[dns_id & 1] += 1

    intervals = {
        qname: (min(days), max(days)) for qname, days in active_days.items()
    }

    daily_dominant = []
    for day in sorted(day_counts):
        counts = day_counts[day]
        if counts:
            daily_dominant.append(
                (day, min(counts, key=lambda q: (-counts[q], q))))
    transitions = []
    for prev, cur in zip(daily_dominant, daily_dominant[1:]):
        if prev[1] != cur[1]:
            transitions.append((cur[0], prev[1], cur[1]))
    lexicographic = all(new > old for _, old, new in transitions)

    overlaps = []
    for a in sorted(intervals):
        for b in sorted(intervals):
            if a >= b:
                continue
            window = _interval_overlap(intervals[a], intervals[b])
            if window is not None:
                overlaps.append((a, b, window[0], window[1]))

    parity_signal = []
    for day, (even, odd) in sorted(day_parity.items()):
        if odd != even:
            parity_signal.append((day, 1 if odd > even else -1))
        else:
            parity_signal.append((day, 0))
    period = parity_alternation_period(parity_signal)

    return NameTimeline(
        intervals=intervals,
        transitions=tuple(transitions),
        lexicographic=lexicographic,
        overlaps=tuple(overlaps),
        parity_period_days=period,
        daily_dominant=tuple(daily_dominant),
    )


_PATTERN_TOKENS = {
    "pure": {PATTERN_PURE_ODD, PATTERN_PURE_EVEN},
    PATTERN_PURE_ODD: {PATTERN_PURE_ODD},
    PATTERN_PURE_EVEN: {PATTERN_PURE_EVEN},
    PATTERN_PHASED: {PATTERN_PHASED},
    PATTERN_MIXED: {PATTERN_MIXED},
}


@dataclass(slots=True)
class EntityFingerprint:
    """Attribution rule: dominant-name suffix plus DNS-ID pattern class."""

    name_suffixes: tuple[str, ...]
    id_patterns: tuple[str, ...] = ("pure", "phased")

    def __post_init__(self) -> None:
        if not self.name_suffixes:
            raise ValueError("fingerprint needs at least one name suffix")
        for token in self.id_patterns:
            if token not in _PATTERN_TOKENS:
                raise ValueError(f"unknown id pattern token {token!r}")
        for suffix in self.name_suffixes:
            if not qname_is_valid(suffix):  # no valid name could match it
                raise ValueError(f"name suffix {suffix!r} is not a valid DNS name")
        self.name_suffixes = tuple(map(normalize_qname, self.name_suffixes))

    def allowed_kinds(self) -> set[str]:
        allowed: set[str] = set()
        for token in self.id_patterns:
            allowed |= _PATTERN_TOKENS[token]
        return allowed

    def matches_name(self, qname: str) -> bool:
        """True when the name is one of the suffixes or lies below one, on a
        label boundary; the root suffix "." matches every name."""
        qname = normalize_qname(qname)
        return any(suffix in (".", qname) or qname.endswith("." + suffix)
                   for suffix in self.name_suffixes)


def read_fingerprint(path: str) -> EntityFingerprint:
    return from_obj(EntityFingerprint, read_json(path), path)


def attribute_entity(events: Sequence[AttackEvent],
                     fingerprint: EntityFingerprint,
                     min_segment: int = 3,
                     ) -> tuple[list[AttackEvent], float, list[DnsIdPattern | None]]:
    """Events matching the fingerprint, their share of all events, and the
    DNS-ID pattern of each event (None for an event with fewer than two IDs),
    aligned with events.

    An event matches when its dominant name carries one of the suffixes AND
    its DNS-ID pattern class is allowed. Events with fewer than two IDs are
    unclassifiable and never match.
    """
    _check_min_segment(min_segment)
    allowed = fingerprint.allowed_kinds()
    attributed = []
    patterns: list[DnsIdPattern | None] = []
    for event in events:
        pattern = None
        if len(event.dns_ids) >= 2:
            pattern = classify_dnsid_pattern(event.dns_ids, min_segment=min_segment)
            if pattern.kind in allowed and fingerprint.matches_name(event.dominant_qname()):
                attributed.append(event)
        patterns.append(pattern)
    share = len(attributed) / len(events) if events else 0.0
    return attributed, share, patterns


def ingress_concentration(events: Iterable[AttackEvent]) -> float | None:
    """Share of misused request/response packets arriving from the single
    busiest origin AS, across all events; None without AS annotation."""
    totals: Counter[int] = Counter()
    for event in events:
        totals.update(event.ingress_as_counts)
    if not totals:
        return None
    return max(totals.values()) / sum(totals.values())
