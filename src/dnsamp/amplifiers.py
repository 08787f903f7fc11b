"""Amplifier-set analysis: clustering, stability, churn, and roles.

Events reusing the same reflector pool betray shared infrastructure. Sets are
compared with exact Jaccard distance, counted from an inverted index of the
earlier sets, and grouped by a deterministic DBSCAN (points visited in index
order, border ties to the first core cluster), so identical inputs always
yield identical labels.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Collection, Iterable, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import reduce
from itertools import chain
from operator import add, index
from typing import AbstractSet

from .detector import AttackEvent
from .fileio import Memo, is_iso_day, read_csv, write_lines
from .selectors import jaccard

NOISE = -1
# The least a cluster needs to be reported as a stable amplifier set.
STABLE_MIN_ATTACKS = 5
STABLE_MIN_AMPLIFIERS = 5


def amplifier_sets(events: Sequence[AttackEvent]) -> list[tuple[str, ...]]:
    """Per-event reflectors, aligned with the event order: each event's
    amplifier_set tuple itself, or, where an address repeats in it, a tuple
    without the repeats in first-seen order."""
    return [_distinct(tuple(event.amplifier_set)) for event in events]


def _distinct(members: tuple[str, ...]) -> tuple[str, ...]:
    unique = dict.fromkeys(members)
    return members if len(unique) == len(members) else tuple(unique)


class DistanceMatrix(Sequence):
    """Read-only n-by-n distance matrix that keeps, per row, only the entries
    below 1.0: their ascending columns and their values. m[i] is a fresh
    array("d") of the row."""

    __slots__ = ("_cols", "_vals")

    def __init__(self, cols: list[array], vals: list[array]) -> None:
        self._cols = cols
        self._vals = vals

    def __len__(self) -> int:
        return len(self._vals)

    def __getitem__(self, i: int) -> array:
        i = index(i)
        return _put(array("d", [1.0]) * len(self._vals), self._cols[i], self._vals[i])

    def neighborhoods(self, eps: float) -> list[list[int]]:
        """For each row, the columns at distance <= eps, in index order: what
        scanning m[i] gives, read from the stored entries alone."""
        n = len(self._vals)
        if eps >= 1.0:  # every distance is at most 1.0
            return [list(range(n)) for _ in range(n)]
        return [[j for j, d in zip(cols, vals) if d <= eps]
                for cols, vals in zip(self._cols, self._vals)]


def _put(row: MutableSequence, cols: Iterable[int], vals: Iterable) -> MutableSequence:
    for j, value in zip(cols, vals):
        row[j] = value
    return row


def jaccard_distance_matrix(sets: Sequence[Collection[str]]) -> DistanceMatrix:
    """Symmetric, zero-diagonal matrix of 1 - Jaccard(set_i, set_j), for
    collections whose members are distinct.

    Two empty sets are identical (distance 0). The rows are taken in order,
    with an inverted index from each member to the earlier rows that hold it:
    counting a row's members' postings gives the earlier rows it overlaps and
    each intersection size. Only overlapping pairs divide and are stored.
    Counts are exact and int / int rounds correctly, so each entry has the
    bits of `1.0 - jaccard(a, b)`."""
    sizes = [len(members) for members in sets]
    postings: dict[str, list[int]] = {}
    empty: list[int] = []
    cols: list[array] = []
    vals: list[array] = []
    for i, members in enumerate(sets):
        size = sizes[i]
        if size:
            counts = Counter(chain.from_iterable(postings.get(member, ()) for member in members))
            earlier = sorted(counts)
            dists = [1.0 - inter / (size + sizes[j] - inter)
                     for j, inter in zip(earlier, map(counts.__getitem__, earlier))]
        else:
            earlier = empty.copy()
            dists = [0.0] * len(earlier)  # two empty sets: union 0, similarity 1
            empty.append(i)
        # each earlier row gets its entry in column i, after its lower columns
        for j, value in zip(earlier, dists):
            cols[j].append(i)
            vals[j].append(value)
        cols.append(array("i", [*earlier, i]))
        vals.append(array("d", [*dists, 0.0]))
        for member in members:
            postings.setdefault(member, []).append(i)
    # copies drop the headroom that append leaves, one row at a time
    for i in range(len(cols)):
        cols[i] = cols[i][:]
        vals[i] = vals[i][:]
    return DistanceMatrix(cols, vals)


@dataclass(slots=True)
class ClusterResult:
    labels: tuple[int, ...]
    eps: float
    min_pts: int

    @property
    def n_clusters(self) -> int:
        return len({label for label in self.labels if label != NOISE})

    @property
    def outlier_share(self) -> float:
        if not self.labels:
            return 0.0
        return sum(1 for label in self.labels if label == NOISE) / len(self.labels)


def dbscan_cluster(matrix: DistanceMatrix, eps: float = 0.6,
                   min_pts: int = 5) -> ClusterResult:
    """DBSCAN over a distance matrix, each neighbourhood read from its stored
    entries (`DistanceMatrix.neighborhoods`).

    Neighborhoods are closed balls (d <= eps) including the point itself.
    Points are visited in index order and seed sets expand FIFO, so border
    points land in the first cluster (creation order) that reaches them.
    """
    n = len(matrix)
    neighborhoods = matrix.neighborhoods(eps)
    UNVISITED = -2
    labels = [UNVISITED] * n
    cluster = 0
    for start in range(n):
        if labels[start] != UNVISITED:
            continue
        if len(neighborhoods[start]) < min_pts:
            labels[start] = NOISE
            continue
        labels[start] = cluster
        seeds = deque(j for j in neighborhoods[start] if j != start)
        while seeds:
            point = seeds.popleft()
            if labels[point] == NOISE:
                labels[point] = cluster  # border point adopted by first cluster
            if labels[point] != UNVISITED:
                continue
            labels[point] = cluster
            if len(neighborhoods[point]) >= min_pts:
                seeds.extend(neighborhoods[point])
        cluster += 1
    return ClusterResult(labels=tuple(labels), eps=eps, min_pts=min_pts)


@dataclass(slots=True)
class StableSetReport:
    cluster_id: int
    n_attacks: int
    n_amplifiers: int
    core_size: int
    first_day: str
    last_day: str
    span_days: int
    mean_drift: float
    max_drift: float
    static: bool


def stable_sets(events: Sequence[AttackEvent], labels: Sequence[int]) -> list[StableSetReport]:
    """Summarize clusters that qualify as stable amplifier sets.

    A cluster qualifies with at least STABLE_MIN_ATTACKS events whose union
    holds at least STABLE_MIN_AMPLIFIERS reflectors. Drift is the Jaccard
    distance between consecutive member sets in (day, victim) order; a set is
    static when every step has drift zero. span_days counts calendar days
    inclusively.
    """
    if len(events) != len(labels):
        raise ValueError("events and labels must align")
    members: dict[int, list[AttackEvent]] = {}
    for event, label in zip(events, labels):
        if label != NOISE:
            members.setdefault(label, []).append(event)
    reports = []
    for label in sorted(members):
        group = sorted(members[label], key=lambda e: (e.day, e.victim_ip))
        if len(group) < STABLE_MIN_ATTACKS:
            continue
        sets = [frozenset(e.amplifier_set) for e in group]
        union = frozenset().union(*sets)
        if len(union) < STABLE_MIN_AMPLIFIERS:
            continue
        core = sets[0]
        for s in sets[1:]:
            core &= s
        # Means sum left to right: from Python 3.12, sum() compensates float
        # rounding, and the written means would differ by version.
        drifts = [1.0 - jaccard(a, b) for a, b in zip(sets, sets[1:])]
        first_day, last_day = group[0].day, group[-1].day
        span = (date.fromisoformat(last_day) - date.fromisoformat(first_day)).days + 1
        reports.append(StableSetReport(
            cluster_id=label,
            n_attacks=len(group),
            n_amplifiers=len(union),
            core_size=len(core),
            first_day=first_day,
            last_day=last_day,
            span_days=span,
            mean_drift=reduce(add, drifts) / len(drifts) if drifts else 0.0,
            max_drift=max(drifts) if drifts else 0.0,
            static=all(d == 0.0 for d in drifts),
        ))
    return reports


@dataclass(slots=True)
class ChurnReport:
    overlaps: tuple[tuple[str, str, float], ...]
    mean_overlap: float | None
    first_last_overlap: float | None


def daily_amplifier_sets(events: Iterable[AttackEvent]) -> dict[str, set[str]]:
    """Union of reflectors abused per UTC day."""
    daily: dict[str, set[str]] = {}
    for event in events:
        daily.setdefault(event.day, set()).update(event.amplifier_set)
    return daily


def churn_metrics(daily_sets: Mapping[str, AbstractSet[str]]) -> ChurnReport:
    """Day-over-day retention of the abused reflector population.

    overlap_i = |D_i intersect D_i+1| / |D_i| for consecutive observed days;
    first_last compares the first and last day the same way. Days with empty
    sets contribute no overlap entry.
    """
    days = sorted(daily_sets)
    overlaps = []
    for day_a, day_b in zip(days, days[1:]):
        # only calendar-adjacent pairs: bridging a gap day would measure
        # two days of churn and bias the retention estimate downward
        adjacent = date.fromisoformat(day_b).toordinal() \
            - date.fromisoformat(day_a).toordinal() == 1
        if adjacent and daily_sets[day_a]:
            value = len(daily_sets[day_a] & daily_sets[day_b]) / len(daily_sets[day_a])
            overlaps.append((day_a, day_b, value))
    first_last = None
    if len(days) >= 2 and daily_sets[days[0]]:
        first_last = len(daily_sets[days[0]] & daily_sets[days[-1]]) / len(daily_sets[days[0]])
    mean = reduce(add, (v for _, _, v in overlaps)) / len(overlaps) if overlaps else None
    return ChurnReport(
        overlaps=tuple(overlaps),
        mean_overlap=mean,
        first_last_overlap=first_last,
    )


RECENCY_KNOWN = "known_before_abuse"
RECENCY_PRE_DISCOVERY = "pre_discovery"
RECENCY_UNSEEN = "unseen"

ROLE_AUTHORITATIVE = "authoritative"
ROLE_RESOLVER = "resolver_or_forwarder"
ROLE_UNKNOWN = "unknown"


@dataclass(slots=True)
class AmplifierInfo:
    ip: str
    attack_count: int
    first_abuse_ts: float
    last_abuse_ts: float
    role: str = ROLE_UNKNOWN
    recency: str | None = None
    first_seen: str | None = None
    last_seen: str | None = None


def amplifier_inventory(events: Iterable[AttackEvent]) -> dict[str, AmplifierInfo]:
    """Per-reflector abuse stats. Sum of attack_count over the inventory
    equals the sum of event set sizes (each membership counted once)."""
    inventory: dict[str, AmplifierInfo] = {}
    for event in events:
        for ip in _distinct(tuple(event.amplifier_set)):
            info = inventory.get(ip)
            if info is None:
                inventory[ip] = AmplifierInfo(
                    ip=ip, attack_count=1,
                    first_abuse_ts=event.first_ts, last_abuse_ts=event.last_ts)
            else:
                info.attack_count += 1
                info.first_abuse_ts = min(info.first_abuse_ts, event.first_ts)
                info.last_abuse_ts = max(info.last_abuse_ts, event.last_ts)
    return inventory


def involvement_distributions(events: Sequence[AttackEvent]) -> tuple[Counter, Counter]:
    """(attacks-per-amplifier, amplifiers-per-attack) histograms."""
    inventory = amplifier_inventory(events)
    per_amplifier = Counter(info.attack_count for info in inventory.values())
    per_attack = Counter(len(members) for members in amplifier_sets(events))
    return per_amplifier, per_attack


def read_seen_table(path: str) -> dict[str, tuple[str, str]]:
    """ip,first_seen,last_seen CSV (ISO dates) from a scan history."""
    table: dict[str, tuple[str, str]] = {}
    for lineno, row in read_csv(path, "ip"):
        if len(row) != 3:
            raise ValueError(f"seen table line {lineno}: expected ip,first_seen,last_seen")
        if not (is_iso_day(row[1]) and is_iso_day(row[2])):
            raise ValueError(f"seen table line {lineno}: expected YYYY-MM-DD days, got "
                             f"{row[1]!r} and {row[2]!r}")
        table[row[0]] = (row[1], row[2])
    return table


def recency_join(inventory: Mapping[str, AmplifierInfo],
                 seen_table: Mapping[str, tuple[str, str]]) -> tuple[dict[str, AmplifierInfo], float]:
    """Join abuse dates against scan history; returns (inventory, coverage).

    pre_discovery marks reflectors abused before the scanner first saw them;
    coverage is the fraction present in the table at all.
    """
    seen_count = 0
    for ip, info in inventory.items():
        seen = seen_table.get(ip)
        if seen is None:
            info.recency = RECENCY_UNSEEN
            info.first_seen = info.last_seen = None
            continue
        seen_count += 1
        info.first_seen, info.last_seen = seen
        abuse_day = datetime.fromtimestamp(info.first_abuse_ts, tz=timezone.utc).date()
        if abuse_day < date.fromisoformat(seen[0]):
            info.recency = RECENCY_PRE_DISCOVERY
        else:
            info.recency = RECENCY_KNOWN
    coverage = seen_count / len(inventory) if inventory else 0.0
    return dict(inventory), coverage


def read_ns_ip_table(path: str) -> dict[str, str]:
    """ip,ns_name CSV mapping addresses to authoritative nameserver names."""
    table: dict[str, str] = {}
    for lineno, row in read_csv(path, "ip"):
        if len(row) != 2:
            raise ValueError(f"ns_ip table line {lineno}: expected ip,ns_name")
        table[row[0]] = row[1]
    return table


def classify_amplifier_role(inventory: Mapping[str, AmplifierInfo],
                            ns_ip_table: Mapping[str, str] | None) -> dict[str, AmplifierInfo]:
    """Authoritative if the address appears in the NS-IP table, otherwise an
    open resolver or forwarder; with no table every role stays unknown."""
    for ip, info in inventory.items():
        if not ns_ip_table:
            info.role = ROLE_UNKNOWN
        elif ip in ns_ip_table:
            info.role = ROLE_AUTHORITATIVE
        else:
            info.role = ROLE_RESOLVER
    return dict(inventory)


def qname_role_breakdown(events: Sequence[AttackEvent],
                         inventory: Mapping[str, AmplifierInfo]) -> dict[str, Counter]:
    """Role histogram of the reflectors behind each dominant qname."""
    breakdown: dict[str, Counter] = {}
    for event in events:
        qname = event.dominant_qname()
        counts = breakdown.setdefault(qname, Counter())
        for ip in _distinct(tuple(event.amplifier_set)):
            info = inventory.get(ip)
            counts[info.role if info else ROLE_UNKNOWN] += 1
    return breakdown


def write_distance_matrix(matrix: DistanceMatrix, path: str) -> None:
    """The bytes `fileio.write_csv(path, None, rows)` writes for the matrix's
    rows as lists of floats: each row's texts are "1.0" but for its stored
    entries' reprs. Each distinct distance is encoded once: a stored entry is
    never nan or -0.0, which a memo keyed by value would confuse."""
    ones, reprs = ["1.0"] * len(matrix), Memo(repr)
    write_lines((",".join(_put(ones.copy(), cols, map(reprs.__getitem__, vals)))
                 for cols, vals in zip(matrix._cols, matrix._vals)), path)
