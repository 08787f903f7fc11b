"""Uncompressed ANY-response size estimation from zone record inventories.

Sampled, truncated captures never show full response payloads, so sizes are
reconstructed from the records a name would return to an ANY query: a DNS
header, the question, and one uncompressed resource record per entry. The
daily series of estimates also exposes DNSSEC key-rollover plateaus, where
double signatures inflate responses by a fixed step for a stretch of days.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fileio import from_obj, is_iso_day, read_jsonl
from .records import qname_is_valid, qname_wire_length, normalize_qname

DNS_HEADER_LEN = 12
QUESTION_FIXED_LEN = 4      # QTYPE + QCLASS
RR_FIXED_LEN = 10           # TYPE + CLASS + TTL + RDLENGTH
EDNS_OPT_LEN = 11           # root owner + TYPE + CLASS(payload) + TTL + RDLENGTH
EDNS_DEFAULT_LIMIT = 4096


@dataclass(slots=True)
class ZoneRecord:
    rr_type: str
    ttl: int
    rdata_len: int


@dataclass(slots=True)
class RecordSet:
    """Records a name answers with, as inventoried on one day."""

    owner: str
    records: tuple[ZoneRecord, ...]
    day: str | None = None

    def __post_init__(self) -> None:
        self.owner = normalize_qname(self.owner)


@dataclass(slots=True)
class SizeEstimate:
    owner: str
    est_bytes: int
    exceeds_edns: bool


def estimate_any_response_size(record_set: RecordSet) -> SizeEstimate:
    """Uncompressed wire size of the ANY response for a record set.

    est = header + (owner + 4) question + sum(owner + 10 + rdata_len) per
    record. Estimates above EDNS_DEFAULT_LIMIT are flagged, never clamped:
    the flag marks answers that need TCP or larger buffers.
    """
    if not qname_is_valid(record_set.owner):
        raise ValueError(f"invalid owner name {record_set.owner!r}")
    owner_wire = qname_wire_length(record_set.owner)
    total = DNS_HEADER_LEN + owner_wire + QUESTION_FIXED_LEN
    for record in record_set.records:
        if record.rdata_len < 0:
            raise ValueError(f"negative rdata_len in {record_set.owner!r}")
        total += owner_wire + RR_FIXED_LEN + record.rdata_len
    return SizeEstimate(
        owner=record_set.owner,
        est_bytes=total,
        exceeds_edns=total > EDNS_DEFAULT_LIMIT,
    )


def request_size(owner: str, edns: bool = False) -> int:
    """Wire size of the ANY query itself (optionally with an EDNS OPT RR)."""
    size = DNS_HEADER_LEN + qname_wire_length(owner) + QUESTION_FIXED_LEN
    return size + EDNS_OPT_LEN if edns else size


@dataclass(slots=True)
class AmplificationRanking:
    rows: tuple[tuple[str, int, float], ...]   # owner, est_bytes, cdf
    count_above_reference: int
    reference_max: int | None
    factors: dict[str, float]


def rank_amplification(estimates: Sequence[SizeEstimate],
                       reference_names: Iterable[str] = (),
                       edns: bool = False) -> AmplificationRanking:
    """Size CDF over all names plus per-name amplification factors.

    reference_names picks out well-known amplification domains already present
    in the estimates; count_above_reference counts names strictly larger than
    the biggest reference. The factor divides the estimated response by the
    ANY request size for the same owner.
    """
    owners = {e.owner for e in estimates}
    references = {normalize_qname(name) for name in reference_names}
    missing = references - owners
    if missing:
        raise ValueError(f"reference names absent from estimates: {sorted(missing)}")
    ordered = sorted(estimates, key=lambda e: (e.est_bytes, e.owner))
    n = len(ordered)
    rows = tuple(
        (e.owner, e.est_bytes, (idx + 1) / n) for idx, e in enumerate(ordered)
    )
    reference_max = max((e.est_bytes for e in estimates if e.owner in references),
                        default=None)
    above = 0
    if reference_max is not None:
        above = sum(1 for e in estimates if e.est_bytes > reference_max)
    factors = {
        e.owner: e.est_bytes / request_size(e.owner, edns=edns) for e in ordered
    }
    return AmplificationRanking(
        rows=rows,
        count_above_reference=above,
        reference_max=reference_max,
        factors=factors,
    )


@dataclass(slots=True)
class Plateau:
    start_index: int
    end_index: int
    height: int
    level: int

    @property
    def length(self) -> int:
        return self.end_index - self.start_index + 1


def detect_rollover_plateaus(series: Sequence[int], min_days: int = 7,
                             min_step_bytes: int = 256) -> list[Plateau]:
    """Find sustained size plateaus in a daily estimate series.

    A plateau starts with an upward step of at least min_step_bytes, holds
    within +/- min_step_bytes/4 of the stepped level, ends with a downward
    step of at least min_step_bytes, and lasts at least min_days entries.
    Invariant to adding a constant to the whole series (only differences
    matter). The series is assumed to be one value per consecutive day.
    """
    if min_days < 1:
        raise ValueError(f"min_days must be >= 1, got {min_days}")
    if min_step_bytes < 1:
        raise ValueError(f"min_step_bytes must be >= 1, got {min_step_bytes}")
    hold = min_step_bytes / 4
    plateaus = []
    n = len(series)
    i = 1
    while i < n:
        if series[i] - series[i - 1] >= min_step_bytes:
            level = series[i]
            j = i
            while j + 1 < n and abs(series[j + 1] - level) <= hold:
                j += 1
            dropped = j + 1 < n and series[j] - series[j + 1] >= min_step_bytes
            if dropped and j - i + 1 >= min_days:
                plateaus.append(Plateau(
                    start_index=i,
                    end_index=j,
                    height=level - series[i - 1],
                    level=level,
                ))
            i = j + 1
        else:
            i += 1
    return plateaus


@dataclass(slots=True)
class _ZoneRecordForm:
    type: str
    ttl: int
    rdata_len: int


@dataclass(slots=True)
class _RecordSetForm:
    """One inventory line; a date is absent, null or YYYY-MM-DD."""

    owner: str
    records: tuple[_ZoneRecordForm, ...]
    date: str | None = None

    def __post_init__(self) -> None:
        if self.date is not None and not is_iso_day(self.date):
            raise ValueError(f"key 'date': expected a YYYY-MM-DD string or null, "
                             f"got {self.date!r}")


def read_record_sets(path: str) -> list[RecordSet]:
    """JSONL, one {date, owner, records:[{type, ttl, rdata_len}]} per line."""
    sets = []
    for lineno, obj in read_jsonl(path):
        form = from_obj(_RecordSetForm, obj, f"{path} line {lineno}")
        records = tuple(ZoneRecord(r.type, r.ttl, r.rdata_len) for r in form.records)
        sets.append(RecordSet(form.owner, records, form.date))
    return sets


def daily_series(sized: Iterable[tuple[str | None, SizeEstimate]]
                 ) -> dict[str, list[tuple[str, int]]]:
    """Per-owner (day, est_bytes) series, day-sorted, for plateau scans, from
    (day, estimate) pairs; an undated estimate (day None) is left out."""
    series: dict[str, list[tuple[str, int]]] = {}
    for day, estimate in sized:
        if day is not None:
            series.setdefault(estimate.owner, []).append((day, estimate.est_bytes))
    for owner in series:
        series[owner].sort()
    return series
