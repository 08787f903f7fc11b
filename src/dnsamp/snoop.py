"""Cache-snooping probe classification.

Probes query open DNS speakers for an anchor name whose authoritative side
echoes the querying resolver's address as the A record. The echo separates
resolvers (they query us themselves, so they echo their own address) from
forwarders (the echoed address belongs to their upstream). Answer TTLs below
the authoritative default mean the answer aged in a cache.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

from .fileio import csv_int, decode_lines, from_obj, read_csv, read_lines
from .records import normalize_qname

RCODE_NOERROR = 0

ROLE_RESOLVER = "resolver"
ROLE_FORWARDER = "forwarder"
ROLE_UNCLASSIFIED = "unclassified"

CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_UNKNOWN = "unknown"


@dataclass(slots=True)
class ProbeResponse:
    target_ip: str
    responder_ip: str
    qname: str
    answer_ttls: tuple[tuple[str, int], ...]
    rcode: int
    echoed_a_record: str | None = None
    ts: float = 0.0

    def __post_init__(self) -> None:
        self.qname = normalize_qname(self.qname)


def _plausible_resolver_address(ip: str) -> bool:
    """A real resolver behind the echo test has a routable unicast address;
    loopback/private/multicast/reserved/unspecified echoes are manipulation."""
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return False
    return not (addr.is_loopback or addr.is_private or addr.is_multicast
                or addr.is_reserved or addr.is_unspecified or addr.is_link_local)


def sanitize_probe_responses(
        responses: Iterable[ProbeResponse],
        default_ttls: Mapping[str, int] | None = None) -> tuple[list[ProbeResponse], int]:
    """Drop error answers, manipulated answers, and duplicate responders.

    Drops: rcode != NOERROR; an echoed A record that cannot be a resolver
    address; any answer TTL above the authoritative default (impossible under
    honest caching). One response is kept per responder, first by timestamp
    then input order.
    """
    kept: list[ProbeResponse] = []
    seen: set[str] = set()
    dropped = 0
    indexed = sorted(enumerate(responses), key=lambda pair: (pair[1].ts, pair[0]))
    for _, response in indexed:
        if response.rcode != RCODE_NOERROR:
            dropped += 1
            continue
        if response.echoed_a_record is not None and \
                not _plausible_resolver_address(response.echoed_a_record):
            dropped += 1
            continue
        default = (default_ttls or {}).get(response.qname)
        if default is not None and any(ttl > default for _, ttl in response.answer_ttls):
            dropped += 1
            continue
        if response.responder_ip in seen:
            dropped += 1
            continue
        seen.add(response.responder_ip)
        kept.append(response)
    return kept, dropped


def classify_responder(response: ProbeResponse) -> str:
    """Resolver when the echo names the responder itself, forwarder when it
    names someone else, unclassified without an echoed record."""
    if response.echoed_a_record is None:
        return ROLE_UNCLASSIFIED
    if response.echoed_a_record == response.responder_ip:
        return ROLE_RESOLVER
    return ROLE_FORWARDER


def classify_cache_state(response: ProbeResponse,
                         default_ttl: int | None) -> str:
    """Three-way cache state against the authoritative default TTL.

    hit: every answer TTL aged below the default. miss: every answer TTL
    still at the default. Mixed answers and unknown defaults stay unknown
    (the two-way view folds them, see two_way_cache_state).
    """
    if default_ttl is None or not response.answer_ttls:
        return CACHE_UNKNOWN
    ttls = [ttl for _, ttl in response.answer_ttls]
    if all(ttl == default_ttl for ttl in ttls):
        return CACHE_MISS
    if all(ttl < default_ttl for ttl in ttls):
        return CACHE_HIT
    return CACHE_UNKNOWN


def two_way_cache_state(response: ProbeResponse,
                        default_ttl: int | None) -> str:
    """Binary view: miss only when every answer sits at the default TTL,
    anything else is a hit. Unknown only without answers or default."""
    if default_ttl is None or not response.answer_ttls:
        return CACHE_UNKNOWN
    if all(ttl == default_ttl for _, ttl in response.answer_ttls):
        return CACHE_MISS
    return CACHE_HIT


def read_default_ttls(path: str) -> dict[str, int]:
    """qname,ttl CSV with the authoritative default TTL per anchor name."""
    table: dict[str, int] = {}
    for lineno, row in read_csv(path, "qname"):
        if len(row) != 2:
            raise ValueError(f"ttl table line {lineno}: expected qname,ttl")
        try:
            table[normalize_qname(row[0])] = csv_int(row[1])
        except ValueError:
            raise ValueError(f"ttl table line {lineno}: bad ttl {row[1]!r}")
    return table


def read_probe_responses(path: str) -> tuple[list[ProbeResponse], int]:
    """JSONL probe responses; a line that is not a ProbeResponse object, as
    `from_obj` checks it, is counted and skipped."""
    return decode_lines(read_lines(path), partial(from_obj, ProbeResponse, where=path))


def classification_table(responses: Sequence[ProbeResponse],
                         default_ttls: Mapping[str, int]) -> list[dict]:
    """One classified row per response, in (responder, target) order."""
    rows = []
    for response in sorted(responses, key=lambda r: (r.responder_ip, r.target_ip)):
        default = default_ttls.get(response.qname)
        rows.append({
            "responder_ip": response.responder_ip,
            "target_ip": response.target_ip,
            "qname": response.qname,
            "role": classify_responder(response),
            "cache": classify_cache_state(response, default),
            "cache_two_way": two_way_cache_state(response, default),
        })
    return rows
