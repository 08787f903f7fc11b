"""Misused-name selection: three independent selectors and their consensus.

Reflection attacks concentrate on a small set of names that amplify well, so
three rankings are built per trace (largest response seen, ANY-query volume,
traffic toward externally known victims) and merged where they agree best.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import compress
from typing import Iterable, Protocol, Sequence

from .fileio import from_obj, read_json, read_text_lines, write_json
from .records import UDP_HEADER_LEN, PacketRecord, as_trace, normalize_qname

QTYPE_ANY = 255

SELECTOR_MAX_SIZE = "max_size"
SELECTOR_ANY_VOLUME = "any_volume"
SELECTOR_GROUND_TRUTH = "ground_truth"


class VictimWindow(Protocol):
    """Anything with a victim address and a time window (honeypot events fit)."""

    victim_ip: str
    start: float
    end: float


@dataclass(slots=True)
class SelectorRanking:
    """Qnames ranked by one selector, score non-increasing, ties lexicographic."""

    selector_id: str
    ranked: tuple[tuple[str, float], ...]

    def top_set(self, k: int) -> set[str]:
        """Top-k qnames; the whole ranking when it is shorter than k."""
        return {qname for qname, _ in self.ranked[:k]}

    def __len__(self) -> int:
        return len(self.ranked)


def _rank(selector_id: str, scores: dict[str, float | int]) -> SelectorRanking:
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return SelectorRanking(selector_id, tuple((q, s) for q, s in ordered))


def selector_max_size(records: Iterable[PacketRecord]) -> SelectorRanking:
    """Rank names by the largest response payload observed for them."""
    trace = as_trace(records)
    values, responses = trace.values, trace.is_response
    best: dict[str, int] = {}
    for qname, udp_len in zip(map(values.__getitem__, compress(trace.qname, responses)),
                              compress(trace.udp_len, responses)):
        size = values[udp_len] - UDP_HEADER_LEN
        if size > best.get(qname, -1):
            best[qname] = size
    return _rank(SELECTOR_MAX_SIZE, best)


def selector_any_volume(records: Iterable[PacketRecord]) -> SelectorRanking:
    """Rank names by the number of sampled ANY queries carrying them."""
    trace = as_trace(records)
    counts: Counter[str] = Counter()
    for (qr, qtype, qname), count in Counter(zip(trace.is_response, trace.qtype,
                                                 trace.qname)).items():
        if not qr and qtype == QTYPE_ANY:
            counts[trace.values[qname]] += count
    return _rank(SELECTOR_ANY_VOLUME, counts)


def selector_ground_truth(records: Iterable[PacketRecord],
                          victim_windows: Iterable[VictimWindow],
                          slack_s: float = 300.0) -> SelectorRanking:
    """Rank names seen in trace traffic whose client address matches a known
    victim inside its (slack-widened) attack window."""
    windows: dict[str, list[tuple[float, float]]] = {}
    for event in victim_windows:
        windows.setdefault(event.victim_ip, []).append(
            (event.start - slack_s, event.end + slack_s))
    trace = as_trace(records)
    values = trace.values
    counts: Counter[str] = Counter()
    for qr, src_ip, dst_ip, ts, qname in zip(trace.is_response, trace.src_ip, trace.dst_ip,
                                             trace.ts, trace.qname):
        spans = windows.get(values[dst_ip if qr else src_ip])
        if not spans:
            continue
        if any(lo <= ts <= hi for lo, hi in spans):
            counts[values[qname]] += 1
    return _rank(SELECTOR_GROUND_TRUTH, counts)


def jaccard(a: set, b: set) -> float:
    """Jaccard index; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


@dataclass(slots=True)
class MisusedNameList:
    """Consensus result: union of the top-k_star sets with provenance."""

    names: tuple[str, ...]
    provenance: dict[str, tuple[str, ...]]
    k_star: int
    missing_selectors: tuple[str, ...] = ()
    curve: tuple[tuple[int, float], ...] = field(default=(), repr=False)

    def __len__(self) -> int:
        return len(self.names)

    def name_set(self) -> set[str]:
        return set(self.names)


def consensus_merge(rankings: Sequence[SelectorRanking],
                    k_max: int = 64) -> MisusedNameList:
    """Merge selector rankings at the list size where they agree best.

    The consensus size k_star maximizes the mean pairwise Jaccard index of the
    top-k sets over all non-empty selectors (smallest k wins ties). Empty
    selectors are excluded from the mean and flagged. The final list is the
    union of the top-k_star sets, each name tagged with the selectors that
    contributed it.
    """
    active = [r for r in rankings if len(r) > 0]
    missing = tuple(sorted(r.selector_id for r in rankings if len(r) == 0))
    if not active:
        raise ValueError("all selector rankings are empty")

    curve: list[tuple[int, float]] = []
    if len(active) == 1:
        # No pairs to agree on; take what the single selector offers.
        k_star = min(k_max, len(active[0]))
    else:
        best_k, best_mean = 1, -1.0
        for k in range(1, k_max + 1):
            tops = [r.top_set(k) for r in active]
            pair_sum, pairs = 0.0, 0
            for i in range(len(tops)):
                for j in range(i + 1, len(tops)):
                    pair_sum += jaccard(tops[i], tops[j])
                    pairs += 1
            mean = pair_sum / pairs
            curve.append((k, mean))
            if mean > best_mean:
                best_k, best_mean = k, mean
        k_star = best_k

    provenance: dict[str, list[str]] = {}
    for ranking in active:
        for qname in sorted(ranking.top_set(k_star)):
            provenance.setdefault(qname, []).append(ranking.selector_id)
    names = tuple(sorted(provenance))
    return MisusedNameList(
        names=names,
        provenance={q: tuple(sorted(sel)) for q, sel in provenance.items()},
        k_star=k_star,
        missing_selectors=missing,
        curve=tuple(curve),
    )


@dataclass(frozen=True, slots=True)
class _NameEntry:
    qname: str
    selectors: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class _NameListForm:
    """The JSON form of a name list."""

    k_star: int
    names: tuple[_NameEntry, ...]
    missing_selectors: tuple[str, ...] = ()


def write_name_list(names: MisusedNameList, path: str) -> None:
    entries = tuple(_NameEntry(qname, names.provenance[qname]) for qname in names.names)
    write_json(asdict(_NameListForm(names.k_star, entries, names.missing_selectors)), path)


def read_name_list(path: str) -> MisusedNameList:
    form = from_obj(_NameListForm, read_json(path), path)
    provenance = {normalize_qname(entry.qname): entry.selectors for entry in form.names}
    return MisusedNameList(
        names=tuple(sorted(provenance)),
        provenance=provenance,
        k_star=form.k_star,
        missing_selectors=form.missing_selectors,
    )


def read_plain_names(path: str) -> set[str]:
    return {normalize_qname(line) for _, line in read_text_lines(path)}
