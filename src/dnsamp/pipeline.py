"""Stage functions: one call per `dnsamp` subcommand, over objects in memory.

Each function takes its stage's inputs, already read, and the `Settings` it
uses, and returns a `StageResult`: the files its subcommand writes, by name,
each with its writer and the value written, and the line it prints. So
stages chain without files: `detect(...)["attacks.jsonl"]` is the list of
events. Every module but fileio and records (amplifiers, detector,
fingerprint, honeypot, selectors, sizing, snoop, synth, and trace, the
trace's file I/O) is imported inside the stages that call into it, so each
stage loads only the modules it runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Iterable, Sequence

from .fileio import csv_writer, to_obj, write_json, write_jsonl, write_lines
from .records import as_trace, qname_labels

if TYPE_CHECKING:
    from . import detector as det
    from . import honeypot as hp
    from . import trace as tr
    from .fingerprint import EntityFingerprint
    from .sizing import RecordSet
    from .snoop import ProbeResponse
    from .synth import ScenarioConfig


# Honeypot inference presets, (min_requests, max_gap): classic
# amplifier-honeypot thresholds, chosen by `compare --preset`.
PRESETS: dict[str, tuple[int, float]] = {
    "ccc": (5, 900.0),
    "amppot": (100, 3600.0),
}

# The tuple and dict fields of AttackEvent (detector.ITEM_FIELDS) that each
# event stage reads, by subcommand: its events are read with only these built.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "fingerprint": ("qname_counts", "dns_ids", "req_ip_ids", "req_src_ports", "req_dns_ids",
                    "ingress_as_counts"),
    "cluster": ("qname_counts", "amplifier_set"),
    "compare": (),
    "report": ("qname_counts", "ingress_as_counts"),
}


@dataclass(frozen=True)
class Settings:
    """The keys a --config file may hold, with their defaults. Each is also
    the flag --<key with dashes> of the subcommands that read it. Each key's
    bound is checked here alone: the library functions that take these
    values do not check them."""

    share_threshold: float = 0.9
    min_packets: int = 10
    sampling: int = 16000
    k_max: int = 64
    slack: float = 300.0
    min_requests: int = 5
    max_gap: float = 900.0
    eps: float = 0.6
    min_pts: int = 5
    min_segment: int = 3
    min_days: int = 7
    min_step: int = 256

    def __post_init__(self) -> None:
        # nan fails every comparison, so each bound rejects it too
        checks = (
            ("share_threshold", "a number in (0, 1]", self.share_threshold,
             0 < self.share_threshold <= 1),
            ("min_packets", "an integer >= 1", self.min_packets, self.min_packets >= 1),
            ("sampling", "an integer >= 1", self.sampling, self.sampling >= 1),
            ("k_max", "an integer >= 1", self.k_max, self.k_max >= 1),
            ("slack", "a number >= 0", self.slack, self.slack >= 0),
            ("min_requests", "an integer >= 1", self.min_requests, self.min_requests >= 1),
            ("max_gap", "a number > 0", self.max_gap, self.max_gap > 0),
            ("eps", "a number >= 0", self.eps, self.eps >= 0),
            ("min_pts", "an integer >= 1", self.min_pts, self.min_pts >= 1),
            ("min_segment", "an integer >= 1", self.min_segment, self.min_segment >= 1),
            ("min_days", "an integer >= 1", self.min_days, self.min_days >= 1),
            ("min_step", "an integer >= 1", self.min_step, self.min_step >= 1),
        )
        for key, expected, value, ok in checks:
            if not ok:
                raise ValueError(f"key {key!r}: expected {expected}, got {value!r}")


@dataclass(frozen=True)
class StageResult:
    """A stage's outputs: file name -> (writer, value) in write order, each
    file written by `writer(value, path)`, and the line to print. The value
    written to a file is `result[name]`."""

    files: dict[str, tuple[Callable[[Any, str], None], Any]]
    line: str

    def __getitem__(self, name: str) -> Any:
        return self.files[name][1]


def _honeypot_events(requests: Sequence[hp.HoneypotRequest],
                     settings: Settings) -> list[hp.HoneypotEvent]:
    from . import honeypot as hp

    return hp.infer_honeypot_attacks(requests, min_requests=settings.min_requests,
                                     max_gap_s=settings.max_gap)


def prepare(trace: str | Iterable[str],
            prefix_table: tr.PrefixTable | None = None) -> StageResult:
    """ingest: annotated.jsonl, the records of a trace (a path or its lines),
    parsed, sanitized and annotated from the prefix table when one is given,
    their columns in annotated.columns, and their counts in ingest_stats.json."""
    from . import trace as tr

    records, skipped = tr.parse_trace(trace)
    kept, dropped = tr.sanitize(records)
    parsed = len(kept) + dropped
    kept_bytes = sum(map(kept.values.__getitem__, kept.udp_len))
    # a dropped record's length may be any integer: the share stays in [0, 1]
    total_bytes = kept_bytes + sum(max(record.udp_len, 0) for record in records.dropped)
    if prefix_table is not None:
        tr.annotate(kept, prefix_table)
    stats = {
        "parsed_records": parsed,
        "skipped_lines": skipped,
        "dropped_records": dropped,
        "kept_records": len(kept),
        "dropped_packet_share": dropped / parsed if parsed else 0.0,
        "dropped_byte_share": (1.0 - kept_bytes / total_bytes) if total_bytes else 0.0,
    }
    return StageResult({"annotated.jsonl": (tr.write_trace, kept),
                        "annotated.columns": (tr.write_columns, kept),
                        "ingest_stats.json": (write_json, stats)},
                       f"kept {len(kept)} records ({skipped} malformed lines, {dropped} dropped)")


def select_names(records: Sequence[tr.PacketRecord], settings: Settings,
                 requests: Sequence[hp.HoneypotRequest] | None = None,
                 previous: AbstractSet[str] | None = None) -> StageResult:
    """select-names: the consensus of the three selectors, the ground-truth
    one fed by the honeypot's requests (empty without them), as names.json,
    its names one per line, its agreement curve, and with a previous day's
    names the list's Jaccard index against them in delta.json."""
    from . import selectors as sel

    rankings = [sel.selector_max_size(records), sel.selector_any_volume(records)]
    if requests is None:
        rankings.append(sel.SelectorRanking(sel.SELECTOR_GROUND_TRUTH, ()))
    else:
        rankings.append(sel.selector_ground_truth(
            records, _honeypot_events(requests, settings), slack_s=settings.slack))
    names = sel.consensus_merge(rankings, k_max=settings.k_max)
    files = {"names.json": (sel.write_name_list, names),
             "names.txt": (write_lines, names.names),
             "curve.csv": (csv_writer(("k", "mean_jaccard")), names.curve)}
    line = f"consensus k*={names.k_star}, {len(names)} names"
    if names.missing_selectors:
        line += f" (empty selectors: {', '.join(names.missing_selectors)})"
    if previous is not None:
        delta = sel.jaccard(names.name_set(), previous)
        files["delta.json"] = (write_json, {"previous_jaccard": delta})
        line = f"day-over-day name-list jaccard: {delta:.4f}\n{line}"
    return StageResult(files, line)


def detect(records: Sequence[tr.PacketRecord], names: AbstractSet[str],
           settings: Settings) -> StageResult:
    """detect: the attack events with their intensity deciles, their columns
    for the stages that read them, and the tables of their `victim_summary`."""
    from . import detector as det

    stats = det.aggregate_client_days(records, names)
    events = det.detect_attacks(stats, min_packets=settings.min_packets,
                                share_threshold=settings.share_threshold,
                                sampling=settings.sampling)
    det.intensity_deciles(events)
    summary = det.victim_summary(events)
    return StageResult({
        "attacks.jsonl": (det.write_events, events),
        "attacks.columns": (det.write_event_columns, events),
        "victims_daily.csv": (csv_writer(("day", "victims", "prefixes_24", "prefixes_16",
                                          "prefixes_8", "victim_ases")),
                              [tuple(row.values()) for row in summary["daily"]]),
        "duration_percentiles.csv": (csv_writer(("percentile", "seconds")),
                                     list(summary["duration_percentiles"].items())),
    }, f"{len(events)} attack events from {len(stats)} suspicious client-days")


def fingerprint(events: Sequence[det.AttackEvent], spec: EntityFingerprint, settings: Settings,
                names: AbstractSet[str] | None = None) -> StageResult:
    """fingerprint: one attribution row per event, saying whether the spec's
    entity is behind it, and the timeline.json object."""
    from . import fingerprint as fp

    attributed, share, patterns = fp.attribute_entity(events, spec,
                                                      min_segment=settings.min_segment)
    attributed_keys = {(e.victim_ip, e.day) for e in attributed}
    rows = []
    for event, pattern in zip(events, patterns):
        row = {
            "victim_ip": event.victim_ip,
            "day": event.day,
            "dominant_qname": event.dominant_qname(),
            "attributed": (event.victim_ip, event.day) in attributed_keys,
            "id_pattern": pattern.kind if pattern else None,
            "change_point": pattern.change_point if pattern else None,
        }
        for field in ("ip_id", "src_port", "dns_id"):
            try:
                profile = fp.field_cardinality_profile(event, field)
                row[f"{field}_ratio"] = profile.ratio
                row[f"{field}_low_entropy"] = profile.low_entropy
            except ValueError:
                row[f"{field}_ratio"] = None
                row[f"{field}_low_entropy"] = None
        rows.append(row)
    timeline = fp.build_name_timeline(events, names)
    timeline_obj = {**to_obj(timeline), "intervals": dict(sorted(timeline.intervals.items())),
                    "ingress_concentration": fp.ingress_concentration(events)}
    return StageResult({"attribution.jsonl": (write_jsonl, rows),
                        "timeline.json": (write_json, timeline_obj)},
                       f"attributed {len(attributed)}/{len(events)} events (share {share:.4f})")


def cluster(events: Sequence[det.AttackEvent], settings: Settings,
            seen_table: dict[str, tuple[str, str]] | None = None,
            ns_table: dict[str, str] | None = None) -> StageResult:
    """cluster: the distance matrix, the clusters.json object, the churn
    overlaps, the reflector inventory in address order and (qname, role,
    count) rows. Without an NS table every role is unknown; with a seen table
    the line gives the share of reflectors in it."""
    from . import amplifiers as amp

    matrix = amp.jaccard_distance_matrix(amp.amplifier_sets(events))
    result = amp.dbscan_cluster(matrix, eps=settings.eps, min_pts=settings.min_pts)
    clusters = {
        "eps": float(settings.eps),  # a config file's integer eps is written as a flag's
        "min_pts": settings.min_pts,
        "n_clusters": result.n_clusters,
        "outlier_share": result.outlier_share,
        "labels": [
            {"victim_ip": e.victim_ip, "day": e.day, "label": label}
            for e, label in zip(events, result.labels)
        ],
        "stable_sets": [to_obj(s) for s in amp.stable_sets(events, result.labels)],
    }
    churn = amp.churn_metrics(amp.daily_amplifier_sets(events))
    inventory = amp.amplifier_inventory(events)
    line = (f"{clusters['n_clusters']} clusters, outlier share {clusters['outlier_share']:.4f}, "
            f"{len(clusters['stable_sets'])} stable sets")
    if seen_table is not None:
        inventory, coverage = amp.recency_join(inventory, seen_table)
        line += f", scan coverage {coverage:.4f}"
    amp.classify_amplifier_role(inventory, ns_table)
    breakdown = amp.qname_role_breakdown(events, inventory)
    roles = [(qname, role, breakdown[qname][role])
             for qname in sorted(breakdown) for role in sorted(breakdown[qname])]
    columns = [field.name for field in fields(amp.AmplifierInfo)]
    reflectors = map(inventory.__getitem__, sorted(inventory))
    return StageResult({
        "distance_matrix.csv": (amp.write_distance_matrix, matrix),
        "clusters.json": (write_json, clusters),
        "churn.csv": (csv_writer(("day", "next_day", "overlap")), churn.overlaps),
        "amplifiers.csv": (csv_writer(columns), list(map(attrgetter(*columns), reflectors))),
        "qname_roles.csv": (csv_writer(("qname", "role", "count")), roles),
    }, line)


def estimate(record_sets: Sequence[RecordSet], settings: Settings, references: Iterable[str] = (),
             edns: bool = False) -> StageResult:
    """estimate: one row per record set's estimate in (day, owner) order, an
    undated set's day "", the ranking.json object over each owner's estimate
    of its latest day, and the key-rollover plateau rows."""
    from . import sizing

    sized = [(record_set.day, sizing.estimate_any_response_size(record_set))
             for record_set in record_sets]
    rows = sorted(((day or "", size) for day, size in sized),
                  key=lambda row: (row[0], row[1].owner))
    latest: dict[str, sizing.SizeEstimate] = {}
    # newest first; the stable sort keeps a day's first line first
    for _, size in sorted(rows, key=lambda row: row[0], reverse=True):
        latest.setdefault(size.owner, size)
    ranking = sizing.rank_amplification([latest[owner] for owner in sorted(latest)],
                                        references, edns=edns)
    ranking_obj = {
        "count_above_reference": ranking.count_above_reference,
        "reference_max": ranking.reference_max,
        "factors": {owner: ranking.factors[owner] for owner in sorted(ranking.factors)},
        "cdf": [{"owner": o, "est_bytes": b, "cdf": c} for o, b, c in ranking.rows],
    }
    plateaus = [
        (owner, series[plateau.start_index][0], series[plateau.end_index][0],
         plateau.length, plateau.height)
        for owner, series in sorted(sizing.daily_series(sized).items())
        for plateau in sizing.detect_rollover_plateaus(
            [value for _, value in series], min_days=settings.min_days,
            min_step_bytes=settings.min_step)
    ]
    return StageResult({
        "estimates.csv": (csv_writer(("day", "owner", "est_bytes", "exceeds_edns")),
                          [(day, size.owner, size.est_bytes, str(size.exceeds_edns).lower())
                           for day, size in rows]),
        "ranking.json": (write_json, ranking_obj),
        "plateaus.csv": (csv_writer(("owner", "start_day", "end_day", "days", "height")),
                         plateaus),
    }, f"{len(ranking.factors)} names sized, {ranking.count_above_reference} above reference")


def snoop(responses: Sequence[ProbeResponse], default_ttls: dict[str, int],
          malformed: int = 0) -> StageResult:
    """snoop: one classified row per responder kept. The line counts the
    malformed lines the reader skipped, the responses dropped, and each role
    and cache state."""
    from . import snoop as sn

    kept, dropped = sn.sanitize_probe_responses(responses, default_ttls)
    rows = sn.classification_table(kept, default_ttls)
    roles = dict(sorted(Counter(row["role"] for row in rows).items()))
    caches = dict(sorted(Counter(row["cache"] for row in rows).items()))
    return StageResult({"snoop.jsonl": (write_jsonl, rows)},
                       f"{len(rows)} responders kept ({malformed} malformed, {dropped} dropped); "
                       f"roles {roles}; cache {caches}")


def synth(cfg: ScenarioConfig) -> StageResult:
    """synth: the scenario's sampled trace, honeypot log, ground truth and
    prefix table."""
    from . import honeypot as hp
    from . import synth as sy
    from . import trace as tr

    records, requests, truth = sy.generate_scenario(cfg)
    return StageResult({
        "trace.jsonl": (tr.write_trace, records),
        "honeypot.csv": (hp.write_honeypot_csv, requests),
        "ground_truth.json": (sy.write_truth, truth),
        "prefixes.csv": (csv_writer(("prefix", "asn")), sy.synthetic_prefix_table(cfg)),
    }, f"{len(records)} trace records, {len(requests)} honeypot requests, "
       f"{len(truth.attacks)} planted attacks")


def compare(events: Sequence[det.AttackEvent], requests: Sequence[hp.HoneypotRequest],
            settings: Settings) -> StageResult:
    """compare: the honeypot events inferred from the requests, with their
    intensity deciles, the overlap.json object, and the sensor convergence
    curve. Trace events without deciles are scored in place."""
    from . import detector as det
    from . import honeypot as hp

    if any(e.intensity_decile is None for e in events):
        det.intensity_deciles(events)
    hp_events = _honeypot_events(requests, settings)
    hp.score_honeypot_deciles(hp_events)
    report = hp.overlap(events, hp_events, slack_s=settings.slack)
    overlap = {
        "mutual_count": report.mutual_count,
        "trace_total": report.trace_total,
        "honeypot_total": report.honeypot_total,
        "trace_matched_fraction": report.trace_matched_fraction,
        "honeypot_matched_fraction": report.honeypot_matched_fraction,
        "pairs": [
            {
                "victim_ip": events[i].victim_ip, "day": events[i].day,
                "honeypot_start": hp_events[j].start, "honeypot_end": hp_events[j].end,
                "trace_decile": events[i].intensity_decile,
                "honeypot_decile": hp_events[j].intensity_decile,
            }
            for i, j in report.pairs
        ],
        "intensity": to_obj(hp.intensity_comparison(events, hp_events, report))
        if report.pairs else None,
    }
    return StageResult({
        "honeypot_events.jsonl": (hp.write_honeypot_events, hp_events),
        "overlap.json": (write_json, overlap),
        "convergence.csv": (csv_writer(("sensors", "victim_fraction")),
                            hp.convergence_curve(hp_events)),
    }, f"{report.mutual_count} mutual events ({report.trace_matched_fraction:.4f} of trace, "
       f"{report.honeypot_matched_fraction:.4f} of honeypot)")


def _tld(qname: str) -> str:
    labels = qname_labels(qname)
    return labels[-1] + "." if labels else "."


def report(events: Sequence[det.AttackEvent], names: AbstractSet[str] | None = None,
           records: Sequence[tr.PacketRecord] | None = None) -> StageResult:
    """report: the tld_summary.csv rows over the given names, else every name
    in the events, and the report.json object. The records of the trace,
    when given, supply each name's largest response and the nscount shares."""
    from . import fingerprint as fp

    if names is None:
        names = {qname for event in events for qname in event.qname_counts}
    packets: Counter[str] = Counter()
    attacks: Counter[str] = Counter()
    victims = set()
    requests = responses = 0
    for event in events:
        tlds = Counter()
        for qname, count in event.qname_counts.items():
            tlds[_tld(qname)] += count
        packets.update(tlds)
        attacks.update(tlds.keys())
        victims.add(event.victim_ip)
        requests += event.request_count
        responses += event.response_count
    per_tld: dict[str, list[str]] = {}
    for qname in sorted(names):
        per_tld.setdefault(_tld(qname), []).append(qname)
    sizes: dict[str, int] = {}
    nscounts: Counter[int] = Counter()
    if records is not None:
        from . import selectors as sel

        sizes = dict(sel.selector_max_size(records).ranked)
        trace = as_trace(records)
        for index, count in Counter(compress(trace.nscount, trace.is_response)).items():
            nscounts[trace.values[index]] += count
    total = sum(packets.values())
    rows = [(label, len(group), packets[label], packets[label] / total if total else 0.0,
             attacks[label], max(sizes.get(qname, 0) for qname in group))
            for label, group in sorted(per_tld.items())]
    nscount_total = sum(nscounts.values())
    obj = {
        "events": len(events),
        "victims": len(victims),
        "request_count": requests,
        "response_count": responses,
        "request_share": requests / (requests + responses) if requests + responses else 0.0,
        "ingress_concentration": fp.ingress_concentration(events),
        "nscount_le1_share": sum(c for n, c in nscounts.items() if n <= 1) / nscount_total
        if nscount_total else None,
        "nscount_le10_share": sum(c for n, c in nscounts.items() if n <= 10) / nscount_total
        if nscount_total else None,
    }
    return StageResult({
        "tld_summary.csv": (csv_writer(("tld", "names", "packets", "packet_share", "attacks",
                                        "max_response_size")), rows),
        "report.json": (write_json, obj),
    }, f"report over {len(events)} events, {len(names)} names")
