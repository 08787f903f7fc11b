"""Command-line pipeline over the library.

Subcommands map one-to-one onto analysis stages and exchange plain files
(JSONL/CSV/JSON), so stages can be re-run, diffed, and composed per day.
Outputs are deterministic: identical inputs produce byte-identical files.

Exit codes: 0 success, 1 processing error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import detector as det
from . import honeypot as hp
from . import selectors as sel
from . import trace as tr
from .fileio import field_types, from_obj, read_json, to_obj, write_csv, write_json, write_jsonl


@dataclass(frozen=True)
class Settings:
    """The keys a --config file may hold, with their defaults. Each is also
    the flag --<key with dashes> of the subcommands that read it."""

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


def _load_config(path: str | None) -> Settings:
    return Settings() if path is None else from_obj(Settings, read_json(path), path)


def _settings(args: argparse.Namespace, config: Settings) -> Settings:
    """Flag beats preset beats config file beats default."""
    if getattr(args, "preset", None):
        config = dataclasses.replace(
            config, **dict(zip(("min_requests", "max_gap"), hp.PRESETS[args.preset])))
    flags = {name: getattr(args, name) for name in field_types(Settings)
             if getattr(args, name, None) is not None}
    return dataclasses.replace(config, **flags)


def _load_names(path: str) -> set[str]:
    if path.endswith(".json"):
        return sel.read_name_list(path).name_set()
    return sel.read_plain_names(path)


def _honeypot_events(path: str, config: Settings) -> list[hp.HoneypotEvent]:
    requests, _ = hp.read_honeypot_csv(path)
    return hp.infer_honeypot_attacks(requests, min_requests=config.min_requests,
                                     max_gap_s=config.max_gap)


def _prepared_records(trace_path: str, prefix_table: str | None) -> tuple[list, int, int]:
    records, skipped = tr.parse_trace(trace_path)
    kept, dropped = tr.sanitize(records)
    if prefix_table:
        tr.annotate(kept, tr.PrefixTable.from_csv(prefix_table))
    return kept, skipped, dropped


def _cmd_ingest(args: argparse.Namespace, config: Settings, out: Path) -> int:
    records, skipped = tr.parse_trace(args.trace)
    total_bytes = sum(r.udp_len for r in records)
    kept, dropped = tr.sanitize(records)
    kept_bytes = sum(r.udp_len for r in kept)
    if args.prefix_table:
        tr.annotate(kept, tr.PrefixTable.from_csv(args.prefix_table))
    tr.write_trace(kept, str(out / "annotated.jsonl"))
    stats = {
        "parsed_records": len(records),
        "skipped_lines": skipped,
        "dropped_records": dropped,
        "kept_records": len(kept),
        "dropped_packet_share": dropped / len(records) if records else 0.0,
        "dropped_byte_share": (1.0 - kept_bytes / total_bytes) if total_bytes else 0.0,
    }
    write_json(stats, str(out / "ingest_stats.json"))
    print(f"kept {len(kept)} records ({skipped} malformed lines, {dropped} dropped)")
    return 0


def _cmd_select_names(args: argparse.Namespace, config: Settings, out: Path) -> int:
    records, _, _ = _prepared_records(args.trace, None)
    rankings = [sel.selector_max_size(records), sel.selector_any_volume(records)]
    if args.honeypot:
        events = _honeypot_events(args.honeypot, config)
        rankings.append(sel.selector_ground_truth(records, events, slack_s=config.slack))
    else:
        rankings.append(sel.SelectorRanking(sel.SELECTOR_GROUND_TRUTH, ()))
    names = sel.consensus_merge(rankings, k_max=config.k_max)
    sel.write_name_list(names, str(out / "names.json"))
    sel.write_plain_names(names, str(out / "names.txt"))
    sel.write_consensus_curve(names, str(out / "curve.csv"))
    if args.previous:
        previous = _load_names(args.previous)
        delta = sel.jaccard(names.name_set(), previous)
        write_json({"previous_jaccard": delta}, str(out / "delta.json"))
        print(f"day-over-day name-list jaccard: {delta:.4f}")
    flagged = f" (empty selectors: {', '.join(names.missing_selectors)})" \
        if names.missing_selectors else ""
    print(f"consensus k*={names.k_star}, {len(names)} names{flagged}")
    return 0


def _cmd_detect(args: argparse.Namespace, config: Settings, out: Path) -> int:
    cfg = det.DetectorConfig(
        share_threshold=config.share_threshold,
        min_sampled_packets=config.min_packets,
        sampling_denominator=config.sampling)
    records, _, _ = _prepared_records(args.trace, args.prefix_table)
    names = _load_names(args.names)
    stats = det.aggregate_client_days(records, names)
    events = det.detect_attacks(stats, cfg)
    det.intensity_deciles(events)
    det.write_events(events, str(out / "attacks.jsonl"))
    summary = det.victim_summary(events)
    write_csv(str(out / "victims_daily.csv"),
              ("day", "victims", "prefixes_24", "prefixes_16", "prefixes_8", "victim_ases"),
              (row.values() for row in summary["daily"]))
    write_csv(str(out / "duration_percentiles.csv"), ("percentile", "seconds"),
              summary["duration_percentiles"].items())
    print(f"{len(events)} attack events from {len(stats)} suspicious client-days")
    return 0


def _cmd_fingerprint(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import fingerprint as fp

    events = det.read_events(args.attacks)
    fingerprint = fp.read_fingerprint(args.fingerprint_spec)
    attributed, share, patterns = fp.attribute_entity(events, fingerprint,
                                                      min_segment=config.min_segment)
    attributed_keys = {(e.victim_ip, e.day) for e in attributed}
    rows = []
    for event, pattern in zip(events, patterns):
        row = {
            "victim_ip": event.victim_ip,
            "day": event.day,
            "dominant_qname": event.dominant_qname(),
            "attributed": (event.victim_ip, event.day) in attributed_keys,
        }
        row["id_pattern"] = pattern.kind if pattern else None
        row["change_point"] = pattern.change_point if pattern else None
        for field in ("ip_id", "src_port", "dns_id"):
            try:
                profile = fp.field_cardinality_profile(event, field)
                row[f"{field}_ratio"] = profile.ratio
                row[f"{field}_low_entropy"] = profile.low_entropy
            except ValueError:
                row[f"{field}_ratio"] = None
                row[f"{field}_low_entropy"] = None
        rows.append(row)
    write_jsonl(rows, str(out / "attribution.jsonl"))
    names = _load_names(args.names) if args.names else None
    timeline = fp.build_name_timeline(events, names)
    write_json({**to_obj(timeline), "intervals": dict(sorted(timeline.intervals.items())),
                "ingress_concentration": fp.ingress_concentration(events)},
               str(out / "timeline.json"))
    print(f"attributed {len(attributed)}/{len(events)} events (share {share:.4f})")
    return 0


def _cmd_cluster(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import amplifiers as amp

    events = det.read_events(args.attacks)
    matrix = amp.jaccard_distance_matrix(amp.amplifier_sets(events))
    amp.write_distance_matrix(matrix, str(out / "distance_matrix.csv"))
    result = amp.dbscan_cluster(matrix, eps=config.eps, min_pts=config.min_pts)
    stable = amp.stable_sets(events, result.labels)
    clusters_obj = {
        "eps": float(config.eps),  # a config file's integer eps is written as a flag's
        "min_pts": config.min_pts,
        "n_clusters": result.n_clusters,
        "outlier_share": result.outlier_share,
        "labels": [
            {"victim_ip": e.victim_ip, "day": e.day, "label": label}
            for e, label in zip(events, result.labels)
        ],
        "stable_sets": [to_obj(s) for s in stable],
    }
    write_json(clusters_obj, str(out / "clusters.json"))

    churn = amp.churn_metrics(amp.daily_amplifier_sets(events))
    write_csv(str(out / "churn.csv"), ("day", "next_day", "overlap"), churn.overlaps)

    inventory = amp.amplifier_inventory(events)
    coverage = None
    if args.seen_table:
        inventory, coverage = amp.recency_join(inventory, amp.read_seen_table(args.seen_table))
    ns_table = amp.read_ns_ip_table(args.ns_table) if args.ns_table else None
    amp.classify_amplifier_role(inventory, ns_table)
    write_csv(str(out / "amplifiers.csv"),
              ("ip", "attack_count", "first_abuse_ts", "last_abuse_ts", "role", "recency",
               "first_seen", "last_seen"),
              ((i.ip, i.attack_count, i.first_abuse_ts, i.last_abuse_ts, i.role, i.recency,
                i.first_seen, i.last_seen) for i in map(inventory.get, sorted(inventory))))
    breakdown = amp.qname_role_breakdown(events, inventory)
    write_csv(str(out / "qname_roles.csv"), ("qname", "role", "count"),
              ((qname, role, breakdown[qname][role])
               for qname in sorted(breakdown) for role in sorted(breakdown[qname])))
    line = (f"{result.n_clusters} clusters, outlier share {result.outlier_share:.4f}, "
            f"{len(stable)} stable sets")
    if coverage is not None:
        line += f", scan coverage {coverage:.4f}"
    print(line)
    return 0


def _cmd_estimate(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import sizing

    record_sets = sizing.read_record_sets(args.records)
    rows = []
    for record_set in record_sets:
        estimate = sizing.estimate_any_response_size(record_set)
        rows.append((record_set.day or "", estimate))
    write_csv(str(out / "estimates.csv"), ("day", "owner", "est_bytes", "exceeds_edns"),
              ((day, estimate.owner, estimate.est_bytes, str(estimate.exceeds_edns).lower())
               for day, estimate in sorted(rows, key=lambda r: (r[0], r[1].owner))))

    latest: dict[str, tuple[str, sizing.SizeEstimate]] = {}
    for day, estimate in rows:
        if estimate.owner not in latest or day > latest[estimate.owner][0]:
            latest[estimate.owner] = (day, estimate)
    snapshot = [estimate for _, (_, estimate) in sorted(latest.items())]
    references = sel.read_plain_names(args.reference_names) if args.reference_names else ()
    ranking = sizing.rank_amplification(snapshot, references, edns=args.edns)
    ranking_obj = {
        "count_above_reference": ranking.count_above_reference,
        "reference_max": ranking.reference_max,
        "factors": {owner: ranking.factors[owner] for owner in sorted(ranking.factors)},
        "cdf": [{"owner": o, "est_bytes": b, "cdf": c} for o, b, c in ranking.rows],
    }
    write_json(ranking_obj, str(out / "ranking.json"))

    plateaus = []
    for owner, series in sorted(sizing.daily_series(record_sets).items()):
        values = [value for _, value in series]
        for plateau in sizing.detect_rollover_plateaus(values, min_days=config.min_days,
                                                       min_step_bytes=config.min_step):
            plateaus.append((owner, series[plateau.start_index][0],
                             series[plateau.end_index][0], plateau.length, plateau.height))
    write_csv(str(out / "plateaus.csv"), ("owner", "start_day", "end_day", "days", "height"),
              plateaus)
    print(f"{len(snapshot)} names sized, {ranking.count_above_reference} above reference")
    return 0


def _cmd_snoop(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import snoop

    responses, skipped = snoop.read_probe_responses(args.responses)
    ttls = snoop.read_default_ttls(args.ttl_table) if args.ttl_table else {}
    kept, dropped = snoop.sanitize_probe_responses(responses, ttls)
    rows = snoop.classification_table(kept, ttls)
    write_jsonl(rows, str(out / "snoop.jsonl"))
    roles = Counter(row["role"] for row in rows)
    caches = Counter(row["cache"] for row in rows)
    print(f"{len(rows)} responders kept ({skipped} malformed, {dropped} dropped); "
          f"roles {dict(sorted(roles.items()))}; cache {dict(sorted(caches.items()))}")
    return 0


def _cmd_synth(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import synth

    cfg = synth.read_scenario(args.scenario)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    records, hp_requests, truth = synth.generate_scenario(cfg)
    tr.write_trace(records, str(out / "trace.jsonl"))
    hp.write_honeypot_csv(hp_requests, str(out / "honeypot.csv"))
    synth.write_truth(truth, str(out / "ground_truth.json"))
    write_csv(str(out / "prefixes.csv"), ("prefix", "asn"), synth.synthetic_prefix_table(cfg))
    print(f"{len(records)} trace records, {len(hp_requests)} honeypot requests, "
          f"{len(truth.attacks)} planted attacks")
    return 0


def _cmd_compare(args: argparse.Namespace, config: Settings, out: Path) -> int:
    events = det.read_events(args.attacks)
    if any(e.intensity_decile is None for e in events):
        det.intensity_deciles(events)
    hp_events = _honeypot_events(args.honeypot, config)
    hp.score_honeypot_deciles(hp_events)
    hp.write_honeypot_events(hp_events, str(out / "honeypot_events.jsonl"))
    report = hp.overlap(events, hp_events, slack_s=config.slack)
    obj = {
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
        "intensity": None,
    }
    if report.pairs:
        obj["intensity"] = to_obj(hp.intensity_comparison(events, hp_events, report))
    write_json(obj, str(out / "overlap.json"))
    write_csv(str(out / "convergence.csv"), ("sensors", "victim_fraction"),
              hp.convergence_curve(hp_events))
    print(f"{report.mutual_count} mutual events "
          f"({report.trace_matched_fraction:.4f} of trace, "
          f"{report.honeypot_matched_fraction:.4f} of honeypot)")
    return 0


def _cmd_report(args: argparse.Namespace, config: Settings, out: Path) -> int:
    from . import fingerprint as fp

    events = det.read_events(args.attacks)
    names = sorted(_load_names(args.names)) if args.names else sorted(
        {q for e in events for q in e.qname_counts})
    max_sizes: dict[str, int] = {}
    nscounts: list[int] = []
    if args.trace:
        records, _, _ = _prepared_records(args.trace, None)
        nscounts = [record.nscount for record in records if record.is_response]
        listed = set(names)
        max_sizes = {qname: size for qname, size in sel.selector_max_size(records).ranked
                     if qname in listed}

    def tld(qname: str) -> str:
        labels = tr.qname_labels(qname)
        return labels[-1] + "." if labels else "."

    per_tld_names: dict[str, set[str]] = {}
    for qname in names:
        per_tld_names.setdefault(tld(qname), set()).add(qname)
    packets_per_tld: Counter[str] = Counter()
    attacks_per_tld: Counter[str] = Counter()
    total_misused = 0
    for event in events:
        tlds = set()
        for qname, count in event.qname_counts.items():
            packets_per_tld[tld(qname)] += count
            total_misused += count
            tlds.add(tld(qname))
        for label in tlds:
            attacks_per_tld[label] += 1
    rows = []
    for label in sorted(per_tld_names):
        packets = packets_per_tld.get(label, 0)
        share = packets / total_misused if total_misused else 0.0
        size = max((max_sizes.get(q, 0) for q in per_tld_names[label]), default=0)
        rows.append((label, len(per_tld_names[label]), packets, share,
                     attacks_per_tld.get(label, 0), size))
    write_csv(str(out / "tld_summary.csv"),
              ("tld", "names", "packets", "packet_share", "attacks", "max_response_size"), rows)
    request_total = sum(e.request_count for e in events)
    response_total = sum(e.response_count for e in events)
    obj = {
        "events": len(events),
        "victims": len({e.victim_ip for e in events}),
        "request_count": request_total,
        "response_count": response_total,
        "request_share": request_total / (request_total + response_total)
        if request_total + response_total else 0.0,
        "ingress_concentration": fp.ingress_concentration(events),
        "nscount_le1_share": None,
        "nscount_le10_share": None,
    }
    if nscounts:
        obj["nscount_le1_share"] = sum(1 for n in nscounts if n <= 1) / len(nscounts)
        obj["nscount_le10_share"] = sum(1 for n in nscounts if n <= 10) / len(nscounts)
    write_json(obj, str(out / "report.json"))
    print(f"report over {len(events)} events, {len(names)} names")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnsamp",
        description="DNS reflection-attack analysis over sampled traces")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    sub = parser.add_subparsers(dest="command", required=True)
    setting_types = field_types(Settings)

    def add_settings(p: argparse.ArgumentParser, *names: str) -> None:
        """A flag per Settings field the subcommand reads, typed as the field."""
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), type=setting_types[name])

    p = sub.add_parser("ingest", help="parse, sanitize, and annotate a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--prefix-table")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("select-names", help="build the misused-name consensus list")
    p.add_argument("--trace", required=True)
    p.add_argument("--honeypot")
    add_settings(p, "k_max", "slack", "min_requests", "max_gap")
    p.add_argument("--previous", help="previous day's names.json for fluctuation check")
    p.set_defaults(func=_cmd_select_names)

    p = sub.add_parser("detect", help="detect attack events per client-day")
    p.add_argument("--trace", required=True)
    p.add_argument("--names", required=True)
    p.add_argument("--prefix-table")
    add_settings(p, "share_threshold", "min_packets", "sampling")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("fingerprint", help="classify header patterns, attribute entities")
    p.add_argument("--attacks", required=True)
    p.add_argument("--fingerprint-spec", required=True)
    p.add_argument("--names")
    add_settings(p, "min_segment")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("cluster", help="cluster events by amplifier-set distance")
    p.add_argument("--attacks", required=True)
    add_settings(p, "eps", "min_pts")
    p.add_argument("--seen-table")
    p.add_argument("--ns-table")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("estimate", help="size ANY responses from record inventories")
    p.add_argument("--records", required=True)
    p.add_argument("--reference-names")
    p.add_argument("--edns", action="store_true",
                   help="assume an EDNS OPT record in the request size")
    add_settings(p, "min_days", "min_step")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("snoop", help="classify cache-snooping probe responses")
    p.add_argument("--responses", required=True)
    p.add_argument("--ttl-table")
    p.set_defaults(func=_cmd_snoop)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("compare", help="match trace events against honeypot events")
    p.add_argument("--attacks", required=True)
    p.add_argument("--honeypot", required=True)
    p.add_argument("--preset", choices=sorted(hp.PRESETS))
    add_settings(p, "min_requests", "max_gap", "slack")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="aggregate tables from detected events")
    p.add_argument("--attacks", required=True)
    p.add_argument("--names")
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_report)
    for p in sub.choices.values():  # added last, so each subcommand lists it last
        p.add_argument("--out-dir", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _settings(args, _load_config(args.config))
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, config, out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
