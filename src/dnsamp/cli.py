"""Command-line pipeline over the library.

Subcommands map one-to-one onto analysis stages and exchange plain files
(JSONL/CSV/JSON), so stages can be re-run, diffed, and composed per day.
Each subcommand reads its inputs, makes one library call (its `pipeline`
stage function, or the scenario generator for `synth`) and writes what it
returns. Outputs are deterministic: identical inputs produce byte-identical
files.

Exit codes: 0 success, 1 processing error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import detector as det
from . import honeypot as hp
from . import pipeline
from . import selectors as sel
from . import trace as tr
from .fileio import field_types, from_obj, read_json, to_obj, write_csv, write_json, write_jsonl
from .pipeline import Settings


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


def _prepared(args: argparse.Namespace) -> tuple[list, dict]:
    """`pipeline.prepare` of --trace, annotated when the subcommand has a
    --prefix-table and it is given."""
    table = getattr(args, "prefix_table", None)
    return pipeline.prepare(args.trace, tr.PrefixTable.from_csv(table) if table else None)


def _cmd_ingest(args: argparse.Namespace, config: Settings, out: Path) -> None:
    records, stats = _prepared(args)
    tr.write_trace(records, str(out / "annotated.jsonl"))
    write_json(stats, str(out / "ingest_stats.json"))
    print(f"kept {stats['kept_records']} records ({stats['skipped_lines']} malformed lines, "
          f"{stats['dropped_records']} dropped)")


def _cmd_select_names(args: argparse.Namespace, config: Settings, out: Path) -> None:
    records, _ = _prepared(args)
    requests = hp.read_honeypot_csv(args.honeypot)[0] if args.honeypot else None
    previous = _load_names(args.previous) if args.previous else None
    names, delta = pipeline.select_names(records, config, requests, previous)
    sel.write_name_list(names, str(out / "names.json"))
    sel.write_plain_names(names, str(out / "names.txt"))
    sel.write_consensus_curve(names, str(out / "curve.csv"))
    if delta is not None:
        write_json({"previous_jaccard": delta}, str(out / "delta.json"))
        print(f"day-over-day name-list jaccard: {delta:.4f}")
    flagged = f" (empty selectors: {', '.join(names.missing_selectors)})" \
        if names.missing_selectors else ""
    print(f"consensus k*={names.k_star}, {len(names)} names{flagged}")


def _cmd_detect(args: argparse.Namespace, config: Settings, out: Path) -> None:
    records, _ = _prepared(args)
    events, summary, client_days = pipeline.detect(records, _load_names(args.names), config)
    det.write_events(events, str(out / "attacks.jsonl"))
    write_csv(str(out / "victims_daily.csv"),
              ("day", "victims", "prefixes_24", "prefixes_16", "prefixes_8", "victim_ases"),
              (row.values() for row in summary["daily"]))
    write_csv(str(out / "duration_percentiles.csv"), ("percentile", "seconds"),
              summary["duration_percentiles"].items())
    print(f"{len(events)} attack events from {client_days} suspicious client-days")


def _cmd_fingerprint(args: argparse.Namespace, config: Settings, out: Path) -> None:
    from . import fingerprint as fp

    events = det.read_events(args.attacks)
    spec = fp.read_fingerprint(args.fingerprint_spec)
    names = _load_names(args.names) if args.names else None
    rows, timeline, attributed, share = pipeline.fingerprint(events, spec, config, names)
    write_jsonl(rows, str(out / "attribution.jsonl"))
    write_json(timeline, str(out / "timeline.json"))
    print(f"attributed {attributed}/{len(events)} events (share {share:.4f})")


def _cmd_cluster(args: argparse.Namespace, config: Settings, out: Path) -> None:
    from . import amplifiers as amp

    events = det.read_events(args.attacks)
    seen_table = amp.read_seen_table(args.seen_table) if args.seen_table else None
    ns_table = amp.read_ns_ip_table(args.ns_table) if args.ns_table else None
    matrix, clusters, churn, inventory, roles, coverage = pipeline.cluster(
        events, config, seen_table, ns_table)
    amp.write_distance_matrix(matrix, str(out / "distance_matrix.csv"))
    write_json(clusters, str(out / "clusters.json"))
    write_csv(str(out / "churn.csv"), ("day", "next_day", "overlap"), churn)
    write_csv(str(out / "amplifiers.csv"),
              [field.name for field in dataclasses.fields(amp.AmplifierInfo)],
              (to_obj(info).values() for info in inventory))
    write_csv(str(out / "qname_roles.csv"), ("qname", "role", "count"), roles)
    line = (f"{clusters['n_clusters']} clusters, outlier share {clusters['outlier_share']:.4f}, "
            f"{len(clusters['stable_sets'])} stable sets")
    if coverage is not None:
        line += f", scan coverage {coverage:.4f}"
    print(line)


def _cmd_estimate(args: argparse.Namespace, config: Settings, out: Path) -> None:
    from . import sizing

    record_sets = sizing.read_record_sets(args.records)
    references = sel.read_plain_names(args.reference_names) if args.reference_names else ()
    rows, ranking, plateaus = pipeline.estimate(record_sets, config, references, args.edns)
    write_csv(str(out / "estimates.csv"), ("day", "owner", "est_bytes", "exceeds_edns"),
              ((day, size.owner, size.est_bytes, str(size.exceeds_edns).lower())
               for day, size in rows))
    write_json(ranking, str(out / "ranking.json"))
    write_csv(str(out / "plateaus.csv"), ("owner", "start_day", "end_day", "days", "height"),
              plateaus)
    print(f"{len(ranking['factors'])} names sized, "
          f"{ranking['count_above_reference']} above reference")


def _cmd_snoop(args: argparse.Namespace, config: Settings, out: Path) -> None:
    from . import snoop

    responses, skipped = snoop.read_probe_responses(args.responses)
    ttls = snoop.read_default_ttls(args.ttl_table) if args.ttl_table else {}
    rows, dropped, roles, caches = pipeline.snoop(responses, ttls)
    write_jsonl(rows, str(out / "snoop.jsonl"))
    print(f"{len(rows)} responders kept ({skipped} malformed, {dropped} dropped); "
          f"roles {dict(sorted(roles.items()))}; cache {dict(sorted(caches.items()))}")


def _cmd_synth(args: argparse.Namespace, config: Settings, out: Path) -> None:
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


def _cmd_compare(args: argparse.Namespace, config: Settings, out: Path) -> None:
    events = det.read_events(args.attacks)
    requests, _ = hp.read_honeypot_csv(args.honeypot)
    hp_events, overlap, convergence = pipeline.compare(events, requests, config)
    hp.write_honeypot_events(hp_events, str(out / "honeypot_events.jsonl"))
    write_json(overlap, str(out / "overlap.json"))
    write_csv(str(out / "convergence.csv"), ("sensors", "victim_fraction"), convergence)
    print(f"{overlap['mutual_count']} mutual events "
          f"({overlap['trace_matched_fraction']:.4f} of trace, "
          f"{overlap['honeypot_matched_fraction']:.4f} of honeypot)")


def _cmd_report(args: argparse.Namespace, config: Settings, out: Path) -> None:
    events = det.read_events(args.attacks)
    names = _load_names(args.names) if args.names else None
    records = _prepared(args)[0] if args.trace else None
    rows, report, name_count = pipeline.report(events, names, records)
    write_csv(str(out / "tld_summary.csv"),
              ("tld", "names", "packets", "packet_share", "attacks", "max_response_size"), rows)
    write_json(report, str(out / "report.json"))
    print(f"report over {len(events)} events, {name_count} names")


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
        args.func(args, config, out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
