"""Names and units of every metric the benchmark reports."""

from __future__ import annotations

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "detect_recall": "ratio",
    "detect_precision": "ratio",
    "passed_share": "ratio",
}

STAGES = ("ingest", "select-names", "detect", "fingerprint", "cluster", "compare", "report")

# Per-layer metrics computed from one traced pass: name -> (unit, kind, source).
#   "count": a counter; "s": seconds inside spans of that name;
#   "us_per": microseconds inside (span) per unit of (counter);
#   "self": a stage span's duration minus its child spans.
DERIVED = {
    "trace.parse_us_per_rec": ("us/rec", "us_per", ("trace.parse", "trace.records_parsed")),
    "trace.parse_calls": ("count", "count", "trace.parse_calls"),
    "trace.records_parsed": ("count", "count", "trace.records_parsed"),
    "trace.skipped_lines": ("count", "count", "trace.skipped_lines"),
    "trace.sanitize_us_per_rec": ("us/rec", "us_per",
                                  ("trace.sanitize", "trace.sanitize_records")),
    "trace.dropped_records": ("count", "count", "trace.dropped_records"),
    "trace.annotate_us_per_rec": ("us/rec", "us_per",
                                  ("trace.annotate", "trace.annotate_records")),
    "trace.annotate_records": ("count", "count", "trace.annotate_records"),
    "trace.annotate_distinct_ips": ("count", "count", "trace.annotate_distinct_ips"),
    "trace.write_us_per_rec": ("us/rec", "us_per", ("trace.write", "trace.records_written")),
    "trace.records_written": ("count", "count", "trace.records_written"),
    "selectors.max_size_us_per_rec": ("us/rec", "us_per",
                                      ("selectors.max_size", "selectors.records")),
    "selectors.any_volume_us_per_rec": ("us/rec", "us_per",
                                        ("selectors.any_volume", "selectors.records")),
    "selectors.ground_truth_us_per_rec": ("us/rec", "us_per",
                                          ("selectors.ground_truth", "selectors.records")),
    "selectors.records": ("count", "count", "selectors.records"),
    "selectors.consensus_s": ("s", "s", "selectors.consensus"),
    "selectors.names": ("count", "count", "selectors.names"),
    "selectors.k_star": ("count", "count", "selectors.k_star"),
    "detector.aggregate_us_per_rec": ("us/rec", "us_per",
                                      ("detector.aggregate", "detector.aggregate_records")),
    "detector.aggregate_records": ("count", "count", "detector.aggregate_records"),
    "detector.client_days": ("count", "count", "detector.client_days"),
    "detector.detect_s": ("s", "s", "detector.detect"),
    "detector.events": ("count", "count", "detector.events"),
    "detector.write_events_s": ("s", "s", "detector.write_events"),
    "detector.read_events_s": ("s", "s", "detector.read_events"),
    "detector.victim_summary_s": ("s", "s", "detector.victim_summary"),
    "fingerprint.classify_dnsid_s": ("s", "s", "fingerprint.classify_dnsid"),
    "fingerprint.cardinality_s": ("s", "s", "fingerprint.cardinality"),
    "fingerprint.attribute_s": ("s", "s", "fingerprint.attribute"),
    "fingerprint.timeline_s": ("s", "s", "fingerprint.timeline"),
    "fingerprint.ingress_concentration_s": ("s", "s", "fingerprint.ingress_concentration"),
    "amplifiers.jaccard_s": ("s", "s", "amplifiers.jaccard"),
    "amplifiers.jaccard_us_per_pair": ("us/pair", "us_per",
                                       ("amplifiers.jaccard", "amplifiers.pairs")),
    "amplifiers.pairs": ("count", "count", "amplifiers.pairs"),
    "amplifiers.write_matrix_s": ("s", "s", "amplifiers.write_matrix"),
    "amplifiers.matrix_bytes": ("B", "count", "amplifiers.matrix_bytes"),
    "amplifiers.dbscan_s": ("s", "s", "amplifiers.dbscan"),
    "amplifiers.stable_sets_s": ("s", "s", "amplifiers.stable_sets"),
    "amplifiers.churn_s": ("s", "s", "amplifiers.churn"),
    "honeypot.read_csv_s": ("s", "s", "honeypot.read_csv"),
    "honeypot.requests": ("count", "count", "honeypot.requests"),
    "honeypot.infer_s": ("s", "s", "honeypot.infer"),
    "honeypot.events": ("count", "count", "honeypot.events"),
    "honeypot.overlap_s": ("s", "s", "honeypot.overlap"),
    **{f"cli.{stage}.self_s": ("s", "self", f"cli.{stage}") for stage in STAGES},
}

COUNT_METRICS = tuple(name for name, (_, kind, _) in DERIVED.items() if kind == "count")

PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in DERIVED.items()},
    **{f"cli.{stage}.wall_s": "s" for stage in STAGES},
    **{f"cli.{stage}.rss_mb": "MB" for stage in STAGES},
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "bench.tracing_overhead_s": "s",
}
