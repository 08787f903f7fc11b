"""End-to-end walk through the pipeline on a generated scenario.

Three reflection attacks are planted on top of benign background traffic.
Their response sizes deliberately run opposite to their query volumes, so the
two trace-driven name selectors disagree about ordering and the consensus
search has to find the set size at which the selector families converge.
Everything downstream — detection, intensity ranking, clustering, honeypot
comparison — runs from that recovered name list, never from the ground truth.

Each stage returns a `StageResult`; `result["<file>"]` is the value its
`dnsamp` subcommand would write to that file, so the stages chain in memory.
"""

from dnsamp import pipeline
from dnsamp import synth


def main() -> None:
    attacks = (
        synth.AttackSpec(victim_ip="10.1.0.1", qname="alpha.example.",
                         qps=6000.0, start_s=3600.0, duration_s=7200.0,
                         honeypot_visible=True, response_size=2000,
                         dns_id_mode="pure_parity"),
        synth.AttackSpec(victim_ip="10.2.0.1", qname="beta.example.",
                         qps=4000.0, start_s=14400.0, duration_s=7200.0,
                         honeypot_visible=True, response_size=3000),
        synth.AttackSpec(victim_ip="10.3.0.1", qname="gamma.example.",
                         qps=2500.0, start_s=90000.0, duration_s=7200.0,
                         honeypot_visible=True, response_size=4000),
    )
    cfg = synth.ScenarioConfig(
        seed=11, duration_days=2, attacks=attacks, background_clients=6,
        background_daily_rate=(200000.0, 400000.0), background_names=10,
        amplifier_pool_size=60, sensor_count=3)

    # the stage defaults, with small clusters allowed for three attacks
    settings = pipeline.Settings(min_pts=2)

    print("=== 1. generate a sampled two-day trace ===")
    scenario = pipeline.synth(cfg)
    records = scenario["trace.jsonl"]
    hp_requests = scenario["honeypot.csv"]
    truth = scenario["ground_truth.json"]
    print(f"{len(records)} sampled packet records "
          f"({truth.totals['attack_records']} attack, "
          f"{truth.totals['background_records']} background), "
          f"{len(hp_requests)} honeypot request lines")

    print()
    print("=== 2. merge three independent name selectors ===")
    names = pipeline.select_names(records, settings, hp_requests)["names.json"]
    curve = ", ".join(f"k={k}:{v:.2f}" for k, v in names.curve[:5])
    print(f"agreement curve {curve}")
    print(f"consensus k* = {names.k_star}; misused names: {', '.join(names.names)}")

    print()
    print("=== 3. detect attack events per victim and day ===")
    events = pipeline.detect(records, names.name_set(), settings)["attacks.jsonl"]
    for event in events:
        print(f"  {event.day} victim {event.victim_ip:<10} "
              f"{event.packet_count:>5} sampled -> "
              f"~{event.est_original_packets:>9,} original packets, "
              f"misused share {event.share:.3f}, "
              f"intensity decile {event.intensity_decile}")

    print()
    print("=== 4. cluster events by amplifier-set similarity ===")
    clusters = pipeline.cluster(events, settings)["clusters.json"]
    labels = [row["label"] for row in clusters["labels"]]
    print(f"{clusters['n_clusters']} cluster(s), labels {labels} "
          f"(attacks drawing from one shared reflector pool look alike)")

    print()
    print("=== 5. compare against the honeypot view ===")
    compared = pipeline.compare(events, hp_requests, settings)
    hp_events, overlap = compared["honeypot_events.jsonl"], compared["overlap.json"]
    print(f"honeypot saw {len(hp_events)} events; "
          f"{overlap['mutual_count']} matched trace events "
          f"({overlap['trace_matched_fraction']:.0%} of the trace side)")
    for pair in overlap["pairs"]:
        print(f"  trace {pair['victim_ip']} {pair['day']} "
              f"<-> honeypot window {pair['honeypot_start']:.0f}..."
              f"{pair['honeypot_end']:.0f}")

    print()
    print("=== 6. reconcile with ground truth (demo only) ===")
    expected = set(truth.expected_detections())
    detected = {(e.victim_ip, e.day) for e in events}
    print(f"planted detectable attacks: {len(expected)}, "
          f"recovered: {len(expected & detected)} — "
          f"{'full recall' if expected <= detected else 'MISSED SOME'}")


if __name__ == "__main__":
    main()
