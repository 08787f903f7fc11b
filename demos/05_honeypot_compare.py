"""What does a reflector honeypot see, and does it agree with the backbone?

Part one exercises the segmentation rules on a hand-built request log:
gaps exactly at the limit hold a segment together, anything longer splits
it, runts are dropped, and two sensors watching the same victim merge.
Part two runs both vantage points over one synthetic scenario and matches
their event lists victim by victim.
"""

from dnsamp import detector as det
from dnsamp import honeypot as hp
from dnsamp import synth
from dnsamp.pipeline import PRESETS


def burst(start: float, n: int, sensor: str, victim: str,
          spacing: float = 1.0) -> list[hp.HoneypotRequest]:
    return [hp.HoneypotRequest(ts=start + i * spacing, sensor_id=sensor,
                               victim_ip=victim, qname="big.example.", qtype=255)
            for i in range(n)]


def main() -> None:
    print("=== part 1: segmentation on a hand-built log ===")
    log: list[hp.HoneypotRequest] = []
    # victim A: two bursts exactly 900 s apart -> one event (gap holds)
    log += burst(0.0, 10, "hp-a", "203.0.113.1")
    log += burst(9.0 + 900.0, 10, "hp-a", "203.0.113.1")
    # victim B: two bursts 900.5 s apart -> gap splits into two events
    log += burst(50_000.0, 10, "hp-a", "203.0.113.2")
    log += burst(50_009.0 + 900.5, 10, "hp-a", "203.0.113.2")
    # victim C: four requests -> runt, discarded entirely
    log += burst(90_000.0, 4, "hp-a", "203.0.113.3")
    # victim D: overlapping windows on two sensors -> merged, both credited
    log += burst(120_000.0, 12, "hp-a", "203.0.113.4")
    log += burst(120_006.0, 12, "hp-b", "203.0.113.4")

    events = hp.infer_honeypot_attacks(log)   # defaults: 5 requests, 900 s
    for ev in events:
        print(f"  {ev.victim_ip} at t={ev.start:>9.1f}: {ev.request_count} "
              f"requests over {ev.duration_s:.1f} s via "
              f"{','.join(ev.sensor_ids)}")
    per_victim = {v: sum(1 for e in events if e.victim_ip == v)
                  for v in ("203.0.113.1", "203.0.113.2",
                            "203.0.113.3", "203.0.113.4")}
    print(f"events per victim: {per_victim}   (expected 1 / 2 / 0 / 1)")

    print()
    print("=== sensitivity presets on one campaign log ===")
    campaign: list[hp.HoneypotRequest] = []
    for i in range(6):                       # 6 bursts, 1500-s gaps
        campaign += burst(i * (19.0 + 1500.0), 20, "hp-a", "203.0.113.9")
    for preset, (min_req, max_gap) in sorted(PRESETS.items()):
        found = hp.infer_honeypot_attacks(campaign, min_requests=min_req,
                                          max_gap_s=max_gap)
        print(f"  {preset:<7} (>= {min_req:>3} requests, gap {max_gap:>6.0f} s)"
              f" -> {len(found)} event(s)")
    print("amppot's wide gap tolerance fuses the bursts into one campaign; "
          "ccc's tight gap limit reports each burst on its own")

    print()
    print("=== part 2: honeypot vs. backbone on one scenario ===")
    specs = tuple(
        synth.AttackSpec(victim_ip=f"10.{i + 1}.0.1", qname=f"n{i}.example.",
                         qps=2000.0 + 400.0 * i, start_s=5000.0 + 13_000.0 * i,
                         duration_s=2400.0, honeypot_visible=True)
        for i in range(6)
    )
    cfg = synth.ScenarioConfig(seed=89, duration_days=1, attacks=specs,
                               background_clients=3, sensor_count=4,
                               sensor_coverage=(0.8, 0.75))
    records, hp_requests, truth = synth.generate_scenario(cfg)

    stats = det.aggregate_client_days(records, set(truth.misused_names))
    trace_events = det.intensity_deciles(
        det.detect_attacks(stats, det.DetectorConfig()))
    hp_events = hp.score_honeypot_deciles(hp.infer_honeypot_attacks(hp_requests))
    print(f"backbone sees {len(trace_events)} events, "
          f"honeypots see {len(hp_events)}")

    report = hp.overlap(trace_events, hp_events)
    print(f"mutual pairs: {report.mutual_count}  "
          f"(trace matched {report.trace_matched_fraction:.0%}, "
          f"honeypot matched {report.honeypot_matched_fraction:.0%})")
    comparison = hp.intensity_comparison(trace_events, hp_events, report)
    print(f"mean intensity decile: trace {comparison.trace_mean:.1f} vs "
          f"honeypot {comparison.honeypot_mean:.1f}")

    print()
    print("=== sensor convergence ===")
    for rank, fraction in hp.convergence_curve(hp_events):
        print(f"  top {rank} sensor(s): {fraction:.0%} of victims covered")


if __name__ == "__main__":
    main()
