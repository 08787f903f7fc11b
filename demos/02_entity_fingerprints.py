"""Fingerprinting one attack entity by application-layer structure.

A single operator runs attacks for ten days: always .gov-suffixed names and
DNS IDs whose parity flips every 48 hours. Two decoys share the stage — one
with a different name family, one with a matching name but random IDs. The
fingerprint (name predicate AND parity-pattern class) must attribute exactly
the planted events, and the parity timeline must recover the 48-hour period.
"""

from dnsamp import detector as det
from dnsamp import fingerprint as fp
from dnsamp import synth


def main() -> None:
    specs = []
    for day in range(10):
        base = 86400.0 * day
        specs.append(synth.AttackSpec(
            victim_ip="10.7.0.1", qname="ns1.seal-agency.gov.",
            qps=2000.0, start_s=base + 3600.0, duration_s=7200.0,
            dns_id_mode="alternating_48h", entity="planted"))
        specs.append(synth.AttackSpec(
            victim_ip="10.8.0.1", qname="decoy.example.",
            qps=2000.0, start_s=base + 3600.0, duration_s=7200.0))
        specs.append(synth.AttackSpec(
            victim_ip="10.9.0.1", qname="lookalike.gov.",
            qps=2000.0, start_s=base + 50000.0, duration_s=7200.0))
    cfg = synth.ScenarioConfig(
        seed=77, duration_days=10, attacks=tuple(specs),
        background_clients=4, background_daily_rate=(100000.0, 200000.0),
        amplifier_pool_size=80, sensor_count=1)

    records, _, truth = synth.generate_scenario(cfg)
    stats = det.aggregate_client_days(records, set(truth.misused_names))
    events = det.detect_attacks(stats, det.DetectorConfig())
    print(f"detected {len(events)} events across "
          f"{len({e.victim_ip for e in events})} victims over 10 days")

    print()
    print("=== header-field cardinality (one planted event) ===")
    sample = next(e for e in events if e.victim_ip == "10.7.0.1")
    for field in ("ip_id", "src_port", "dns_id"):
        profile = fp.field_cardinality_profile(sample, field)
        flag = "LOW-ENTROPY" if profile.low_entropy else "looks random"
        print(f"  {field:<9} {profile.unique_count:>4} unique / "
              f"{profile.packet_count:>4} request packets "
              f"(ratio {profile.ratio:.3f}) -> {flag}")

    print()
    print("=== DNS-ID parity classes per victim ===")
    for victim in ("10.7.0.1", "10.8.0.1", "10.9.0.1"):
        kinds = {fp.classify_dnsid_pattern(e.dns_ids).kind
                 for e in events if e.victim_ip == victim}
        print(f"  {victim}: {', '.join(sorted(kinds))}")

    print()
    print("=== attribute via name predicate AND parity class ===")
    fingerprint = fp.EntityFingerprint(name_suffixes=("gov.",),
                                       id_patterns=("pure", "phased"))
    attributed, share, _ = fp.attribute_entity(events, fingerprint)
    print(f"attributed {len(attributed)}/{len(events)} events "
          f"(share {share:.2f})")
    got = {(e.victim_ip, e.day) for e in attributed}
    want = {("10.7.0.1", cfg.day_str(d)) for d in range(10)}
    print(f"matches planted ground truth exactly: {got == want}")
    print("note: lookalike.gov. carries the right name but random IDs — "
          "the parity leg rejects it")

    print()
    print("=== misused-name timeline of the attributed events ===")
    timeline = fp.build_name_timeline(attributed)
    for qname, (first, last) in sorted(timeline.intervals.items()):
        print(f"  {qname}: active {first}..{last}")
    print(f"parity alternation period: {timeline.parity_period_days} days "
          f"(planted: 2)")


if __name__ == "__main__":
    main()
