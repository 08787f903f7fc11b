"""How stable are the reflector sets behind repeated attacks?

Part one clusters attack events by Jaccard distance between their amplifier
sets: one operator reuses a private, slowly drifting server group while
other attacks draw fresh random samples from the shared open-resolver pool.
Part two measures day-over-day retention of the whole abused population
under different churn regimes.
"""

from dnsamp import amplifiers as amp
from dnsamp import detector as det
from dnsamp import synth


def main() -> None:
    print("=== part 1: clustering by amplifier-set similarity ===")
    specs = []
    for day in range(6):
        base = 86400.0 * day
        # the entity: same 16-server group, drifting two members per event
        specs.append(synth.AttackSpec(
            victim_ip="10.5.0.1", qname="entity.example.", qps=3000.0,
            start_s=base + 3600.0, duration_s=3600.0,
            amplifiers_per_attack=16, amplifier_mode="drift",
            amplifier_group="crew", drift_per_event=2))
        # unrelated one-off attacks: fresh draws from the shared pool
        specs.append(synth.AttackSpec(
            victim_ip=f"10.{20 + day}.0.1", qname=f"rnd{day}.example.",
            qps=3000.0, start_s=base + 40000.0, duration_s=3600.0,
            amplifiers_per_attack=40))
    cfg = synth.ScenarioConfig(seed=33, duration_days=6, attacks=tuple(specs),
                               background_clients=0, amplifier_pool_size=400,
                               sensor_count=1)
    records, _, truth = synth.generate_scenario(cfg)
    stats = det.aggregate_client_days(records, set(truth.misused_names))
    events = det.detect_attacks(stats)
    print(f"{len(events)} attack events detected")

    matrix = amp.jaccard_distance_matrix(amp.amplifier_sets(events))
    result = amp.dbscan_cluster(matrix, eps=0.6, min_pts=3)
    print(f"DBSCAN (eps 0.6, min_pts 3): {result.n_clusters} cluster(s), "
          f"outlier share {result.outlier_share:.2f}")
    for cluster in amp.stable_sets(events, result.labels):
        print(f"  cluster {cluster.cluster_id}: {cluster.n_attacks} attacks "
              f"over {cluster.span_days} days, core of "
              f"{cluster.core_size}/{cluster.n_amplifiers} servers, "
              f"mean drift {cluster.mean_drift:.2f}, "
              f"static: {cluster.static}")
    print("the drifting crew clusters together; pool draws stay noise")

    print()
    print("=== part 2: population retention under churn ===")
    for retention in (1.0, 0.8, 0.45):
        pool_cfg = synth.ScenarioConfig(
            seed=900 + int(retention * 100), duration_days=30, attacks=(),
            background_clients=0, amplifier_pool_size=300,
            churn_retention=retention, sensor_count=1)
        _, _, pool_truth = synth.generate_scenario(pool_cfg)
        daily = {day: set(pool)
                 for day, pool in pool_truth.daily_amplifier_pools.items()}
        report = amp.churn_metrics(daily)
        print(f"  planted retention {retention:.2f} -> measured mean "
              f"day-over-day overlap {report.mean_overlap:.3f}, "
              f"first-vs-last {report.first_last_overlap:.3f}")
    print("low day-over-day retention compounds: after a month almost none "
          "of the original population remains")

    print()
    print("=== involvement distributions (part-1 scenario) ===")
    per_amplifier, per_attack = amp.involvement_distributions(events)
    multi = sum(c for uses, c in per_amplifier.items() if uses > 1)
    print(f"amplifiers reused across attacks: {multi} of "
          f"{sum(per_amplifier.values())}")
    sizes = sorted(per_attack.items())
    print(f"amplifiers per attack: {sizes}")


if __name__ == "__main__":
    main()
