"""Deterministic scenario generation and its ground truth."""

import dataclasses
import hashlib
import ipaddress
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dnsamp import detector as det
from dnsamp import honeypot as hp
from dnsamp import pipeline
from dnsamp import selectors as sel
from dnsamp import synth
from dnsamp import trace as tr

SCENARIO_PATH = Path(__file__).parent / "data" / "scenario_small.json"


def scenario(seed=5, retention=1.0, attacks=None, **overrides):
    if attacks is None:
        attacks = [
            synth.AttackSpec(victim_ip="10.1.0.1", qname="alpha.example.",
                             qps=4000.0, start_s=3600.0, duration_s=7200.0,
                             honeypot_visible=True, response_size=3000),
            synth.AttackSpec(victim_ip="10.2.0.1", qname="beta.example.",
                             qps=2000.0, start_s=90000.0, duration_s=7200.0,
                             honeypot_visible=True, response_size=4000,
                             dns_id_mode="pure_parity"),
        ]
    kwargs = dict(seed=seed, duration_days=3, attacks=attacks,
                  background_clients=5, background_daily_rate=(20000, 40000),
                  amplifier_pool_size=80, sensor_count=4,
                  churn_retention=retention)
    kwargs.update(overrides)
    return synth.ScenarioConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_output(self):
        a_records, a_reqs, a_truth = synth.generate_scenario(scenario())
        b_records, b_reqs, b_truth = synth.generate_scenario(scenario())
        assert a_records == b_records
        assert a_reqs == b_reqs
        assert synth.truth_to_obj(a_truth) == synth.truth_to_obj(b_truth)

    def test_different_seed_different_output(self):
        a_records, _, _ = synth.generate_scenario(scenario(seed=5))
        b_records, _, _ = synth.generate_scenario(scenario(seed=6))
        assert a_records != b_records

    def test_records_sorted(self):
        records, _, _ = synth.generate_scenario(scenario())
        keys = [(r.ts, r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.dns_id)
                for r in records]
        assert keys == sorted(keys)

    def test_written_files_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            records, reqs, truth = synth.generate_scenario(scenario())
            tr.write_trace(records, str(tmp_path / f"{name}.jsonl"))
            hp.write_honeypot_csv(reqs, str(tmp_path / f"{name}.csv"))
            synth.write_truth(truth, str(tmp_path / f"{name}.json"))
        for ext in (".jsonl", ".csv", ".json"):
            assert (tmp_path / f"a{ext}").read_bytes() == \
                (tmp_path / f"b{ext}").read_bytes()

    # SHA-256 of each file pipeline.synth writes, recorded when every field
    # was drawn by its own numpy call; the batched draws must keep every byte.
    PINNED = {
        "small": {
            "trace.jsonl": "a1ee60fb26e935fff60ce7732bfae8d78f7aed607b003852101817d55df6e0cc",
            "honeypot.csv": "7da3eaf28c6f656aaad3205c4ef9d634b77fd72054f6b88c9c75bedd786c621f",
            "ground_truth.json":
                "3d43be2b3a2549e56ae6c785288867fea0b60663d67b912424f2673f27d7f134",
            "prefixes.csv": "159a231cbcdca8403a2769dd406882e93fc49f1218579a1b3c3df561d56561f8",
        },
        "mixed": {
            "trace.jsonl": "9f2c1a06c4a06d73b2eddacbf7525fe0907b0ba1b772d7a80e1e4c42d16b571e",
            "honeypot.csv": "79b1c5d301e2cc7621b018e60fcf7021fd313166317de9b51b59cd7783c1567b",
            "ground_truth.json":
                "1d52708dce32919c45084313e897add8e4048ed4d17b000b8dd2c17af3fb1bf5",
            "prefixes.csv": "5d9621f09aaea2925a5bb0037d501b992c3d6ff6531153ab9361e7daf8d4ed28",
        },
    }

    @staticmethod
    def mixed_scenario():
        """Many background client-days of 1-3 sampled packets, benign victim
        packets, every DNS-ID mode (with and without an ID pool), every
        amplifier mode, a fixed TTL and partial churn and sensor coverage."""
        spec = synth.AttackSpec
        attacks = (
            spec(victim_ip="10.1.0.1", qname="alpha.example.", qps=3000.0, start_s=3600.0,
                 duration_s=7200.0, honeypot_visible=True, benign_packets_per_day=3,
                 dns_id_pool=40),
            spec(victim_ip="10.2.0.1", qname="beta.example.", qps=2000.0, start_s=80000.0,
                 duration_s=14400.0, dns_id_mode="pure_parity", benign_packets_per_day=2,
                 amplifier_mode="static", amplifier_group="g1", amplifiers_per_attack=12,
                 ip_ttl=52, entity="booter"),
            spec(victim_ip="10.3.0.1", qname="gamma.example.", qps=2500.0, start_s=100000.0,
                 duration_s=5400.0, dns_id_mode="phased", honeypot_visible=True,
                 amplifier_mode="drift", amplifier_group="g2", amplifiers_per_attack=10,
                 drift_per_event=2, honeypot_requests_per_sensor=9, entity="booter"),
            spec(victim_ip="10.3.0.1", qname="gamma.example.", qps=2500.0, start_s=120000.0,
                 duration_s=3600.0, dns_id_mode="phased", dns_id_pool=6,
                 amplifier_mode="drift", amplifier_group="g2", amplifiers_per_attack=10,
                 drift_per_event=2),
            spec(victim_ip="10.4.0.1", qname="delta.example.", qps=1500.0, start_s=150000.0,
                 duration_s=36000.0, dns_id_mode="alternating_48h", request_fraction=0.2,
                 honeypot_visible=True, amplifier_mode="static", amplifier_group="g1",
                 amplifiers_per_attack=12),
            spec(victim_ip="10.5.0.1", qname="epsilon.example.", qps=800.0, start_s=40000.0,
                 duration_s=600.0, dns_id_mode="pure_parity", dns_id_pool=3),
        )
        return synth.ScenarioConfig(
            seed=2024, duration_days=3, attacks=attacks, background_clients=400,
            background_daily_rate=(16000.0, 48000.0), background_names=30,
            background_any_fraction=0.3, amplifier_pool_size=90, churn_retention=0.8,
            sensor_count=5, honeypot_requests_per_sensor=7, sensor_coverage=(0.9, 0.8))

    @pytest.mark.parametrize("name", ["small", "mixed"])
    def test_written_files_match_pinned_digests(self, tmp_path, name):
        cfg = (synth.read_scenario(str(SCENARIO_PATH)) if name == "small"
               else self.mixed_scenario())
        result = pipeline.synth(cfg)
        digests = {}
        for file_name, (writer, value) in result.files.items():
            writer(value, str(tmp_path / file_name))
            digests[file_name] = hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        assert digests == self.PINNED[name]


class TestGroundTruth:
    def test_victim_day_counts_match_materialized_records(self):
        records, _, truth = synth.generate_scenario(scenario())
        victims = {spec.victim_ip for spec in scenario().attacks}
        recount: dict[tuple[str, str], list[int]] = {}
        for record in records:
            if record.client_ip in victims:
                entry = recount.setdefault((record.client_ip, record.day), [0, 0])
                entry[0] += 1
                if record.qname in ("alpha.example.", "beta.example."):
                    entry[1] += 1
        assert {k: tuple(v) for k, v in recount.items()} == truth.victim_day_counts

    def test_expected_detections_found_by_detector(self):
        records, _, truth = synth.generate_scenario(scenario())
        names = {"alpha.example.", "beta.example."}
        stats = det.aggregate_client_days(records, names)
        events = det.detect_attacks(stats)
        got = sorted((e.victim_ip, e.day) for e in events)
        assert got == sorted(truth.expected_detections())

    def test_truth_round_trip(self, tmp_path):
        _, _, truth = synth.generate_scenario(scenario())
        path = tmp_path / "truth.json"
        synth.write_truth(truth, str(path))
        reread = synth.read_truth(str(path))
        assert synth.truth_to_obj(reread) == synth.truth_to_obj(truth)

    @pytest.mark.parametrize("key, value", [
        ("victim_day_counts", 5),
        ("victim_day_counts", [{"victim_ip": "192.0.2.1", "day": "2019-06-01",
                                "total": "3", "misused": 0}]),
        ("daily_amplifier_pools", []),
        ("entities", {"e": [1]}),
        ("misused_names", "a.example."),
        ("totals", {"records": 1.5}),
    ])
    def test_malformed_truth_names_its_key(self, tmp_path, key, value):
        _, _, truth = synth.generate_scenario(scenario())
        obj = synth.truth_to_obj(truth)
        obj[key] = value
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"truth.json: key '{key}'"):
            synth.read_truth(str(path))

    def test_attack_window_covers_misused_packets(self):
        records, _, truth = synth.generate_scenario(scenario())
        for attack in truth.attacks:
            span = [r.ts for r in records
                    if r.client_ip == attack.victim_ip
                    and r.qname == attack.qname]
            assert min(span) >= attack.start_ts
            assert max(span) <= attack.end_ts

    def test_honeypot_truth_matches_inference(self):
        _, reqs, truth = synth.generate_scenario(scenario())
        inferred = hp.infer_honeypot_attacks(reqs)
        assert inferred == list(truth.honeypot_events)

    def test_invisible_attacks_emit_no_honeypot_traffic(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1",
                                    qname="alpha.example.", qps=3000.0,
                                    start_s=3600.0, duration_s=7200.0,
                                    honeypot_visible=False)]
        _, reqs, truth = synth.generate_scenario(scenario(attacks=attacks))
        assert reqs == []
        assert truth.honeypot_events == []


class TestSampling:
    def test_binomial_count_within_three_sigma(self):
        # 160M original packets at 1:16000 gives mean 10000, sigma ~100
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1",
                                    qname="alpha.example.", qps=20000.0,
                                    start_s=3600.0, duration_s=8000.0)]
        records, _, truth = synth.generate_scenario(
            scenario(attacks=attacks, background_clients=0))
        n = sum(1 for r in records if r.client_ip == "10.1.0.1")
        mean = 20000.0 * 8000.0 / 16000
        sigma = math.sqrt(mean * (1 - 1 / 16000))
        assert abs(n - mean) < 3.5 * sigma

    def test_request_fraction_split(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1",
                                    qname="alpha.example.", qps=20000.0,
                                    start_s=3600.0, duration_s=8000.0,
                                    request_fraction=0.25)]
        records, _, _ = synth.generate_scenario(
            scenario(attacks=attacks, background_clients=0))
        requests = sum(1 for r in records if not r.is_response)
        total = len(records)
        sigma = math.sqrt(total * 0.25 * 0.75)
        assert abs(requests - total * 0.25) < 4 * sigma


class TestBackground:
    def test_name_frequencies_roughly_uniform(self):
        # chi-square against uniform over the configured name universe
        cfg = scenario(attacks=[synth.AttackSpec(
            victim_ip="10.1.0.1", qname="alpha.example.", qps=100.0,
            start_s=3600.0, duration_s=600.0)],
            background_clients=40,
            background_daily_rate=(300000, 300000), background_names=20)
        records, _, _ = synth.generate_scenario(cfg)
        counts = {}
        for record in records:
            if record.qname.startswith("bg"):
                counts[record.qname] = counts.get(record.qname, 0) + 1
        total = sum(counts.values())
        assert total > 1000
        expected = total / 20
        chi2 = sum((counts.get(f"bg{i:03d}.example.", 0) - expected) ** 2
                   / expected for i in range(20))
        # 19 degrees of freedom: p=0.001 critical value is 43.82
        assert chi2 < 43.82

    def test_any_fraction_controls_qtype_mix(self):
        cfg = scenario(attacks=[synth.AttackSpec(
            victim_ip="10.1.0.1", qname="alpha.example.", qps=100.0,
            start_s=3600.0, duration_s=600.0)],
            background_clients=40,
            background_daily_rate=(200000, 200000),
            background_any_fraction=0.5)
        records, _, _ = synth.generate_scenario(cfg)
        background = [r for r in records if r.qname.startswith("bg")
                      and not r.is_response]
        any_count = sum(1 for r in background if r.qtype == 255)
        share = any_count / len(background)
        assert abs(share - 0.5) < 0.1

    def test_background_never_uses_attack_names(self):
        records, _, truth = synth.generate_scenario(scenario())
        attack_names = set(truth.misused_names)
        victims = {a.victim_ip for a in scenario().attacks}
        for record in records:
            if record.client_ip not in victims:
                assert record.qname not in attack_names


class TestAmplifierPlan:
    def test_full_retention_keeps_pool_fixed(self):
        _, _, truth = synth.generate_scenario(scenario(retention=1.0))
        pools = [frozenset(p) for _, p in sorted(truth.daily_amplifier_pools.items())]
        assert all(p == pools[0] for p in pools)

    def test_partial_retention_churns_but_keeps_size(self):
        _, _, truth = synth.generate_scenario(
            scenario(retention=0.5, duration_days=4))
        days = sorted(truth.daily_amplifier_pools)
        pools = [set(truth.daily_amplifier_pools[d]) for d in days]
        assert all(len(p) == 80 for p in pools)
        overlaps = [len(a & b) / len(a) for a, b in zip(pools, pools[1:])]
        mean = sum(overlaps) / len(overlaps)
        assert 0.3 < mean < 0.7

    def test_event_amplifiers_drawn_from_daily_pool(self):
        records, _, truth = synth.generate_scenario(scenario(retention=0.7))
        pools = {day: set(pool)
                 for day, pool in truth.daily_amplifier_pools.items()}
        for record in records:
            if record.qname in truth.misused_names:
                server = record.server_ip
                assert server in pools[record.day]

    def test_static_group_mode_reuses_exact_set(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1",
                                    qname="alpha.example.", qps=3000.0,
                                    start_s=3600.0 + 86400.0 * i,
                                    duration_s=3600.0,
                                    amplifiers_per_attack=10,
                                    amplifier_mode="static",
                                    amplifier_group="g1")
                   for i in range(3)]
        records, _, truth = synth.generate_scenario(
            scenario(attacks=attacks, duration_days=3, background_clients=0))
        daily_sets = {}
        for record in records:
            daily_sets.setdefault(record.day, set()).add(record.server_ip)
        sets = list(daily_sets.values())
        assert all(s == sets[0] for s in sets)
        assert len(sets[0]) == 10

    def test_drift_mode_changes_members_slowly(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1",
                                    qname="alpha.example.", qps=3000.0,
                                    start_s=3600.0 + 86400.0 * i,
                                    duration_s=3600.0,
                                    amplifiers_per_attack=10,
                                    amplifier_mode="drift",
                                    amplifier_group="g1",
                                    drift_per_event=2)
                   for i in range(3)]
        records, _, _ = synth.generate_scenario(
            scenario(attacks=attacks, duration_days=3, background_clients=0))
        daily_sets = {}
        for record in records:
            daily_sets.setdefault(record.day, set()).add(record.server_ip)
        days = sorted(daily_sets)
        first, second = daily_sets[days[0]], daily_sets[days[1]]
        assert len(first) == 10
        assert len(first & second) == 8


class TestHoneypotPlacement:
    def test_requests_respect_gap_budget(self):
        _, reqs, _ = synth.generate_scenario(scenario())
        per_victim: dict[str, list[float]] = {}
        for request in reqs:
            per_victim.setdefault(request.victim_ip, []).append(request.ts)
        for stamps in per_victim.values():
            stamps.sort()
            assert len(stamps) >= 5
            gaps = [b - a for a, b in zip(stamps, stamps[1:])]
            assert max(gaps) < 900.0

    def test_sensor_coverage_decay(self):
        cfg = scenario(sensor_coverage=(1.0, 0.5), sensor_count=6)
        _, reqs, _ = synth.generate_scenario(cfg)
        sensors = {r.sensor_id for r in reqs}
        assert "s00" in sensors


class TestConfig:
    def test_rejects_overlapping_visible_attacks_on_one_victim(self):
        attacks = [
            synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                             qps=100.0, start_s=3600.0, duration_s=3600.0,
                             honeypot_visible=True),
            synth.AttackSpec(victim_ip="10.1.0.1", qname="b.example.",
                             qps=100.0, start_s=7500.0, duration_s=3600.0,
                             honeypot_visible=True),
        ]
        with pytest.raises(ValueError):
            scenario(attacks=attacks)

    def test_rejects_attack_outside_window(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                                    qps=100.0, start_s=86400.0 * 2.9,
                                    duration_s=86400.0)]
        with pytest.raises(ValueError):
            scenario(attacks=attacks)

    def test_rejects_pool_overdraw(self):
        attacks = [synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                                    qps=100.0, start_s=3600.0,
                                    duration_s=600.0,
                                    amplifiers_per_attack=500)]
        with pytest.raises(ValueError):
            scenario(attacks=attacks)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                             qps=-1.0, start_s=0.0, duration_s=10.0)
        with pytest.raises(ValueError):
            synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                             qps=1.0, start_s=0.0, duration_s=10.0,
                             dns_id_mode="nonsense")
        with pytest.raises(ValueError):
            synth.AttackSpec(victim_ip="10.1.0.1", qname="a.example.",
                             qps=1.0, start_s=0.0, duration_s=10.0,
                             amplifier_mode="drift")  # needs a group

    def test_scenario_json_round_trip(self, tmp_path):
        cfg = scenario()
        obj = dataclasses.asdict(cfg)
        path = tmp_path / "scenario.json"
        import json
        path.write_text(json.dumps(obj))
        reread = synth.read_scenario(str(path))
        assert json.dumps(dataclasses.asdict(reread)) == json.dumps(obj)
        a = synth.generate_scenario(cfg)
        b = synth.generate_scenario(reread)
        assert a[0] == b[0]

    def test_unknown_keys_rejected(self, tmp_path):
        import json
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "duration_days": 1,
                                    "attacks": [], "bogus": 2}))
        with pytest.raises(ValueError):
            synth.read_scenario(str(path))

    @pytest.mark.parametrize("key, value", [
        ("background_clients", "x"), ("seed", 1.5), ("duration_days", True),
        ("background_any_fraction", False), ("background_daily_rate", [1.0]),
        ("sensor_coverage", "wide"), ("start_day", 20190601),
        ("attacks", [3]), ("entity", 5), ("honeypot_visible", 1), ("dns_id_pool", 2.0),
    ])
    def test_wrong_typed_values_rejected_at_load(self, key, value):
        obj = dataclasses.asdict(scenario())
        target = obj if key in obj else obj["attacks"][0]
        target[key] = value
        with pytest.raises(ValueError, match=key):
            synth.scenario_from_obj(obj)

    def test_non_object_scenario_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            synth.scenario_from_obj([])

    def test_numbers_accepted_where_floats_expected(self):
        obj = dataclasses.asdict(scenario())
        obj["background_any_fraction"] = 0
        obj["attacks"][0]["qps"] = 4000
        assert synth.scenario_from_obj(obj).attacks[0].qps == 4000


class TestPrefixTable:
    def test_covers_all_generated_addresses(self):
        records, _, _ = synth.generate_scenario(scenario())
        table = tr.PrefixTable(synth.synthetic_prefix_table(scenario()))
        for record in records:
            assert table.lookup(record.src_ip) is not None
            assert table.lookup(record.dst_ip) is not None

    def test_victims_get_distinct_ases(self):
        table = dict(synth.synthetic_prefix_table(scenario()))
        assert table["10.1.0.0/16"] != table["10.2.0.0/16"]


class TestAddressRange:
    @pytest.mark.parametrize("base", ["0.0.0.0", "172.16.0.1", "255.255.255.255"])
    def test_matches_ipaddress_to_the_ends_and_raises_past_them(self, base):
        at = synth._ip_range(base)
        start = int(ipaddress.IPv4Address(base))
        for value in (0, 1, 255, 256, 65535, 0x01020304, 0xFF00FF00, start, 2 ** 32 - 1):
            assert at(value - start) == str(ipaddress.IPv4Address(value))
        for index in (-start - 1, 2 ** 32 - start):
            with pytest.raises(ValueError):
                at(index)


class TestSeedDerivation:
    def test_tags_produce_distinct_streams(self):
        a = synth.derive_seed(7, "one")
        b = synth.derive_seed(7, "two")
        c = synth.derive_seed(8, "one")
        assert len({a, b, c}) == 3
        assert synth.derive_seed(7, "one") == a
