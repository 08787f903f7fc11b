"""Honeypot event inference and trace/honeypot cross-validation."""

import random

import pytest

from dnsamp import detector as det
from dnsamp import honeypot as hp
from dnsamp.pipeline import PRESETS
from oracles import max_bipartite_matching


def req(ts, victim="10.0.0.1", sensor="s1", qname="evil.example."):
    return hp.HoneypotRequest(ts=ts, sensor_id=sensor, victim_ip=victim,
                              qname=qname, qtype=255)


def trace_event(victim, first_ts, last_ts, day="2019-06-01", packets=20,
                decile=None):
    return det.AttackEvent(
        victim_ip=victim, day=day, packet_count=packets,
        misused_packet_count=packets, est_original_packets=packets * 16000,
        est_misused_packets=packets * 16000, share=1.0,
        share_excluding_root=1.0, first_ts=first_ts, last_ts=last_ts,
        request_count=packets, response_count=0,
        qname_counts={"evil.example.": packets}, amplifier_set=(),
        dns_ids=((first_ts, 2), (last_ts, 4)), req_ip_ids=(),
        req_src_ports=(), req_dns_ids=(), ingress_as_counts={},
        victim_as=None, intensity_decile=decile)


class TestSegmentation:
    def test_gap_of_exactly_900_does_not_split(self):
        requests = [req(0.0), req(900.0), req(1800.0), req(2700.0), req(3600.0)]
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 1
        assert events[0].request_count == 5
        assert events[0].start == 0.0
        assert events[0].end == 3600.0

    def test_gap_of_901_splits(self):
        requests = ([req(float(i)) for i in range(5)] +
                    [req(905.0 + i) for i in range(5)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 2

    def test_four_requests_make_no_event(self):
        requests = [req(float(i)) for i in range(4)]
        assert hp.infer_honeypot_attacks(requests) == []
        assert len(hp.infer_honeypot_attacks(requests, min_requests=4)) == 1

    def test_short_fragment_after_split_discarded(self):
        requests = ([req(float(i)) for i in range(5)] +
                    [req(2000.0), req(2001.0)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 1
        assert events[0].request_count == 5

    def test_per_victim_separation(self):
        requests = ([req(float(i), victim="10.0.0.1") for i in range(5)] +
                    [req(float(i) + 0.5, victim="10.0.0.2") for i in range(5)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 2
        assert {e.victim_ip for e in events} == {"10.0.0.1", "10.0.0.2"}

    def test_cross_sensor_merge(self):
        requests = ([req(float(i) * 100, sensor="s1") for i in range(5)] +
                    [req(float(i) * 100 + 350, sensor="s2") for i in range(5)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 1
        assert events[0].sensor_ids == ("s1", "s2")
        assert events[0].request_count == 10

    def test_touching_segments_merge(self):
        requests = ([req(float(i), sensor="s1") for i in range(5)] +
                    [req(4.0 + i * 10, sensor="s2") for i in range(5)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 1

    def test_disjoint_sensor_segments_stay_separate(self):
        requests = ([req(float(i), sensor="s1") for i in range(5)] +
                    [req(5000.0 + i, sensor="s2") for i in range(5)])
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 2

    def test_presets(self):
        assert PRESETS["ccc"] == (5, 900.0)
        assert PRESETS["amppot"] == (100, 3600.0)

    def test_unsorted_input_handled(self):
        requests = [req(4.0), req(0.0), req(2.0), req(1.0), req(3.0)]
        events = hp.infer_honeypot_attacks(requests)
        assert len(events) == 1
        assert events[0].start == 0.0 and events[0].end == 4.0


class TestDeciles:
    def test_scored_in_place_by_request_count(self):
        events = hp.infer_honeypot_attacks(
            [req(float(i)) for i in range(50)] +
            [req(float(i) * 2, victim="10.0.0.2") for i in range(5)])
        hp.score_honeypot_deciles(events)
        big = next(e for e in events if e.victim_ip == "10.0.0.1")
        small = next(e for e in events if e.victim_ip == "10.0.0.2")
        assert big.intensity_decile == 10
        assert small.intensity_decile == 5


class TestOverlap:
    def test_same_victim_intersection_matches(self):
        traces = [trace_event("10.0.0.1", 1000.0, 2000.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=1500.0, end=2500.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        assert report.mutual_count == 1
        assert report.pairs == ((0, 0),)
        assert report.trace_matched_fraction == 1.0

    def test_slack_widens_both_sides(self):
        traces = [trace_event("10.0.0.1", 1000.0, 2000.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=2200.0, end=2500.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None)]
        assert hp.overlap(traces, hps, slack_s=0.0).mutual_count == 0
        assert hp.overlap(traces, hps, slack_s=300.0).mutual_count == 1

    def test_different_victims_never_match(self):
        traces = [trace_event("10.0.0.1", 1000.0, 2000.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.2", start=1000.0, end=2000.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None)]
        assert hp.overlap(traces, hps, slack_s=300.0).mutual_count == 0

    def test_each_side_matched_at_most_once(self):
        traces = [trace_event("10.0.0.1", 0.0, 10000.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=float(i * 1000),
                                end=float(i * 1000 + 500), request_count=10,
                                sensor_ids=("s1",), intensity_decile=None)
               for i in range(3)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        assert report.mutual_count == 1

    def test_partner_choice_prefers_earliest_end(self):
        traces = [trace_event("10.0.0.1", 0.0, 10000.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=100.0, end=9000.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None),
               hp.HoneypotEvent(victim_ip="10.0.0.1", start=200.0, end=800.0,
                                request_count=10, sensor_ids=("s2",),
                                intensity_decile=None)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        assert report.pairs == ((0, 1),)

    def test_greedy_never_beats_maximum_matching(self):
        rng = random.Random(19)
        for _ in range(100):
            traces = []
            hps = []
            for i in range(rng.randint(1, 12)):
                start = rng.uniform(0, 5000)
                traces.append(trace_event("10.0.0.1", start,
                                          start + rng.uniform(10, 3000)))
            for j in range(rng.randint(1, 12)):
                start = rng.uniform(0, 5000)
                hps.append(hp.HoneypotEvent(
                    victim_ip="10.0.0.1", start=start,
                    end=start + rng.uniform(10, 3000), request_count=5,
                    sensor_ids=("s1",), intensity_decile=None))
            report = hp.overlap(traces, hps, slack_s=0.0)
            edges = []
            for i, t in enumerate(traces):
                for j, h in enumerate(hps):
                    if t.first_ts <= h.end and h.start <= t.last_ts:
                        edges.append((i, j))
            best = max_bipartite_matching(edges, len(traces))
            assert report.mutual_count <= best
            # every reported pair must be a real edge
            assert all((i, j) in edges for i, j in report.pairs)

    def test_fractions(self):
        traces = [trace_event("10.0.0.1", 0.0, 100.0),
                  trace_event("10.0.0.2", 0.0, 100.0, day="2019-06-01")]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=50.0, end=150.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        assert report.trace_matched_fraction == pytest.approx(0.5)
        assert report.honeypot_matched_fraction == pytest.approx(1.0)


class TestIntensity:
    def test_comparison_over_mutual_pairs(self):
        traces = [trace_event("10.0.0.1", 0.0, 100.0, decile=8)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=0.0, end=100.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=3)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        comparison = hp.intensity_comparison(traces, hps, report)
        assert comparison.trace_decile_counts[8] == 1
        assert sum(comparison.trace_decile_counts.values()) == 1
        assert set(comparison.trace_decile_counts) == set(range(1, 11))
        assert comparison.honeypot_decile_counts[3] == 1
        assert comparison.trace_mean == pytest.approx(8.0)
        assert comparison.honeypot_mean == pytest.approx(3.0)

    def test_unscored_events_raise(self):
        traces = [trace_event("10.0.0.1", 0.0, 100.0)]
        hps = [hp.HoneypotEvent(victim_ip="10.0.0.1", start=0.0, end=100.0,
                                request_count=10, sensor_ids=("s1",),
                                intensity_decile=None)]
        report = hp.overlap(traces, hps, slack_s=0.0)
        with pytest.raises(ValueError):
            hp.intensity_comparison(traces, hps, report)

    def test_no_pairs_raise(self):
        report = hp.overlap([], [], slack_s=0.0)
        with pytest.raises(ValueError):
            hp.intensity_comparison([], [], report)


class TestConvergence:
    def test_curve_reaches_one_and_is_monotone(self):
        events = []
        for i, sensors in enumerate((("s1",), ("s1", "s2"), ("s3",))):
            events.append(hp.HoneypotEvent(
                victim_ip=f"10.0.0.{i + 1}", start=float(i * 5000),
                end=float(i * 5000 + 100), request_count=10,
                sensor_ids=sensors, intensity_decile=None))
        curve = hp.convergence_curve(events)
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        assert curve[0][0] == 1

    def test_sensor_order_by_coverage(self):
        # s2 covers two victims, s1 one; s2 must come first
        events = [
            hp.HoneypotEvent(victim_ip="10.0.0.1", start=0.0, end=10.0,
                             request_count=5, sensor_ids=("s1", "s2"),
                             intensity_decile=None),
            hp.HoneypotEvent(victim_ip="10.0.0.2", start=100.0, end=110.0,
                             request_count=5, sensor_ids=("s2",),
                             intensity_decile=None),
        ]
        curve = hp.convergence_curve(events)
        assert curve[0][1] == pytest.approx(1.0)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        requests = [req(float(i), sensor=f"s{i % 3}") for i in range(10)]
        path = tmp_path / "honeypot.csv"
        hp.write_honeypot_csv(requests, str(path))
        reread, malformed = hp.read_honeypot_csv(str(path))
        assert malformed == 0
        assert reread == sorted(requests, key=lambda r: (r.ts, r.sensor_id))
        again = tmp_path / "again.csv"
        hp.write_honeypot_csv(reread, str(again))
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("qname", ["a,b.example.", '"hi".example.'])
    def test_csv_round_trip_quotes_fields(self, tmp_path, qname):
        requests = [req(1.0, qname=qname), req(2.0)]
        path = tmp_path / "honeypot.csv"
        hp.write_honeypot_csv(requests, str(path))
        assert hp.read_honeypot_csv(str(path)) == (requests, 0)

    def test_csv_counts_malformed(self, tmp_path):
        path = tmp_path / "honeypot.csv"
        path.write_text("ts,sensor_id,victim_ip,qname,qtype\n"
                        "1.0,s1,10.0.0.1,evil.example.,255\n"
                        "bad,s1,10.0.0.1,evil.example.,255\n"
                        "nan,s1,10.0.0.1,evil.example.,255\n"
                        "inf,s1,10.0.0.1,evil.example.,255\n"
                        "-inf,s1,10.0.0.1,evil.example.,255\n")
        reread, malformed = hp.read_honeypot_csv(str(path))
        assert len(reread) == 1 and malformed == 4

    def test_csv_numbers_take_the_ascii_decimal_grammar(self, tmp_path):
        # float() and int() would read every number of the first four rows
        path = tmp_path / "honeypot.csv"
        path.write_text("ts,sensor_id,victim_ip,qname,qtype\n"
                        "1_000.5,s1,10.0.0.1,a.example.,2_55\n"
                        "1000.5,s1,10.0.0.1,a.example.,+255\n"
                        "\u0661\u0660\u0660\u0660,s1,10.0.0.1,a.example.,255\n"
                        "1000.5,s1,10.0.0.1,a.example.,\u0662\u0665\u0665\n"
                        " 1e3 ,s1,10.0.0.1,a.example., 255 \n"
                        "-.5,s1,10.0.0.1,a.example.,255\n"
                        "+7.,s1,10.0.0.1,a.example.,1\n", encoding="utf-8")
        reread, malformed = hp.read_honeypot_csv(str(path))
        assert malformed == 4
        assert [(r.ts, r.qtype) for r in reread] == [(1000.0, 255), (-0.5, 255), (7.0, 1)]

    def test_csv_reader_shares_repeated_strings(self, tmp_path):
        path = tmp_path / "honeypot.csv"
        path.write_text("ts,sensor_id,victim_ip,qname,qtype\n"
                        "1.0,sensor-1,10.0.0.1,evil.example.,255\n"
                        "2.0,sensor-1,10.0.0.1,evil.example.,255\n")
        (first, second), malformed = hp.read_honeypot_csv(str(path))
        assert malformed == 0
        assert first.sensor_id is second.sensor_id
        assert first.victim_ip is second.victim_ip
        assert first.qname is second.qname
