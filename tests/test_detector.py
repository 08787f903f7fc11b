"""Attack-event detection, intensity scoring, and event serialization."""

import dataclasses
import random

import pytest

from dnsamp import detector as det
from dnsamp import trace as tr
from oracles import decile_reference

MISUSED = {"evil.example.", "bad.example."}


def packet(client="10.0.0.1", ts=10.0, qname="evil.example.", qr=0,
           server="192.0.2.1", dns_id=1, ip_id=1, sport=5353, udp_len=100,
           src_as=None, dst_as=None):
    kwargs = dict(ts=ts, ip_ttl=60, ip_id=ip_id, udp_len=udp_len,
                  dns_id=dns_id, qname=qname, qtype=255, rcode=0,
                  ancount=0, nscount=0, is_response=bool(qr),
                  src_as=src_as, dst_as=dst_as)
    if qr:
        return tr.PacketRecord(src_ip=server, dst_ip=client, src_port=53,
                               dst_port=sport, **kwargs)
    return tr.PacketRecord(src_ip=client, dst_ip=server, src_port=sport,
                           dst_port=53, **kwargs)


def burst(n_misused, n_other, client="10.0.0.1", day_offset=0.0):
    records = []
    for i in range(n_misused):
        records.append(packet(client=client, ts=day_offset + float(i),
                              dns_id=i, ip_id=i, sport=1024 + i))
    for i in range(n_other):
        records.append(packet(client=client, ts=day_offset + 50000.0 + i,
                              qname="benign.example."))
    return records


def by_key(stats):
    return {(s.client_ip, s.day): s for s in stats}


class TestAggregation:
    def test_totals_count_everything_details_only_misused(self):
        records = burst(9, 3)
        stats = det.aggregate_client_days(records, MISUSED)
        assert len(stats) == 1
        stat = by_key(stats)[("10.0.0.1", "1970-01-01")]
        assert stat.total_pkts == 12
        assert stat.misused_pkts == 9
        assert stat.first_ts == 0.0 and stat.last_ts == 8.0
        assert set(stat.qname_counts) == {"evil.example."}

    def test_zero_misused_pairs_dropped(self):
        stats = det.aggregate_client_days(burst(0, 5), MISUSED)
        assert stats == []

    def test_root_counts_only_if_listed(self):
        records = [packet(qname="."), packet(qname="evil.example.")]
        stats = det.aggregate_client_days(records, MISUSED)
        stat = by_key(stats)[("10.0.0.1", "1970-01-01")]
        assert stat.misused_pkts == 1
        assert stat.misused_nonroot_pkts == 1

        stats = det.aggregate_client_days(records, {".", "evil.example."})
        stat = by_key(stats)[("10.0.0.1", "1970-01-01")]
        assert stat.misused_pkts == 2
        assert stat.misused_nonroot_pkts == 1
        assert stat.share_excluding_root == pytest.approx(0.5)

    def test_split_by_utc_day(self):
        records = burst(10, 0) + burst(10, 0, day_offset=86400.0)
        stats = det.aggregate_client_days(records, MISUSED)
        assert set(by_key(stats)) == {("10.0.0.1", "1970-01-01"),
                                      ("10.0.0.1", "1970-01-02")}

    def test_responses_attribute_to_dst_client(self):
        records = [packet(qr=1, client="10.0.0.9")]
        stats = det.aggregate_client_days(records, MISUSED)
        stat = by_key(stats)[("10.0.0.9", "1970-01-01")]
        assert stat.response_count == 1
        assert stat.amplifiers == {"192.0.2.1"}


class TestThresholds:
    def detect(self, records, **cfg):
        stats = det.aggregate_client_days(records, MISUSED)
        return det.detect_attacks(stats, det.DetectorConfig(**cfg))

    def test_both_thresholds_must_hold(self):
        # 9 misused of 9 total: pure but too few packets
        assert self.detect(burst(9, 0)) == []
        # 10 of 12: enough packets but share 0.833
        assert self.detect(burst(10, 2)) == []
        # 9 of 10: share 0.9 exactly, meets >= but count is 10
        events = self.detect(burst(9, 1))
        assert len(events) == 1
        assert events[0].share == pytest.approx(0.9)

    def test_estimates_scale_by_denominator(self):
        events = self.detect(burst(9, 1))
        event = events[0]
        assert event.est_original_packets == 160000
        assert event.est_misused_packets == 144000
        assert isinstance(event.est_misused_packets, int)

    def test_share_threshold_boundary_exact(self):
        events = self.detect(burst(27, 3))  # 27/30 = 0.9
        assert len(events) == 1
        events = self.detect(burst(26, 4))  # share 0.867
        assert events == []

    def test_time_bounds_cover_misused_only(self):
        records = burst(45, 5)  # benign packets sit at ts 50000+
        events = self.detect(records)
        assert events[0].first_ts == 0.0
        assert events[0].last_ts == 44.0
        assert events[0].duration_s == 44.0

    def test_event_monotone_in_misused_count(self):
        # adding misused packets can never turn a detection off
        base = burst(9, 1)
        assert len(self.detect(base)) == 1
        assert len(self.detect(base + burst(5, 0))) == 1

    def test_input_order_invariance(self):
        rng = random.Random(5)
        records = burst(40, 4) + burst(25, 0, client="10.0.0.2")
        expected = self.detect(records)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            got = self.detect(shuffled)
            assert got == expected

    def test_events_sorted_by_day_then_victim(self):
        records = (burst(12, 0, client="10.0.0.2") +
                   burst(12, 0, client="10.0.0.1") +
                   burst(12, 0, client="10.0.0.1", day_offset=86400.0))
        events = self.detect(records)
        keys = [(e.day, e.victim_ip) for e in events]
        assert keys == sorted(keys)

    def test_custom_config(self):
        events = self.detect(burst(5, 0), min_sampled_packets=5,
                             share_threshold=0.5, sampling_denominator=100)
        assert len(events) == 1
        assert events[0].est_original_packets == 500

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            det.DetectorConfig(share_threshold=1.5)
        with pytest.raises(ValueError):
            det.DetectorConfig(min_sampled_packets=0)
        with pytest.raises(ValueError):
            det.DetectorConfig(sampling_denominator=0)


class TestDeciles:
    def test_all_tied_four_events(self):
        assert det.decile_ranks([7, 7, 7, 7]) == [7, 7, 7, 7]

    def test_distinct_values_spread_one_to_ten(self):
        assert det.decile_ranks(list(range(10, 110, 10))) == list(range(1, 11))

    def test_single_event_lands_in_top_decile(self):
        assert det.decile_ranks([42]) == [10]

    def test_matches_rational_reference(self):
        rng = random.Random(23)
        assert det.decile_ranks([]) == decile_reference([]) == []
        for _ in range(200):
            n = rng.randint(1, 40)
            counts = [rng.randint(1, 8) for _ in range(n)]
            assert det.decile_ranks(counts) == decile_reference(counts)

    def test_inplace_scoring(self):
        records = burst(50, 0) + burst(12, 0, client="10.0.0.2")
        stats = det.aggregate_client_days(records, MISUSED)
        events = det.detect_attacks(stats, det.DetectorConfig())
        det.intensity_deciles(events)
        big = next(e for e in events if e.victim_ip == "10.0.0.1")
        small = next(e for e in events if e.victim_ip == "10.0.0.2")
        assert big.intensity_decile == 10
        assert small.intensity_decile == 5


class TestVisibilityCurve:
    def test_share_never_increases(self):
        records = []
        for i, count in enumerate([12, 30, 9, 200, 45]):
            records += burst(count, 0, client=f"10.0.0.{i + 1}")
        stats = det.aggregate_client_days(records, MISUSED)
        curve = det.visibility_curve(stats, 250)
        shares = [share for _, share in curve]
        assert shares == sorted(shares, reverse=True)
        assert shares[0] == 1.0
        assert dict(curve)[200] == pytest.approx(1 / 5)
        assert curve[-1] == (250, 0.0)

    def test_empty_stats(self):
        assert det.visibility_curve([], 10) == []


class TestSummary:
    def test_victim_summary_counts_prefixes(self):
        records = (burst(12, 0, client="10.1.1.1") +
                   burst(12, 0, client="10.1.1.200") +
                   burst(12, 0, client="10.2.0.1") +
                   burst(12, 0, client="172.16.0.1"))
        stats = det.aggregate_client_days(records, MISUSED)
        events = det.detect_attacks(stats, det.DetectorConfig())
        summary = det.victim_summary(events)
        day = summary["daily"][0]
        assert day["victims"] == 4
        assert day["prefixes_24"] == 3
        assert day["prefixes_16"] == 3
        assert day["prefixes_8"] == 2
        percentiles = summary["duration_percentiles"]
        assert set(percentiles) == {"p25", "p50", "p75", "p90"}
        assert percentiles["p50"] == pytest.approx(11.0)

    def test_ipv6_victims_counted_by_48_and_32(self):
        records = [record for client in ("2001:db8:1::1", "2001:db8:1::2", "2001:db8:2::1",
                                         "10.0.0.1")
                   for record in burst(12, 0, client=client)]
        events = det.detect_attacks(det.aggregate_client_days(records, MISUSED),
                                    det.DetectorConfig())
        day = det.victim_summary(events)["daily"][0]
        assert (day["victims"], day["prefixes_24"], day["prefixes_16"],
                day["prefixes_8"]) == (4, 3, 2, 1)

    def test_ipv4_mapped_victims_counted_as_ipv4(self):
        records = [record for client in ("::ffff:10.1.1.1", "::ffff:172.16.0.1")
                   for record in burst(12, 0, client=client)]
        records, dropped = tr.sanitize(records)
        assert dropped == 0
        events = det.detect_attacks(det.aggregate_client_days(records, MISUSED),
                                    det.DetectorConfig())
        day = det.victim_summary(events)["daily"][0]
        assert (day["victims"], day["prefixes_24"], day["prefixes_16"],
                day["prefixes_8"]) == (2, 2, 2, 2)

    def test_ipv4_mapped_victim_shares_prefixes_with_its_ipv4_form(self):
        records = burst(12, 0, client="10.1.1.1") + burst(12, 0, client="::ffff:10.1.1.2")
        events = det.detect_attacks(det.aggregate_client_days(records, MISUSED),
                                    det.DetectorConfig())
        day = det.victim_summary(events)["daily"][0]
        assert (day["victims"], day["prefixes_24"], day["prefixes_16"],
                day["prefixes_8"]) == (2, 1, 1, 1)

    def test_victim_that_is_no_address_counts_only_as_victim(self):
        # no aggregate of records has such a client, since sanitize drops
        # them; a hand-edited event log can
        event = det.detect_attacks(det.aggregate_client_days(burst(12, 0), MISUSED),
                                   det.DetectorConfig())[0]
        events = [event, dataclasses.replace(event, victim_ip="victim.example")]
        day = det.victim_summary(events)["daily"][0]
        assert (day["victims"], day["prefixes_24"], day["prefixes_16"],
                day["prefixes_8"]) == (2, 1, 1, 1)

    def test_victim_ases_counted_when_annotated(self):
        table = tr.PrefixTable([("10.0.0.0/8", 64512), ("192.0.2.0/24", 5)])
        records = tr.annotate(tr.Trace.of(burst(12, 0)), table)
        stats = det.aggregate_client_days(records, MISUSED)
        events = det.detect_attacks(stats, det.DetectorConfig())
        assert events[0].victim_as == 64512
        summary = det.victim_summary(events)
        assert summary["daily"][0]["victim_ases"] == 1


class TestEventSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        table = tr.PrefixTable([("10.0.0.0/8", 64512), ("192.0.2.0/24", 5)])
        records = tr.annotate(tr.Trace.of(burst(40, 4) + burst(12, 0, client="10.0.0.2")), table)
        stats = det.aggregate_client_days(records, MISUSED)
        events = det.detect_attacks(stats, det.DetectorConfig())
        det.intensity_deciles(events)
        path = tmp_path / "attacks.jsonl"
        det.write_events(events, str(path))
        reread = det.read_events(str(path))
        assert reread == events
        second = tmp_path / "again.jsonl"
        det.write_events(reread, str(second))
        assert path.read_bytes() == second.read_bytes()

    def test_read_events_shares_repeated_strings(self, tmp_path):
        # two victims on one day, both reflected by 192.0.2.1
        records = burst(12, 0) + burst(12, 0, client="10.0.0.2")
        events = det.detect_attacks(det.aggregate_client_days(records, MISUSED))
        path = tmp_path / "attacks.jsonl"
        det.write_events(events, str(path))
        first, second = det.read_events(str(path))
        assert first.victim_ip != second.victim_ip
        assert first.day is second.day
        assert first.amplifier_set == second.amplifier_set == ("192.0.2.1",)
        assert first.amplifier_set[0] is second.amplifier_set[0]
        (qname_a,), (qname_b,) = first.qname_counts, second.qname_counts
        assert qname_a is qname_b

    def test_dominant_qname_breaks_ties_lexicographically(self):
        records = [packet(qname="evil.example.", ts=1.0),
                   packet(qname="bad.example.", ts=2.0)]
        stats = det.aggregate_client_days(records, MISUSED)
        event = det.detect_attacks(
            stats, det.DetectorConfig(min_sampled_packets=1))[0]
        assert event.dominant_qname() == "bad.example."
