"""Header-field patterns, name timelines, and entity attribution."""

import json
import random

import numpy as np
import pytest

from dnsamp import detector as det
from dnsamp import fingerprint as fp


def event(dns_ids=(), req_fields=None, qname="evil.example.", victim="10.0.0.1",
          day="2019-06-01", packets=None, ingress=None):
    """Minimal AttackEvent; only the fields the fingerprint module reads."""
    ids = list(dns_ids)
    if req_fields is None:
        req_fields = [(float(i), i, 1024 + i, v) for i, v in enumerate(ids)]
    count = packets if packets is not None else max(len(ids), 1)
    return det.AttackEvent(
        victim_ip=victim, day=day, packet_count=count,
        misused_packet_count=count, est_original_packets=count * 16000,
        est_misused_packets=count * 16000, share=1.0, share_excluding_root=1.0,
        first_ts=0.0, last_ts=float(max(len(ids) - 1, 0)),
        request_count=len(req_fields), response_count=0,
        qname_counts={qname: count}, amplifier_set=("192.0.2.1",),
        dns_ids=tuple(ids),
        req_ip_ids=tuple(f[1] for f in req_fields),
        req_src_ports=tuple(f[2] for f in req_fields),
        req_dns_ids=tuple(f[3] for f in req_fields),
        ingress_as_counts=dict(ingress or {}), victim_as=None,
        intensity_decile=None)


class TestCardinality:
    def test_ratio_and_flag(self):
        ev = event(dns_ids=range(100), req_fields=[(0.0, i % 4, 1024, i)
                                                   for i in range(100)])
        profile = fp.field_cardinality_profile(ev, "ip_id")
        assert profile.packet_count == 100
        assert profile.unique_count == 4
        assert profile.ratio == pytest.approx(0.04)
        assert profile.low_entropy

    def test_high_cardinality_not_flagged(self):
        ev = event(dns_ids=range(40))
        profile = fp.field_cardinality_profile(ev, "src_port")
        assert profile.unique_count == 40
        assert not profile.low_entropy

    def test_boundary_is_inclusive(self):
        # ratio exactly 1/10 counts as low entropy
        ev = event(dns_ids=range(40), req_fields=[(0.0, i % 4, 1024, i)
                                                  for i in range(40)])
        profile = fp.field_cardinality_profile(ev, "ip_id")
        assert profile.ratio == pytest.approx(0.1)
        assert profile.low_entropy

    def test_unknown_field_and_empty_event_raise(self):
        ev = event(dns_ids=range(5))
        with pytest.raises(ValueError):
            fp.field_cardinality_profile(ev, "ttl")
        empty = event(dns_ids=range(5), req_fields=[])
        with pytest.raises(ValueError):
            fp.field_cardinality_profile(empty, "ip_id")


class TestParityPatterns:
    def test_pure_classes(self):
        odd = fp.classify_dnsid_pattern([1, 3, 5, 7, 9])
        even = fp.classify_dnsid_pattern([0, 2, 4, 6, 8])
        assert odd.kind == "pure_odd" and odd.is_pure
        assert even.kind == "pure_even" and even.is_pure
        assert odd.change_point is None

    def test_phased_five_five(self):
        pattern = fp.classify_dnsid_pattern([1, 3, 5, 7, 9, 2, 4, 6, 8, 10])
        assert pattern.kind == "phased"
        assert pattern.change_point == 5

    def test_short_second_segment_is_mixed(self):
        pattern = fp.classify_dnsid_pattern([1, 3, 5, 7, 9, 2, 4, 6])
        assert pattern.kind == "phased"
        assert pattern.change_point == 5
        pattern = fp.classify_dnsid_pattern([1, 3, 5, 7, 9, 2, 4])
        assert pattern.kind == "mixed"

    def test_multiple_changes_are_mixed(self):
        pattern = fp.classify_dnsid_pattern([1, 3, 2, 4, 1, 3, 5, 7])
        assert pattern.kind == "mixed"

    def test_min_segment_is_configurable(self):
        ids = [1, 3, 2, 4]
        assert fp.classify_dnsid_pattern(ids, min_segment=2).kind == "phased"
        assert fp.classify_dnsid_pattern(ids, min_segment=3).kind == "mixed"

    @pytest.mark.parametrize("min_segment", [0, -5])
    def test_min_segment_below_one_rejected(self, min_segment):
        message = f"min_segment must be >= 1, got {min_segment}"
        with pytest.raises(ValueError, match=message):
            fp.classify_dnsid_pattern([1, 3, 2, 4], min_segment=min_segment)
        spec = fp.EntityFingerprint(name_suffixes=("x.example.",), id_patterns=("phased",))
        for events in ([], [event(dns_ids=[1, 3, 2, 4], qname="x.example.")]):
            with pytest.raises(ValueError, match=message):
                fp.attribute_entity(events, spec, min_segment=min_segment)

    def test_relabel_symmetry(self):
        # flipping every id's parity swaps odd and even but keeps structure
        rng = random.Random(31)
        swap = {"pure_odd": "pure_even", "pure_even": "pure_odd",
                "phased": "phased", "mixed": "mixed"}
        for _ in range(200):
            ids = [rng.randint(0, 65535) for _ in range(rng.randint(2, 30))]
            got = fp.classify_dnsid_pattern(ids)
            flipped = fp.classify_dnsid_pattern([v ^ 1 for v in ids])
            assert flipped.kind == swap[got.kind]
            assert flipped.change_point == got.change_point

    def test_too_few_ids_raise(self):
        with pytest.raises(ValueError):
            fp.classify_dnsid_pattern([7])

    def test_accepts_event_argument(self):
        ev = event(dns_ids=[1, 3, 5, 7])
        assert fp.classify_dnsid_pattern(ev).kind == "pure_odd"

    def test_chance_rate_formula(self):
        assert fp.pure_parity_probability(1) == 1.0
        assert fp.pure_parity_probability(2) == 0.5
        assert fp.pure_parity_probability(9) == pytest.approx(0.00390625)

    def test_chance_rate_monte_carlo(self):
        # pure share among random-id events should track 2 * 0.5^n
        rng = np.random.default_rng(7)
        n, trials = 6, 20000
        ids = rng.integers(0, 65536, size=(trials, n))
        parity = ids & 1
        pure = np.sum(np.all(parity == parity[:, :1], axis=1))
        expected = fp.pure_parity_probability(n)
        sd = (expected * (1 - expected) / trials) ** 0.5
        assert abs(pure / trials - expected) < 4 * sd


class TestTimeline:
    def make_events(self, spec):
        # spec: list of (day, qname, packets, parity) with parity None=random ids
        events = []
        for i, (day, qname, packets, parity) in enumerate(spec):
            if parity is None:
                ids = [3, 6, 9, 12, 15]
            else:
                ids = [2 * j + parity for j in range(5)]
            events.append(event(dns_ids=ids, qname=qname, day=day,
                                victim=f"10.0.0.{i + 1}", packets=packets))
        return events

    def test_intervals_and_transitions(self):
        events = self.make_events([
            ("2019-06-01", "aaa.example.", 50, None),
            ("2019-06-02", "aaa.example.", 50, None),
            ("2019-06-02", "bbb.example.", 10, None),
            ("2019-06-03", "bbb.example.", 80, None),
        ])
        timeline = fp.build_name_timeline(events)
        assert timeline.intervals["aaa.example."] == ("2019-06-01", "2019-06-02")
        assert timeline.intervals["bbb.example."] == ("2019-06-02", "2019-06-03")
        assert timeline.transitions == (("2019-06-03", "aaa.example.", "bbb.example."),)
        assert timeline.lexicographic

    def test_non_lexicographic_switch_detected(self):
        events = self.make_events([
            ("2019-06-01", "zzz.example.", 50, None),
            ("2019-06-02", "mmm.example.", 50, None),
        ])
        timeline = fp.build_name_timeline(events)
        assert not timeline.lexicographic

    def test_interval_overlap_reported(self):
        events = self.make_events([
            ("2019-06-01", "aaa.example.", 50, None),
            ("2019-06-03", "aaa.example.", 50, None),
            ("2019-06-02", "bbb.example.", 60, None),
            ("2019-06-04", "bbb.example.", 60, None),
        ])
        timeline = fp.build_name_timeline(events)
        assert timeline.overlaps == (
            ("aaa.example.", "bbb.example.", "2019-06-02", "2019-06-03"),)

    def test_48h_alternation_recovered(self):
        spec = []
        for i in range(12):
            day = f"2019-06-{i + 1:02d}"
            spec.append((day, "evil.example.", 50, (i // 2) % 2))
        timeline = fp.build_name_timeline(self.make_events(spec))
        assert timeline.parity_period_days == 2

    def test_no_alternation_gives_none(self):
        spec = [(f"2019-06-{i + 1:02d}", "evil.example.", 50, 1)
                for i in range(10)]
        timeline = fp.build_name_timeline(self.make_events(spec))
        assert timeline.parity_period_days is None

    def test_alternation_helper_direct(self):
        days = [f"2019-06-{i + 1:02d}" for i in range(10)]
        signal = [1 if (i // 2) % 2 else -1 for i in range(10)]
        assert fp.parity_alternation_period(list(zip(days, signal))) == 2
        signal = [1 if (i // 3) % 2 else -1 for i in range(12)]
        days = [f"2019-06-{i + 1:02d}" for i in range(12)]
        assert fp.parity_alternation_period(list(zip(days, signal))) == 3

    def test_alternation_tolerates_gap_days(self):
        days = [f"2019-06-{i + 1:02d}" for i in range(12) if i != 5]
        signal = [1 if (i // 2) % 2 else -1 for i in range(12) if i != 5]
        assert fp.parity_alternation_period(list(zip(days, signal))) == 2


class TestAttribution:
    FP = fp.EntityFingerprint(name_suffixes=("gov-dns.example.",),
                              id_patterns=("pure",))

    def test_suffix_and_pattern_must_both_match(self):
        good = event(dns_ids=[1, 3, 5, 7], qname="a.gov-dns.example.")
        wrong_name = event(dns_ids=[1, 3, 5, 7], qname="a.other.example.",
                           victim="10.0.0.2")
        wrong_ids = event(dns_ids=[1, 2, 5, 8], qname="b.gov-dns.example.",
                          victim="10.0.0.3")
        attributed, share, _ = fp.attribute_entity(
            [good, wrong_name, wrong_ids], self.FP)
        assert attributed == [good]
        assert share == pytest.approx(1 / 3)

    def test_pure_token_covers_both_parities(self):
        even = event(dns_ids=[0, 2, 4, 6], qname="gov-dns.example.")
        attributed, _, _ = fp.attribute_entity([even], self.FP)
        assert attributed == [even]

    def test_exact_name_counts_as_suffix(self):
        ev = event(dns_ids=[1, 3, 5], qname="gov-dns.example.")
        attributed, _, _ = fp.attribute_entity([ev], self.FP)
        assert attributed == [ev]
        # but a name merely containing the string does not
        ev2 = event(dns_ids=[1, 3, 5], qname="gov-dns.example.com.")
        attributed, _, _ = fp.attribute_entity([ev2], self.FP)
        assert attributed == []

    @pytest.mark.parametrize("qname, matches", [
        ("gov-dns.example.", True), ("a.gov-dns.example.", True), ("A.Gov-DNS.Example", True),
        ("notgov-dns.example.", False), ("a.notgov-dns.example.", False),
        ("dns.example.", False)])
    def test_suffix_matches_on_label_boundary(self, qname, matches):
        assert self.FP.matches_name(qname) is matches
        attributed, _, _ = fp.attribute_entity([event(dns_ids=[1, 3, 5], qname=qname)], self.FP)
        assert bool(attributed) is matches

    @pytest.mark.parametrize("qname", [".", "example.", "a.b.example."])
    def test_root_suffix_matches_every_name(self, qname):
        assert fp.EntityFingerprint(name_suffixes=(".",)).matches_name(qname)

    def test_phased_fingerprint(self):
        spec = fp.EntityFingerprint(name_suffixes=("x.example.",),
                                    id_patterns=("phased",))
        ev = event(dns_ids=[1, 3, 5, 2, 4, 6], qname="x.example.")
        attributed, _, _ = fp.attribute_entity([ev], spec)
        assert attributed == [ev]

    def test_short_events_never_match(self):
        ev = event(dns_ids=[1], qname="gov-dns.example.")
        attributed, share, _ = fp.attribute_entity([ev], self.FP)
        assert attributed == [] and share == 0.0

    def test_unknown_pattern_token_rejected(self):
        with pytest.raises(ValueError):
            fp.EntityFingerprint(name_suffixes=("a.",), id_patterns=("odd",))

    @pytest.mark.parametrize("suffix", [".gov-dns.example.", "a..example.", "x" * 64 + ".example."])
    def test_suffix_that_no_name_can_match_rejected(self, suffix):
        # no valid name equals such a suffix or ends with "." + suffix
        with pytest.raises(ValueError, match="not a valid DNS name"):
            fp.EntityFingerprint(name_suffixes=("a.", suffix))

    def test_read_fingerprint(self, tmp_path):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps({"name_suffixes": ["Gov.Example"],
                                    "id_patterns": ["pure_odd"]}))
        spec = fp.read_fingerprint(str(path))
        assert spec.name_suffixes == ("gov.example.",)
        assert spec.allowed_kinds() == {"pure_odd"}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"name_suffixes": ["a.example."]}))
        spec = fp.read_fingerprint(str(bare))
        assert spec.allowed_kinds() == {"pure_odd", "pure_even", "phased"}


class TestIngress:
    def test_concentration(self):
        events = [event(dns_ids=[1, 3], ingress={64512: 30, 64513: 10}),
                  event(dns_ids=[1, 3], ingress={64512: 20})]
        assert fp.ingress_concentration(events) == pytest.approx(50 / 60)

    def test_no_annotation_gives_none(self):
        assert fp.ingress_concentration([event(dns_ids=[1, 3])]) is None
