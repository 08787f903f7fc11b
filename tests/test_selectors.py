"""Name selectors and the consensus merge."""

import io
import json
import random

import pytest

from dnsamp import pipeline
from dnsamp import selectors as sel
from dnsamp import synth
from dnsamp import trace as tr
from dnsamp.fileio import write_lines


def packet(qname, qr=0, udp_len=100, qtype=255, ts=10.0, client="10.0.0.1",
           server="192.0.2.1"):
    kwargs = dict(ts=ts, ip_ttl=60, ip_id=1, udp_len=udp_len, dns_id=1,
                  qname=qname, qtype=qtype, rcode=0, ancount=0, nscount=0,
                  is_response=bool(qr))
    if qr:
        return tr.PacketRecord(src_ip=server, dst_ip=client, src_port=53,
                               dst_port=5353, **kwargs)
    return tr.PacketRecord(src_ip=client, dst_ip=server, src_port=5353,
                           dst_port=53, **kwargs)


class Window:
    def __init__(self, victim_ip, start, end):
        self.victim_ip = victim_ip
        self.start = start
        self.end = end


class TestIndividualSelectors:
    def test_max_size_uses_responses_only(self):
        records = [
            packet("a.example.", qr=1, udp_len=508),
            packet("a.example.", qr=1, udp_len=208),
            packet("a.example.", qr=0, udp_len=9000),  # request, ignored
            packet("b.example.", qr=1, udp_len=308),
        ]
        ranking = sel.selector_max_size(records)
        assert ranking.ranked == (("a.example.", 500), ("b.example.", 300))

    def test_any_volume_counts_any_requests_only(self):
        records = [
            packet("a.example.", qtype=255),
            packet("a.example.", qtype=255),
            packet("a.example.", qtype=1),      # not ANY
            packet("a.example.", qtype=255, qr=1),  # response, ignored
            packet("b.example.", qtype=255),
        ]
        ranking = sel.selector_any_volume(records)
        assert ranking.ranked == (("a.example.", 2), ("b.example.", 1))

    def test_score_ties_break_lexicographically(self):
        records = [packet("zz.example.", qtype=255), packet("aa.example.", qtype=255)]
        ranking = sel.selector_any_volume(records)
        assert [q for q, _ in ranking.ranked] == ["aa.example.", "zz.example."]

    def test_ground_truth_respects_window_and_slack(self):
        windows = [Window("10.0.0.1", 100.0, 200.0)]
        records = [
            packet("in.example.", ts=150.0),
            packet("early.example.", ts=99.0),       # inside once slack applies
            packet("late.example.", ts=501.0),       # beyond 200 + 300
            packet("other.example.", ts=150.0, client="10.0.0.2"),
        ]
        ranking = sel.selector_ground_truth(records, windows, slack_s=300.0)
        names = {q for q, _ in ranking.ranked}
        assert names == {"in.example.", "early.example."}

    def test_ground_truth_counts_both_directions(self):
        windows = [Window("10.0.0.1", 0.0, 1000.0)]
        records = [packet("x.example.", ts=10.0),
                   packet("x.example.", ts=11.0, qr=1)]
        ranking = sel.selector_ground_truth(records, windows, slack_s=0.0)
        assert ranking.ranked == (("x.example.", 2),)


class TestJaccard:
    def test_known_values(self):
        assert sel.jaccard({"a"}, {"a"}) == 1.0
        assert sel.jaccard({"a"}, {"b"}) == 0.0
        assert sel.jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_empty_sets_are_identical(self):
        assert sel.jaccard(set(), set()) == 1.0
        assert sel.jaccard({"a"}, set()) == 0.0

    def test_distance_triangle_inequality(self):
        rng = random.Random(17)
        universe = list(range(12))
        for _ in range(300):
            sets = [frozenset(x for x in universe if rng.random() < 0.4)
                    for _ in range(3)]
            d = [1.0 - sel.jaccard(sets[i], sets[j])
                 for i, j in ((0, 1), (1, 2), (0, 2))]
            assert d[2] <= d[0] + d[1] + 1e-12


def ranking_of(names, selector_id="s"):
    scores = [(q, float(len(names) - i)) for i, q in enumerate(names)]
    return sel.SelectorRanking(selector_id, tuple(scores))


class TestConsensus:
    def test_rotation_fixture_pins_k(self):
        # three orderings of the same 29 names agree as SETS only at k=29;
        # disjoint tails keep the curve below 1.0 afterwards
        shared = [f"n{i:02d}.example." for i in range(29)]
        lists = []
        for rotation, tail in ((0, "x"), (10, "y"), (20, "z")):
            rotated = shared[rotation:] + shared[:rotation]
            rotated += [f"{tail}{i}.example." for i in range(20)]
            lists.append(rotated)
        rankings = [ranking_of(names, f"s{i}") for i, names in enumerate(lists)]
        merged = sel.consensus_merge(rankings, k_max=64)
        assert merged.k_star == 29
        assert merged.name_set() == set(shared)
        curve = dict(merged.curve)
        assert curve[29] == 1.0
        assert all(value < 1.0 for k, value in merged.curve if k != 29)

    def test_flat_prefix_takes_smallest_k(self):
        rankings = [ranking_of(["a.", "b.", "c."]), ranking_of(["a.", "b."], "t")]
        merged = sel.consensus_merge(rankings, k_max=8)
        assert merged.k_star == 1
        assert merged.names == ("a.",)

    def test_selectors_agreeing_on_their_top_name_keep_only_it(self):
        # The degenerate case of the smallest-k rule, pinned as it stands: the
        # name with the largest responses also has the most ANY queries and the
        # most traffic toward honeypot-seen victims, so all three selectors
        # agree at k = 1 and the other two misused names are dropped.
        attacks = tuple(synth.AttackSpec(
            victim_ip=f"10.{i}.0.1", qname=qname, qps=qps, start_s=3600.0 * (1 + 3 * i),
            duration_s=7200.0, honeypot_visible=True, response_size=size)
            for i, (qname, qps, size) in enumerate((("alpha.example.", 6000.0, 4000),
                                                    ("beta.example.", 4000.0, 3000),
                                                    ("gamma.example.", 2500.0, 2000))))
        cfg = synth.ScenarioConfig(seed=11, duration_days=1, attacks=attacks,
                                   background_clients=6, amplifier_pool_size=60,
                                   sensor_count=3)
        records, requests, truth = synth.generate_scenario(cfg)
        assert set(truth.misused_names) == {"alpha.example.", "beta.example.",
                                            "gamma.example."}
        names = pipeline.select_names(records, pipeline.Settings(), requests)["names.json"]
        assert names.missing_selectors == ()
        assert names.k_star == 1
        assert names.names == ("alpha.example.",)
        assert names.provenance == {"alpha.example.": ("any_volume", "ground_truth",
                                                       "max_size")}

    def test_union_with_provenance(self):
        r1 = ranking_of(["a.", "b."], "one")
        r2 = ranking_of(["b.", "a."], "two")
        merged = sel.consensus_merge([r1, r2], k_max=4)
        assert merged.k_star == 2
        assert merged.provenance["a."] == ("one", "two")
        assert merged.provenance["b."] == ("one", "two")

    def test_union_includes_minority_names(self):
        # at the consensus k the union may still be larger than any one list
        r1 = ranking_of(["a.", "b."], "one")
        r2 = ranking_of(["a.", "c."], "two")
        merged = sel.consensus_merge([r1, r2], k_max=2)
        assert merged.k_star == 1  # only {a} = {a} reaches 1.0
        assert merged.names == ("a.",)

    def test_empty_selector_is_flagged_and_excluded(self):
        r1 = ranking_of(["a.", "b."], "one")
        r2 = ranking_of(["b.", "a."], "two")
        empty = sel.SelectorRanking("gt", ())
        merged = sel.consensus_merge([r1, r2, empty], k_max=4)
        assert merged.missing_selectors == ("gt",)
        assert merged.k_star == 2

    def test_single_active_selector(self):
        merged = sel.consensus_merge(
            [ranking_of(["a.", "b.", "c."]), sel.SelectorRanking("gt", ())],
            k_max=2)
        assert merged.k_star == 2  # clamped to k_max
        assert merged.names == ("a.", "b.")

    def test_all_empty_raises(self):
        with pytest.raises(ValueError):
            sel.consensus_merge([sel.SelectorRanking("a", ()),
                                 sel.SelectorRanking("b", ())])

    def test_bad_k_max_raises(self):
        with pytest.raises(ValueError):
            sel.consensus_merge([ranking_of(["a."])], k_max=0)


class TestSerialization:
    def build(self):
        r1 = ranking_of(["big.example.", "mid.example."], "max_size")
        r2 = ranking_of(["mid.example.", "big.example."], "any_volume")
        return sel.consensus_merge([r1, r2], k_max=4)

    def test_json_round_trip(self, tmp_path):
        merged = self.build()
        path = tmp_path / "names.json"
        sel.write_name_list(merged, str(path))
        reread = sel.read_name_list(str(path))
        assert reread.name_set() == merged.name_set()
        assert reread.k_star == merged.k_star
        obj = json.loads(path.read_text())
        assert [entry["qname"] for entry in obj["names"]] == sorted(merged.names)

    def test_plain_text_round_trip(self, tmp_path):
        merged = self.build()
        path = tmp_path / "names.txt"
        write_lines(merged.names, str(path))
        assert sel.read_plain_names(str(path)) == merged.name_set()

    def test_curve_csv(self, tmp_path):
        records = [packet("big.example.", qr=1, udp_len=3000),
                   packet("mid.example.", qr=1, udp_len=1000), packet("mid.example.")]
        result = pipeline.select_names(records, pipeline.Settings(k_max=4))
        writer, curve = result.files["curve.csv"]
        writer(curve, str(tmp_path / "curve.csv"))
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "k,mean_jaccard"
        assert len(lines) == 1 + len(result["names.json"].curve) > 1
