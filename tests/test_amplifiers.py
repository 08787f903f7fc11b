"""Amplifier-set clustering, stability, churn, and inventory."""

import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest

from dnsamp import amplifiers as amp
from dnsamp import detector as det
from oracles import check_dbscan_labels, dbscan_reference


def event(amplifier_set, day="2019-06-01", victim="10.0.0.1", first_ts=0.0,
          last_ts=100.0, packets=20):
    return det.AttackEvent(
        victim_ip=victim, day=day, packet_count=packets,
        misused_packet_count=packets, est_original_packets=packets * 16000,
        est_misused_packets=packets * 16000, share=1.0,
        share_excluding_root=1.0, first_ts=first_ts, last_ts=last_ts,
        request_count=0, response_count=packets,
        qname_counts={"evil.example.": packets},
        amplifier_set=tuple(sorted(amplifier_set)),
        dns_ids=((0.0, 2), (1.0, 4)), req_ip_ids=(), req_src_ports=(),
        req_dns_ids=(), ingress_as_counts={}, victim_as=None,
        intensity_decile=None)


def ip(i):
    return f"198.18.{i // 256}.{i % 256}"


class TestDistanceMatrix:
    def test_symmetry_zero_diagonal_and_range(self):
        rng = random.Random(3)
        sets = [frozenset(ip(rng.randint(0, 40)) for _ in range(rng.randint(1, 15)))
                for _ in range(12)]
        matrix = np.asarray(amp.jaccard_distance_matrix(sets))
        assert matrix.shape == (12, 12)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))

    def test_triangle_inequality(self):
        rng = random.Random(5)
        sets = [frozenset(ip(rng.randint(0, 25)) for _ in range(rng.randint(1, 10)))
                for _ in range(10)]
        matrix = np.asarray(amp.jaccard_distance_matrix(sets))
        n = len(sets)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-12

    def test_known_distance(self):
        matrix = np.asarray(amp.jaccard_distance_matrix(
            [frozenset({"a", "b"}), frozenset({"b", "c"})]))
        assert matrix[0, 1] == pytest.approx(2 / 3)

    def test_empty_sets_have_zero_distance(self):
        matrix = np.asarray(amp.jaccard_distance_matrix([frozenset(), frozenset()]))
        assert matrix[0, 1] == 0.0

    def test_memory_beyond_result_is_small(self):
        # 700 events of 30 reflectors from a pool of 3400, as in a week's
        # event log: working memory must stay one mask per set and a row of
        # counts, not an events-by-reflectors incidence matrix
        rng = random.Random(11)
        pool = [ip(i) for i in range(3400)]
        sets = [frozenset(rng.sample(pool, 30)) for _ in range(700)]
        tracemalloc.start()
        try:
            matrix = amp.jaccard_distance_matrix(sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows_bytes = sum(len(row) * row.itemsize for row in matrix)
        assert peak < rows_bytes + 2 * 2 ** 20

    @staticmethod
    def held_bytes(sets):
        """Memory the built matrix holds, by tracemalloc."""
        tracemalloc.start()
        try:
            matrix = amp.jaccard_distance_matrix(sets)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(matrix) == len(sets)
        return current

    def test_keeps_only_overlapping_pairs(self):
        # the sets of test_memory_beyond_result_is_small: about a quarter of
        # the pairs overlap, so the stored entries take well under n doubles a row
        rng = random.Random(11)
        pool = [ip(i) for i in range(3400)]
        sets = [frozenset(rng.sample(pool, 30)) for _ in range(700)]
        assert self.held_bytes(sets) <= 8 * len(sets) ** 2 / 2

    def test_every_pair_overlapping_holds_twelve_bytes_an_entry(self):
        # every pair overlaps, so each row stores all n entries: a 4-B column
        # and an 8-B value each, plus a row's two array headers (about 200 B)
        rng = random.Random(19)
        pool = [ip(i) for i in range(1, 500)]
        sets = [frozenset([ip(0), *rng.sample(pool, 10)]) for _ in range(300)]
        n = len(sets)
        assert self.held_bytes(sets) <= 12 * n * n + 256 * n

    def test_rows_index_like_a_list(self):
        sets = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d"})]
        matrix = amp.jaccard_distance_matrix(sets)
        assert len(matrix) == 3
        assert matrix[-1] == matrix[2] == array("d", [1.0, 1.0, 0.0])
        assert [row.tolist() for row in matrix] == [
            [0.0, 1 - 1 / 3, 1.0], [1 - 1 / 3, 0.0, 1.0], [1.0, 1.0, 0.0]]
        for i in (3, -4):
            with pytest.raises(IndexError):
                matrix[i]
        with pytest.raises(TypeError):
            matrix[0.0]
        # each row is a fresh array: changing one changes nothing stored
        row = matrix[0]
        row[1] = 5.0
        assert matrix[0][1] == 1 - 1 / 3 and matrix[0] is not matrix[0]

    def test_empty_sets_among_others_stay_at_distance_zero(self):
        sets = [frozenset(), frozenset({"a"}), frozenset(), frozenset({"a", "b"}),
                frozenset()]
        matrix = np.asarray(amp.jaccard_distance_matrix(sets))
        empty = [0, 2, 4]
        assert np.all(matrix[np.ix_(empty, empty)] == 0.0)
        assert np.all(matrix[np.ix_(empty, [1, 3])] == 1.0)
        assert matrix[1, 3] == 0.5


class TestDbscan:
    def random_sets(self, rng, n):
        """Random point sets, so the Jaccard metric is honest."""
        universe = list(range(24))
        sets = []
        for _ in range(n):
            size = rng.randint(1, 10)
            sets.append(frozenset(rng.sample(universe, size)))
        return sets

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(41)
        for trial in range(150):
            n = rng.randint(5, 40)
            matrix = amp.jaccard_distance_matrix(self.random_sets(rng, n))
            eps = rng.choice([0.3, 0.5, 0.6, 0.8])
            min_pts = rng.choice([2, 3, 5])
            result = amp.dbscan_cluster(matrix, eps=eps, min_pts=min_pts)
            reference = dbscan_reference(matrix, eps, min_pts)
            check_dbscan_labels(result.labels, reference)

    def test_permutation_changes_only_names(self):
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randint(6, 25)
            sets = self.random_sets(rng, n)
            matrix = amp.jaccard_distance_matrix(sets)
            reference = dbscan_reference(matrix, 0.6, 3)
            # border points reachable from two clusters may legitimately
            # flip allegiance under reordering; skip those instances
            ambiguous = any(isinstance(r, tuple) and r[0] == "border"
                            and len(r[1]) > 1 for r in reference)
            if ambiguous:
                continue
            base = amp.dbscan_cluster(matrix, eps=0.6, min_pts=3).labels
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = amp.jaccard_distance_matrix([sets[i] for i in perm])
            shuffled = amp.dbscan_cluster(permuted, eps=0.6, min_pts=3).labels
            # labels under permutation must induce the same partition
            mapping = {}
            for i, orig in enumerate(perm):
                a, b = shuffled[i], base[orig]
                assert (a == -1) == (b == -1)
                if a != -1:
                    assert mapping.setdefault(a, b) == b

    def test_all_points_identical_single_cluster(self):
        matrix = amp.jaccard_distance_matrix([frozenset({"a", "b"})] * 6)
        result = amp.dbscan_cluster(matrix, eps=0.5, min_pts=5)
        assert result.n_clusters == 1
        assert list(result.labels) == [0] * 6
        assert result.outlier_share == 0.0

    def test_sparse_points_all_noise(self):
        matrix = amp.jaccard_distance_matrix([frozenset({i}) for i in "abcd"])
        result = amp.dbscan_cluster(matrix, eps=0.5, min_pts=2)
        assert result.n_clusters == 0
        assert list(result.labels) == [-1] * 4
        assert result.outlier_share == 1.0

    def test_neighborhood_is_closed_ball(self):
        # distance exactly eps still counts as a neighbor
        matrix = amp.jaccard_distance_matrix([frozenset("ab"), frozenset("abcde")])
        assert matrix[0][1] == 0.6
        result = amp.dbscan_cluster(matrix, eps=0.6, min_pts=2)
        assert result.n_clusters == 1


class TestStableSets:
    def build_static(self, n_events=20, pool=30, days=10):
        members = [ip(i) for i in range(pool)]
        events = []
        for i in range(n_events):
            day = f"2019-06-{i % days + 1:02d}"
            events.append(event(members, day=day, victim=f"10.0.{i}.1",
                                first_ts=i * 1000.0, last_ts=i * 1000.0 + 60))
        return events

    def test_static_cluster_reported(self):
        events = self.build_static()
        labels = [0] * len(events)
        reports = amp.stable_sets(events, labels)
        assert len(reports) == 1
        report = reports[0]
        assert report.static
        assert report.mean_drift == 0.0
        assert report.n_attacks == 20
        assert report.n_amplifiers == 30
        assert report.core_size == 30
        assert report.first_day == "2019-06-01"
        assert report.last_day == "2019-06-10"
        assert report.span_days == 10

    def test_small_clusters_filtered(self):
        events = self.build_static(n_events=4)
        assert amp.stable_sets(events, [0, 0, 0, 0]) == []

    def test_union_threshold_filtered(self):
        events = [event([ip(0), ip(1)], victim=f"10.0.{i}.1") for i in range(6)]
        assert amp.stable_sets(events, [0] * 6) == []

    def test_drift_measured_between_consecutive_events(self):
        members = [ip(i) for i in range(10)]
        events = []
        for i in range(6):
            shifted = members[i:] + [ip(100 + j) for j in range(i)]
            events.append(event(shifted, day=f"2019-06-{i + 1:02d}",
                                victim="10.0.0.1"))
        reports = amp.stable_sets(events, [0] * 6)
        assert len(reports) == 1
        assert not reports[0].static
        assert reports[0].mean_drift > 0.0
        assert reports[0].max_drift >= reports[0].mean_drift

    def test_noise_label_excluded(self):
        events = self.build_static(n_events=10)
        labels = [-1] * 10
        assert amp.stable_sets(events, labels) == []

    def test_mean_drift_sums_left_to_right(self):
        # drifts 1 - 1/3, 1, 1, 1 - 1/3: summed left to right they round to a
        # mean one ulp above the correctly rounded one, which Python 3.12's
        # sum() gives; the bytes of clusters.json must not depend on the version
        members = [(0, 1), (1, 2), (3, 4), (0, 1), (1, 2)]
        events = [event([ip(i) for i in pair], day=f"2019-06-{day:02d}")
                  for day, pair in enumerate(members, 1)]
        drifts = [1.0 - 1 / 3, 1.0, 1.0, 1.0 - 1 / 3]
        report, = amp.stable_sets(events, [0] * 5)
        assert report.max_drift == 1.0
        assert report.mean_drift == 0.8333333333333335 != math.fsum(drifts) / 4


class TestChurn:
    def test_full_retention(self):
        daily = {f"2019-06-{d:02d}": {ip(i) for i in range(20)}
                 for d in range(1, 6)}
        report = amp.churn_metrics(daily)
        assert report.mean_overlap == 1.0
        assert report.first_last_overlap == 1.0
        assert len(report.overlaps) == 4

    def test_half_retention(self):
        daily = {
            "2019-06-01": {ip(i) for i in range(20)},
            "2019-06-02": {ip(i) for i in range(10, 30)},
            "2019-06-03": {ip(i) for i in range(20, 40)},
        }
        report = amp.churn_metrics(daily)
        assert report.mean_overlap == pytest.approx(0.5)
        assert report.first_last_overlap == 0.0

    def test_only_observed_consecutive_days_counted(self):
        daily = {
            "2019-06-01": {ip(0), ip(1)},
            "2019-06-02": {ip(0), ip(1)},
            # 06-03 missing entirely
            "2019-06-04": {ip(5)},
            "2019-06-05": {ip(5)},
        }
        report = amp.churn_metrics(daily)
        pairs = [(a, b) for a, b, _ in report.overlaps]
        assert ("2019-06-02", "2019-06-04") not in pairs
        assert report.mean_overlap == 1.0

    def test_mean_overlap_sums_left_to_right(self):
        # overlaps 2/3, 1/2, 1/3 sum to 1.4999999999999998 left to right,
        # where Python 3.12's sum() gives 1.5
        daily = {"2019-06-01": {ip(i) for i in (0, 2, 3, 5, 7, 9)},
                 "2019-06-02": {ip(i) for i in (2, 5, 7, 9)},
                 "2019-06-03": {ip(i) for i in (4, 5, 9)},
                 "2019-06-04": {ip(i) for i in (0, 1, 4, 6)}}
        report = amp.churn_metrics(daily)
        assert [value for _, _, value in report.overlaps] == [2 / 3, 1 / 2, 1 / 3]
        assert report.mean_overlap == 0.49999999999999994 != 1.5 / 3

    def test_daily_sets_from_events(self):
        events = [event([ip(0), ip(1)], day="2019-06-01"),
                  event([ip(1), ip(2)], day="2019-06-01", victim="10.0.0.2"),
                  event([ip(3)], day="2019-06-02")]
        daily = amp.daily_amplifier_sets(events)
        assert daily["2019-06-01"] == {ip(0), ip(1), ip(2)}
        assert daily["2019-06-02"] == {ip(3)}


class TestInventory:
    def test_counts_reconcile(self):
        events = [event([ip(0), ip(1)], first_ts=10.0),
                  event([ip(1), ip(2)], day="2019-06-02", victim="10.0.0.2",
                        first_ts=86410.0, last_ts=86470.0)]
        inventory = amp.amplifier_inventory(events)
        assert sum(info.attack_count for info in inventory.values()) == \
            sum(len(e.amplifier_set) for e in events)
        assert inventory[ip(1)].attack_count == 2
        assert inventory[ip(1)].first_abuse_ts == 10.0
        assert inventory[ip(1)].last_abuse_ts == 86470.0

    def test_recency_join(self, tmp_path):
        events = [event([ip(0), ip(1), ip(2)], first_ts=86400.0 * 10)]
        inventory = amp.amplifier_inventory(events)
        path = tmp_path / "seen.csv"
        path.write_text("ip,first_seen,last_seen\n"
                        f"{ip(0)},1970-01-05,1970-01-20\n"
                        f"{ip(1)},1970-01-15,1970-01-20\n")
        joined, coverage = amp.recency_join(inventory, amp.read_seen_table(str(path)))
        assert coverage == pytest.approx(2 / 3)
        # abuse lands on day 11: ip0 was already in the scan table,
        # ip1 only entered it afterwards, ip2 never did
        assert joined[ip(0)].recency == "known_before_abuse"
        assert joined[ip(1)].recency == "pre_discovery"
        assert joined[ip(2)].recency == "unseen"

    @pytest.mark.parametrize("first_seen", ["20190601", "2019-W23-6"])
    def test_seen_table_takes_only_iso_days(self, tmp_path, first_seen):
        # date.fromisoformat reads both forms, which are no YYYY-MM-DD day
        path = tmp_path / "seen.csv"
        path.write_text(f"ip,first_seen,last_seen\n{ip(0)},2019-06-01,2019-06-02\n"
                        f"{ip(1)},{first_seen},2019-06-02\n")
        with pytest.raises(ValueError, match=f"^seen table line 3: .*'{first_seen}'"):
            amp.read_seen_table(str(path))

    def test_roles(self, tmp_path):
        events = [event([ip(0), ip(1)])]
        inventory = amp.amplifier_inventory(events)
        path = tmp_path / "ns.csv"
        path.write_text(f"ip,ns_name\n{ip(0)},ns1.example.\n")
        table = amp.read_ns_ip_table(str(path))
        amp.classify_amplifier_role(inventory, table)
        assert inventory[ip(0)].role == "authoritative"
        assert inventory[ip(1)].role == "resolver_or_forwarder"

    def test_roles_unknown_without_table(self):
        inventory = amp.amplifier_inventory([event([ip(0)])])
        amp.classify_amplifier_role(inventory, None)
        assert inventory[ip(0)].role == "unknown"

    def test_involvement_distribution(self):
        events = [event([ip(0), ip(1)]),
                  event([ip(0)], day="2019-06-02")]
        per_amplifier, per_attack = amp.involvement_distributions(events)
        assert per_amplifier == {1: 1, 2: 1}  # ip1 once, ip0 twice
        assert per_attack == {1: 1, 2: 1}     # one single-set, one pair-set event

    def test_qname_role_breakdown(self):
        events = [event([ip(0), ip(1)])]
        inventory = amp.amplifier_inventory(events)
        amp.classify_amplifier_role(inventory, {ip(0): "ns1.example."})
        breakdown = amp.qname_role_breakdown(events, inventory)
        assert breakdown["evil.example."] == {"authoritative": 1,
                                              "resolver_or_forwarder": 1}


    def test_reflector_listed_twice_counts_once(self):
        # a hand-edited event log can list a reflector twice in one event
        events = [event([ip(0), ip(1), ip(0)]), event([ip(1)], day="2019-06-02")]
        inventory = amp.amplifier_inventory(events)
        assert (inventory[ip(0)].attack_count, inventory[ip(1)].attack_count) == (1, 2)
        assert amp.involvement_distributions(events) == ({1: 1, 2: 1}, {2: 1, 1: 1})
        amp.classify_amplifier_role(inventory, {ip(0): "ns1.example."})
        assert amp.qname_role_breakdown(events, inventory)["evil.example."] == {
            "authoritative": 1, "resolver_or_forwarder": 2}


class TestMatrixSerialization:
    def test_round_trip_text(self, tmp_path):
        sets = [frozenset({"a", "b"}), frozenset({"b"}), frozenset({"c"})]
        matrix = amp.jaccard_distance_matrix(sets)
        path = tmp_path / "matrix.csv"
        amp.write_distance_matrix(matrix, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()]
        reread = np.array([[float(x) for x in row] for row in rows])
        assert np.array_equal(reread, matrix)
