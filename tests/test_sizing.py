"""Response-size model, amplification ranking, and rollover plateaus."""

import random

import pytest

from dnsamp import pipeline, sizing
from oracles import wire_any_response

TYPES = ["A", "NS", "TXT", "AAAA", "MX", "RRSIG", "DNSKEY"]


def record_set(owner, triples, day=None):
    records = tuple(sizing.ZoneRecord(rr_type=t, ttl=ttl, rdata_len=n)
                    for t, ttl, n in triples)
    return sizing.RecordSet(owner=owner, records=records, day=day)


class TestSizeModel:
    def test_empty_answer_floor(self):
        estimate = sizing.estimate_any_response_size(record_set("a.b.", []))
        assert estimate.est_bytes == 21  # 12 header + 5 name + 4 question
        estimate = sizing.estimate_any_response_size(record_set(".", []))
        assert estimate.est_bytes == 17

    def test_single_record(self):
        estimate = sizing.estimate_any_response_size(
            record_set("a.b.", [("A", 300, 4)]))
        # floor 21 + (5 + 10 + 4)
        assert estimate.est_bytes == 40

    def test_additive_in_rdata(self):
        base = record_set("x.example.", [("TXT", 60, 100)])
        bigger = record_set("x.example.", [("TXT", 60, 101)])
        a = sizing.estimate_any_response_size(base).est_bytes
        b = sizing.estimate_any_response_size(bigger).est_bytes
        assert b == a + 1

    def test_matches_wire_oracle_on_random_sets(self):
        rng = random.Random(77)
        for _ in range(300):
            labels = ["".join(rng.choices("abcdefgh", k=rng.randint(1, 10)))
                      for _ in range(rng.randint(1, 4))]
            owner = ".".join(labels) + "."
            triples = [(rng.choice(TYPES), rng.randint(0, 86400),
                        rng.randint(0, 1500))
                       for _ in range(rng.randint(0, 12))]
            estimate = sizing.estimate_any_response_size(record_set(owner, triples))
            assert estimate.est_bytes == len(wire_any_response(owner, triples))

    def test_edns_limit_flagged_not_clamped(self):
        big = record_set("big.example.", [("TXT", 60, 3000), ("TXT", 60, 3000)])
        estimate = sizing.estimate_any_response_size(big)
        assert estimate.est_bytes > 4096
        assert estimate.exceeds_edns

    def test_rejects_bad_owner_and_negative_rdata(self):
        with pytest.raises(ValueError):
            sizing.estimate_any_response_size(record_set("bad..owner.", []))
        with pytest.raises(ValueError):
            sizing.estimate_any_response_size(
                record_set("ok.example.", [("A", 60, -1)]))

    def test_request_size(self):
        assert sizing.request_size("a.b.") == 21
        assert sizing.request_size("a.b.", edns=True) == 32


class TestRanking:
    def estimates(self, sizes):
        out = []
        for i, size in enumerate(sizes):
            owner = f"n{i:02d}.example."
            rdata = size - 21 - sizing.qname_wire_length_of(owner) \
                if hasattr(sizing, "qname_wire_length_of") else None
            out.append(sizing.SizeEstimate(owner=owner, est_bytes=size,
                                           exceeds_edns=size > 4096))
        return out

    def test_count_above_reference_is_strict(self):
        estimates = self.estimates([100, 200, 300, 400])
        ranking = sizing.rank_amplification(estimates, ["n01.example."])
        assert ranking.reference_max == 200
        assert ranking.count_above_reference == 2

    def test_rows_sorted_and_cdf_monotone(self):
        estimates = self.estimates([300, 100, 400, 200])
        ranking = sizing.rank_amplification(estimates, ["n03.example."])
        sizes = [size for _, size, _ in ranking.rows]
        assert sizes == sorted(sizes)
        cdf = [c for _, _, c in ranking.rows]
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)

    def test_input_permutation_invariance(self):
        rng = random.Random(3)
        estimates = self.estimates([rng.randint(50, 5000) for _ in range(30)])
        ranking = sizing.rank_amplification(estimates, ["n00.example."])
        for _ in range(5):
            shuffled = estimates[:]
            rng.shuffle(shuffled)
            again = sizing.rank_amplification(shuffled, ["n00.example."])
            assert again.rows == ranking.rows
            assert again.count_above_reference == ranking.count_above_reference

    def test_factors_relative_to_request(self):
        estimates = self.estimates([420])
        ranking = sizing.rank_amplification(estimates, ["n00.example."])
        request = sizing.request_size("n00.example.")
        assert ranking.factors["n00.example."] == pytest.approx(420 / request)

    def test_missing_reference_raises(self):
        with pytest.raises(ValueError):
            sizing.rank_amplification(self.estimates([100]), ["absent.example."])


class TestPlateaus:
    def test_fourteen_day_step_up_and_down(self):
        series = [1000.0] * 10 + [1600.0] * 14 + [1000.0] * 10
        plateaus = sizing.detect_rollover_plateaus(series)
        assert len(plateaus) == 1
        plateau = plateaus[0]
        assert plateau.start_index == 10
        assert plateau.end_index == 23
        assert plateau.length == 14
        assert plateau.height == pytest.approx(600.0)

    def test_short_bump_rejected(self):
        series = [1000.0] * 10 + [1600.0] * 6 + [1000.0] * 10
        assert sizing.detect_rollover_plateaus(series) == []

    def test_small_step_rejected(self):
        series = [1000.0] * 10 + [1100.0] * 14 + [1000.0] * 10
        assert sizing.detect_rollover_plateaus(series) == []

    def test_monotone_series_has_no_plateau(self):
        series = [1000.0 + 40 * i for i in range(30)]
        assert sizing.detect_rollover_plateaus(series) == []

    def test_no_drop_at_end_is_not_a_plateau(self):
        series = [1000.0] * 10 + [1600.0] * 20
        assert sizing.detect_rollover_plateaus(series) == []

    def test_wobble_within_quarter_step_tolerated(self):
        # tolerance band is +/- min_step/4 around the first raised value
        level = [1600.0] + [1600.0 + ((-1) ** i) * 30.0 for i in range(13)]
        series = [1000.0] * 5 + level + [1000.0] * 5
        plateaus = sizing.detect_rollover_plateaus(series)
        assert len(plateaus) == 1
        assert plateaus[0].length == 14

    def test_wobble_beyond_quarter_step_breaks_plateau(self):
        level = [1600.0 + ((-1) ** i) * 80.0 for i in range(14)]
        series = [1000.0] * 5 + level + [1000.0] * 5
        assert sizing.detect_rollover_plateaus(series) == []

    def test_vertical_shift_invariance(self):
        series = [1000.0] * 10 + [1600.0] * 14 + [1000.0] * 10
        shifted = [value + 5000.0 for value in series]
        a = sizing.detect_rollover_plateaus(series)
        b = sizing.detect_rollover_plateaus(shifted)
        assert [(p.start_index, p.end_index) for p in a] == \
            [(p.start_index, p.end_index) for p in b]

    def test_two_plateaus_found(self):
        series = ([1000.0] * 5 + [1500.0] * 8 + [1000.0] * 5 +
                  [1700.0] * 9 + [1000.0] * 5)
        plateaus = sizing.detect_rollover_plateaus(series, min_days=7)
        assert len(plateaus) == 2

    def test_custom_thresholds(self):
        series = [100.0] * 4 + [240.0] * 4 + [100.0] * 4
        assert sizing.detect_rollover_plateaus(series) == []
        plateaus = sizing.detect_rollover_plateaus(series, min_days=3,
                                                   min_step_bytes=100)
        assert len(plateaus) == 1

    def test_estimate_stage_sizes_each_set_once(self, monkeypatch):
        # the plateau scan reuses the estimates of estimates.csv; an undated
        # set of the same owner stays out of its series
        calls = []
        size = sizing.estimate_any_response_size

        def counted(record_set, **kwargs):
            calls.append(record_set)
            return size(record_set, **kwargs)

        monkeypatch.setattr(sizing, "estimate_any_response_size", counted)
        sets = [record_set("a.example.", [("TXT", 60, 1300 if 3 <= d < 11 else 1000)],
                           day=f"2019-06-{d:02d}") for d in range(1, 15)]
        sets += [record_set("a.example.", [("TXT", 60, 5000)]),
                 record_set("b.example.", [("A", 300, 4)], day="2019-06-01")]
        result = pipeline.estimate(sets, pipeline.Settings())
        assert len(calls) == len(sets) == len(result["estimates.csv"])
        assert result["plateaus.csv"] == [("a.example.", "2019-06-03", "2019-06-10", 8, 300)]


class TestRecordSetIO:
    def test_jsonl_reader(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"date": "2019-06-01", "owner": "A.Example", "records": '
            '[{"type": "TXT", "ttl": 60, "rdata_len": 500}]}\n')
        sets = sizing.read_record_sets(str(path))
        assert len(sets) == 1
        assert sets[0].owner == "a.example."
        assert sets[0].day == "2019-06-01"
        assert sets[0].records[0].rdata_len == 500

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"date": "2019-06-01", "owner": "a.", "records": []}\n'
                        'garbage\n')
        with pytest.raises(ValueError, match="line 2"):
            sizing.read_record_sets(str(path))

    @pytest.mark.parametrize("date", ["20190601", '"junk"', '"20190601"', '"2019-W23-6"',
                                      "true", '["2019-06-01"]'])
    def test_date_not_an_iso_day_names_file_and_line(self, tmp_path, date):
        # `estimate` sorts by day, which fails on an integer beside a
        # string, and writes the day of each estimate as it was read
        path = tmp_path / "records.jsonl"
        path.write_text('{"date": "2019-06-01", "owner": "a.", "records": []}\n'
                        f'{{"date": {date}, "owner": "a.", "records": []}}\n')
        with pytest.raises(ValueError, match=r"records.jsonl line 2: key 'date': "):
            sizing.read_record_sets(str(path))

    def test_date_may_be_absent_or_null(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"owner": "a.", "records": []}\n'
                        '{"date": null, "owner": "a.", "records": []}\n')
        assert [s.day for s in sizing.read_record_sets(str(path))] == [None, None]

    def test_daily_series_ordered(self, tmp_path):
        path = tmp_path / "records.jsonl"
        lines = []
        for day, size in (("2019-06-02", 200), ("2019-06-01", 100)):
            lines.append(f'{{"date": "{day}", "owner": "a.example.", '
                         f'"records": [{{"type": "TXT", "ttl": 60, '
                         f'"rdata_len": {size}}}]}}')
        path.write_text("\n".join(lines) + "\n")
        series = sizing.daily_series((rs.day, sizing.estimate_any_response_size(rs))
                                     for rs in sizing.read_record_sets(str(path)))
        days = [day for day, _ in series["a.example."]]
        assert days == ["2019-06-01", "2019-06-02"]
        values = [value for _, value in series["a.example."]]
        assert values[1] - values[0] == 100
