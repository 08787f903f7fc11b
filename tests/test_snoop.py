"""Cache-snooping probe sanitization and classification."""

import json

import pytest

from dnsamp import snoop

DEFAULTS = {"probe.example.": 300, "other.example.": 600}


def probe(responder="203.0.113.10", target="203.0.113.9",
          echoed="93.184.216.34", qname="probe.example.",
          ttls=(("A", 120),), rcode=0, ts=1.0):
    return snoop.ProbeResponse(target_ip=target, responder_ip=responder,
                               echoed_a_record=echoed, qname=qname,
                               answer_ttls=tuple(ttls), rcode=rcode, ts=ts)


class TestSanitize:
    def keep(self, responses):
        kept, dropped = snoop.sanitize_probe_responses(responses, DEFAULTS)
        return kept, dropped

    def test_clean_response_kept(self):
        kept, dropped = self.keep([probe()])
        assert len(kept) == 1 and dropped == 0

    def test_nonzero_rcode_dropped(self):
        kept, dropped = self.keep([probe(rcode=3)])
        assert not kept and dropped == 1

    def test_implausible_echo_dropped(self):
        for bad in ("127.0.0.1", "10.1.2.3", "224.0.0.5", "0.0.0.0",
                    "169.254.1.1", "255.255.255.255"):
            kept, dropped = self.keep([probe(echoed=bad)])
            assert not kept, f"{bad} should be dropped"

    def test_missing_echo_kept_but_unclassifiable(self):
        kept, dropped = self.keep([probe(echoed=None)])
        assert len(kept) == 1 and dropped == 0
        assert snoop.classify_responder(kept[0]) == "unclassified"

    def test_ttl_above_default_dropped(self):
        kept, dropped = self.keep([probe(ttls=(("A", 301),))])
        assert not kept and dropped == 1
        # unknown qname has no ceiling to enforce
        kept, dropped = self.keep([probe(qname="mystery.example.",
                                         ttls=(("A", 4000),))])
        assert len(kept) == 1

    def test_duplicate_responders_keep_first_by_time(self):
        first = probe(ts=5.0, ttls=(("A", 100),))
        second = probe(ts=9.0, ttls=(("A", 200),))
        kept, dropped = self.keep([second, first])
        assert kept == [first]
        assert dropped == 1

    def test_distinct_responders_both_kept(self):
        kept, _ = self.keep([probe(), probe(responder="203.0.113.11")])
        assert len(kept) == 2


class TestClassification:
    def test_resolver_vs_forwarder(self):
        own = probe(echoed="203.0.113.10")
        assert snoop.classify_responder(own) == "resolver"
        other = probe(echoed="93.184.216.34")
        assert snoop.classify_responder(other) == "forwarder"

    def test_cache_states_three_way(self):
        hit = probe(ttls=(("A", 120), ("A", 250)))
        miss = probe(ttls=(("A", 300), ("A", 300)))
        mixed = probe(ttls=(("A", 120), ("A", 300)))
        assert snoop.classify_cache_state(hit, 300) == "hit"
        assert snoop.classify_cache_state(miss, 300) == "miss"
        assert snoop.classify_cache_state(mixed, 300) == "unknown"

    def test_cache_state_unknown_without_default(self):
        response = probe(qname="mystery.example.")
        assert snoop.classify_cache_state(response, None) == "unknown"

    def test_two_way_folds_unknown_into_hit(self):
        mixed = probe(ttls=(("A", 120), ("A", 300)))
        assert snoop.two_way_cache_state(mixed, 300) == "hit"
        miss = probe(ttls=(("A", 300),))
        assert snoop.two_way_cache_state(miss, 300) == "miss"

    def test_two_way_unknown_without_answers_or_default(self):
        empty = probe(ttls=())
        assert snoop.two_way_cache_state(empty, 300) == "unknown"
        nodefault = probe(qname="mystery.example.")
        assert snoop.two_way_cache_state(nodefault, None) == "unknown"

    def test_error_floor_on_boundary_ttls(self):
        # a record observed the instant it was cached still carries the
        # default TTL, so a fresh hit is indistinguishable from a miss;
        # the three-way split must file it as miss, never hit
        fresh = probe(ttls=(("A", 300),))
        assert snoop.classify_cache_state(fresh, 300) == "miss"

    def test_classification_table_sorted_and_complete(self):
        responses = [
            probe(responder="203.0.113.20", target="203.0.113.20",
                  echoed="203.0.113.20"),
            probe(responder="203.0.113.10"),
        ]
        rows = snoop.classification_table(responses, DEFAULTS)
        assert [row["responder_ip"] for row in rows] == \
            ["203.0.113.10", "203.0.113.20"]
        assert rows[1]["role"] == "resolver"
        assert rows[0]["role"] == "forwarder"
        assert {"cache", "cache_two_way", "qname", "target_ip"} <= set(rows[0])


class TestIO:
    def test_read_probe_responses(self, tmp_path):
        path = tmp_path / "probes.jsonl"
        lines = [
            json.dumps({"target_ip": "203.0.113.9",
                        "responder_ip": "203.0.113.10",
                        "echoed_a_record": "93.184.216.34",
                        "qname": "Probe.Example", "answer_ttls": [["A", 120]],
                        "rcode": 0, "ts": 1.5}),
            "not json",
        ]
        path.write_text("\n".join(lines) + "\n")
        responses, skipped = snoop.read_probe_responses(str(path))
        assert skipped == 1
        assert responses[0].qname == "probe.example."
        assert responses[0].answer_ttls == (("A", 120),)

    def test_unconvertible_numbers_are_skipped(self, tmp_path):
        # Infinity cannot become an int, and deep nesting exceeds json's
        # recursion limit; both count as malformed lines
        path = tmp_path / "probes.jsonl"
        path.write_text('{"target_ip": "203.0.113.9", "responder_ip": "203.0.113.10", '
                        '"qname": "probe.example.", "answer_ttls": [], "rcode": Infinity}\n'
                        + "[" * 100000 + "\n")
        assert snoop.read_probe_responses(str(path)) == ([], 2)

    def test_read_default_ttls(self, tmp_path):
        path = tmp_path / "ttls.csv"
        path.write_text("qname,ttl\nProbe.Example,300\n")
        table = snoop.read_default_ttls(str(path))
        assert table == {"probe.example.": 300}

    def test_read_default_ttls_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "ttls.csv"
        path.write_text("qname,ttl\nprobe.example.,fast\n")
        with pytest.raises(ValueError):
            snoop.read_default_ttls(str(path))

    # int() would read each of these as a number
    @pytest.mark.parametrize("ttl", ["3_00", "-5", "+300", "\u0663\u0660\u0660"],
                             ids=["underscore", "negative", "plus", "arabic-indic"])
    def test_read_default_ttls_takes_ascii_digits_only(self, tmp_path, ttl):
        path = tmp_path / "ttls.csv"
        path.write_text(f"qname,ttl\nprobe.example., 300 \nb.example.,{ttl}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            snoop.read_default_ttls(str(path))
        assert str(info.value) == f"ttl table line 3: bad ttl {ttl!r}"
