"""Acceptance gate: eleven end-to-end criteria, one test and one printed
verdict line each.

Every criterion runs the real public API (or the real CLI) against either a
hand-computed value or the synthetic generator's ground truth. Tolerances are
pinned in the asserts; a test prints its PASS line only after every assert in
it has held.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dnsamp import amplifiers as amp
from dnsamp import detector as det
from dnsamp import fingerprint as fp
from dnsamp import honeypot as hp
from dnsamp import selectors as sel
from dnsamp import sizing
from dnsamp import synth
from dnsamp import trace as tr
from oracles import check_dbscan_labels, dbscan_reference, wire_any_response

DATA = Path(__file__).parent / "data"


def verdict(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


# --- 1: detection recall over 50 seed-varied scenarios ---------------------

def _recall_scenario(seed: int) -> synth.ScenarioConfig:
    base = [("10.1.0.1", "alpha.example.", 6000.0, 3600.0, 2000),
            ("10.2.0.1", "beta.example.", 4000.0, 14400.0, 3000),
            ("10.3.0.1", "gamma.example.", 2500.0, 90000.0, 4000)]
    specs = []
    for i, (victim, qname, qps, start, size) in enumerate(base):
        specs.append(synth.AttackSpec(
            victim_ip=victim, qname=qname,
            qps=qps + 37.0 * ((seed + i) % 9),
            start_s=start + 600.0 * ((seed + i) % 5),
            duration_s=7200.0, honeypot_visible=True, response_size=size))
    return synth.ScenarioConfig(
        seed=seed, duration_days=2, attacks=tuple(specs),
        background_clients=6, background_daily_rate=(200000.0, 400000.0),
        background_names=10, amplifier_pool_size=60, sensor_count=3)


def test_c01_detection_recall(capsys):
    planted = found = 0
    slowest = 0.0
    for seed in range(101, 151):
        started = time.monotonic()
        cfg = _recall_scenario(seed)
        records, hp_requests, truth = synth.generate_scenario(cfg)
        rankings = [sel.selector_max_size(records),
                    sel.selector_any_volume(records)]
        hp_events = hp.infer_honeypot_attacks(hp_requests)
        rankings.append(sel.selector_ground_truth(records, hp_events,
                                                  slack_s=300.0))
        names = sel.consensus_merge(rankings, k_max=64).name_set()
        stats = det.aggregate_client_days(records, names)
        events = det.detect_attacks(stats, det.DetectorConfig())
        detected = {(e.victim_ip, e.day) for e in events}
        expected = set(truth.expected_detections())
        planted += len(expected)
        found += len(expected & detected)
        elapsed = time.monotonic() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 120.0, f"scenario seed={seed} took {elapsed:.1f}s"
    assert planted >= 150
    recall = found / planted
    assert recall >= 0.99, f"recall {recall:.4f} over {planted} planted attacks"
    verdict(capsys, f"ACCEPTANCE 1: PASS — recall {recall:.4f} "
                    f"({found}/{planted} planted attacks, 50 scenarios, "
                    f"slowest {slowest:.2f}s < 120s)")


# --- 2: threshold arithmetic, exact -----------------------------------------

def test_c02_extrapolation_arithmetic(capsys):
    base = dict(src_port=40000, dst_port=53, ip_ttl=60, ip_id=7, udp_len=60,
                is_response=False, qtype=255, rcode=0, ancount=0, nscount=0)
    records = [tr.PacketRecord(ts=1000.0 + i, src_ip="10.0.0.1",
                               dst_ip="198.18.0.1", dns_id=2 * i + 1,
                               qname="evil.example.", **base)
               for i in range(9)]
    records.append(tr.PacketRecord(ts=1011.0, src_ip="10.0.0.1",
                                   dst_ip="198.18.0.2", dns_id=4,
                                   qname="benign.example.", **base))
    stats = det.aggregate_client_days(records, {"evil.example."})
    events = det.detect_attacks(stats, det.DetectorConfig())
    assert len(events) == 1
    estimate = events[0].est_misused_packets
    assert isinstance(estimate, int)
    assert estimate == 144000
    verdict(capsys, "ACCEPTANCE 2: PASS — 10 sampled packets, 9 misused "
                    "(share 0.9) -> exactly 144000 estimated originals")


# --- 3: parity false-positive rate over 10^5 events -------------------------

def test_c03_parity_false_positive_rate(capsys):
    trials, n = 100_000, 9
    rng = np.random.default_rng(9090)
    ids = rng.integers(0, 65536, size=(trials, n))
    pure = sum(
        1 for row in ids
        if fp.classify_dnsid_pattern([int(v) for v in row]).kind
        in (fp.PATTERN_PURE_ODD, fp.PATTERN_PURE_EVEN)
    )
    p = 2.0 * 0.5 ** n
    rate = pure / trials
    bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    assert abs(rate - p) <= bound, f"rate {rate:.6f} vs {p:.6f} ±{bound:.6f}"
    verdict(capsys, f"ACCEPTANCE 3: PASS — pure-parity rate {rate * 100:.4f}% "
                    f"vs 2*(1/2)^9 = {p * 100:.4f}% (|diff| <= 3 binomial SD "
                    f"= {bound * 100:.4f}%)")


# --- 4: consensus recovers k*=29 exactly -------------------------------------

def test_c04_consensus_k_star(capsys):
    shared = [f"n{i:02d}.example." for i in range(29)]
    rankings = []
    for idx, (rotation, tail) in enumerate(((0, "x"), (10, "y"), (20, "z"))):
        ordered = shared[rotation:] + shared[:rotation]
        ordered += [f"{tail}{i}.example." for i in range(20)]
        scores = tuple((q, float(len(ordered) - i))
                       for i, q in enumerate(ordered))
        rankings.append(sel.SelectorRanking(f"s{idx}", scores))
    merged = sel.consensus_merge(rankings, k_max=64)
    assert merged.k_star == 29
    assert merged.name_set() == set(shared)
    curve = dict(merged.curve)
    assert curve[29] == 1.0
    assert all(value < 1.0 for k, value in merged.curve if k != 29)
    verdict(capsys, "ACCEPTANCE 4: PASS — three selectors agreeing as sets "
                    "only at 29 names yield k*=29 (exact, curve peak 1.0)")


# --- 5: density clustering equals brute-force reference ---------------------

def test_c05_dbscan_oracle_equivalence(capsys):
    rng = random.Random(505)
    universe = list(range(14))
    checked = 0
    for _ in range(200):
        n = rng.randint(4, 64)
        sets = [frozenset(rng.sample(universe, rng.randint(1, 10)))
                for _ in range(n)]
        matrix = amp.jaccard_distance_matrix(sets)
        eps = rng.choice([0.3, 0.4, 0.5, 0.6, 0.8])
        min_pts = rng.choice([2, 3, 4, 5, 6])
        result = amp.dbscan_cluster(matrix, eps=eps, min_pts=min_pts)
        reference = dbscan_reference(matrix, eps, min_pts)
        check_dbscan_labels(result.labels, reference)
        checked += 1
    assert checked == 200
    verdict(capsys, "ACCEPTANCE 5: PASS — 200 random <=64-point instances "
                    "match the brute-force reference up to renaming (exact, "
                    "ambiguous borders validated against candidate sets)")


# --- 6: churn retention recovered within ±0.03 -------------------------------

def test_c06_churn_recovery(capsys):
    measured = {}
    for i, retention in enumerate((0.45, 0.8, 1.0)):
        cfg = synth.ScenarioConfig(
            seed=600 + i, duration_days=30, attacks=(),
            background_clients=0, amplifier_pool_size=300,
            churn_retention=retention, sensor_count=1)
        _, _, truth = synth.generate_scenario(cfg)
        daily = {day: set(pool)
                 for day, pool in truth.daily_amplifier_pools.items()}
        assert len(daily) == 30
        report = amp.churn_metrics(daily)
        assert len(report.overlaps) == 29
        error = abs(report.mean_overlap - retention)
        assert error <= 0.03, (f"retention {retention}: measured "
                               f"{report.mean_overlap:.4f}, error {error:.4f}")
        measured[retention] = report.mean_overlap
    shown = ", ".join(f"{k}->{v:.3f}" for k, v in measured.items())
    verdict(capsys, f"ACCEPTANCE 6: PASS — 30-day mean day-over-day overlap "
                    f"recovers planted retention within ±0.03 ({shown})")


# --- 7: size model bit-exact against wire-format oracle ---------------------

def test_c07_size_model_oracle(capsys):
    rng = random.Random(707)
    types = ["A", "NS", "CNAME", "SOA", "MX", "TXT", "AAAA", "RRSIG",
             "DNSKEY", "NSEC"]
    for _ in range(100):
        labels = ["".join(rng.choices("abcdefghij", k=rng.randint(1, 12)))
                  for _ in range(rng.randint(1, 5))]
        owner = ".".join(labels) + "."
        triples = [(rng.choice(types), rng.randint(0, 86400),
                    rng.randint(0, 2000))
                   for _ in range(rng.randint(0, 15))]
        records = tuple(sizing.ZoneRecord(rr_type=t, ttl=ttl, rdata_len=n)
                        for t, ttl, n in triples)
        estimate = sizing.estimate_any_response_size(
            sizing.RecordSet(owner=owner, records=records))
        assert estimate.est_bytes == len(wire_any_response(owner, triples)), \
            f"owner {owner} with {len(triples)} records"
    verdict(capsys, "ACCEPTANCE 7: PASS — 100 random record sets match "
                    "independently built uncompressed wire messages "
                    "byte-for-byte (exact)")


# --- 8: honeypot segmentation exact at its boundaries ------------------------

def test_c08_honeypot_boundaries(capsys):
    def reqs(victim, sensor, stamps):
        return [hp.HoneypotRequest(ts=t, sensor_id=sensor, victim_ip=victim,
                                   qname="evil.example.", qtype=255)
                for t in stamps]

    # gaps of exactly 900 s hold one event together
    held = hp.infer_honeypot_attacks(
        reqs("10.0.0.1", "s1", [0.0, 900.0, 1800.0, 2700.0, 3600.0]))
    assert held == [hp.HoneypotEvent(victim_ip="10.0.0.1", start=0.0,
                                     end=3600.0, request_count=5,
                                     sensor_ids=("s1",))]

    # one gap a hair over 900 s splits into 2+3, both under the minimum
    split = hp.infer_honeypot_attacks(
        reqs("10.0.0.1", "s1", [0.0, 900.0, 1800.5, 2700.5, 3600.5]))
    assert split == []

    # four requests never form an event at the default minimum
    short = hp.infer_honeypot_attacks(
        reqs("10.0.0.1", "s1", [0.0, 100.0, 200.0, 300.0]))
    assert short == []

    # same victim across sensors: touching segments merge, counts add
    merged = hp.infer_honeypot_attacks(
        reqs("10.0.0.1", "s1", [0.0, 800.0, 1600.0, 2400.0, 3200.0])
        + reqs("10.0.0.1", "s2", [3200.0, 4000.0, 4800.0, 5600.0, 6400.0]))
    assert merged == [hp.HoneypotEvent(victim_ip="10.0.0.1", start=0.0,
                                       end=6400.0, request_count=10,
                                       sensor_ids=("s1", "s2"))]

    # different victims never merge
    separate = hp.infer_honeypot_attacks(
        reqs("10.0.0.1", "s1", [0.0, 100.0, 200.0, 300.0, 400.0])
        + reqs("10.0.0.2", "s1", [0.0, 100.0, 200.0, 300.0, 400.0]))
    assert len(separate) == 2
    assert {e.victim_ip for e in separate} == {"10.0.0.1", "10.0.0.2"}

    verdict(capsys, "ACCEPTANCE 8: PASS — 5-request / 900-s segmentation "
                    "matches hand computation at every boundary (exact)")


# --- 9: trace/honeypot overlap within ±1 event ------------------------------

def _overlap_scenario(seed: int, visible_count: int) -> synth.ScenarioConfig:
    specs = []
    for i in range(50):
        specs.append(synth.AttackSpec(
            victim_ip=f"10.{i + 1}.0.1", qname=f"n{i:02d}.example.",
            qps=1000.0, start_s=2000.0 + 1600.0 * i, duration_s=1200.0,
            honeypot_visible=i < visible_count))
    return synth.ScenarioConfig(
        seed=seed, duration_days=1, attacks=tuple(specs),
        background_clients=0, amplifier_pool_size=120, sensor_count=3)


def test_c09_overlap_fidelity(capsys):
    results = {}
    for fraction in (0.04, 0.10, 0.50):
        visible = round(50 * fraction)
        cfg = _overlap_scenario(int(900 + 100 * fraction), visible)
        records, hp_requests, truth = synth.generate_scenario(cfg)
        stats = det.aggregate_client_days(records, set(truth.misused_names))
        events = det.detect_attacks(stats, det.DetectorConfig())
        assert len(events) == 50  # every planted attack surfaces in the trace
        hp_events = hp.infer_honeypot_attacks(hp_requests)
        report = hp.overlap(events, hp_events, slack_s=300.0)
        assert abs(report.mutual_count - visible) <= 1, \
            (f"visible fraction {fraction}: measured {report.mutual_count}, "
             f"planted {visible}")
        results[fraction] = (report.mutual_count, visible)
    shown = ", ".join(f"{f}: {m}/{v}" for f, (m, v) in results.items())
    verdict(capsys, f"ACCEPTANCE 9: PASS — mutual events within ±1 of planted "
                    f"visible counts ({shown})")


# --- 10: entity attribution exact on planted ground truth --------------------

def test_c10_entity_attribution(capsys):
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
        # matching name but random IDs: must be rejected on the pattern leg
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
    assert len(events) == 30

    fingerprint = fp.EntityFingerprint(name_suffixes=("gov.",),
                                       id_patterns=("pure", "phased"))
    attributed, share, _ = fp.attribute_entity(events, fingerprint)
    got = {(e.victim_ip, e.day) for e in attributed}
    want = {("10.7.0.1", cfg.day_str(day)) for day in range(10)}
    assert got == want  # precision = recall = 1.0
    assert share == 10 / 30

    timeline = fp.build_name_timeline(attributed)
    assert timeline.parity_period_days == 2
    verdict(capsys, "ACCEPTANCE 10: PASS — planted entity recovered with "
                    "precision 1.0 and recall 1.0 (10/10 events, gov-name "
                    "decoy rejected); 48h parity period = 2 days exactly")


# --- 11: byte-identical reruns of every CLI stage ----------------------------

def _cli(args: list[str], hashseed: int) -> None:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dnsamp.cli import main; sys.exit(main(sys.argv[1:]))"]
        + args, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, f"{args}: {proc.stderr}"


def test_c11_stage_determinism(capsys, tmp_path):
    spec = tmp_path / "entity.json"
    spec.write_text(json.dumps({"name_suffixes": ["alpha.example."]}))
    runs = {name: tmp_path / name for name in ("A", "B")}

    def stage_args(root: Path, inputs: Path) -> list[tuple[str, list[str]]]:
        gen, ing, sel_d, det_d = (inputs / "gen", inputs / "ing",
                                  inputs / "sel", inputs / "det")
        return [
            ("gen", ["synth", "--scenario", str(DATA / "scenario_small.json"),
                     "--out-dir", str(root / "gen")]),
            ("ing", ["ingest", "--trace", str(gen / "trace.jsonl"),
                     "--prefix-table", str(gen / "prefixes.csv"),
                     "--out-dir", str(root / "ing")]),
            ("sel", ["select-names", "--trace", str(ing / "annotated.jsonl"),
                     "--honeypot", str(gen / "honeypot.csv"),
                     "--out-dir", str(root / "sel")]),
            ("det", ["detect", "--trace", str(ing / "annotated.jsonl"),
                     "--names", str(sel_d / "names.json"),
                     "--prefix-table", str(gen / "prefixes.csv"),
                     "--out-dir", str(root / "det")]),
            ("fp", ["fingerprint", "--attacks", str(det_d / "attacks.jsonl"),
                    "--fingerprint-spec", str(spec),
                    "--out-dir", str(root / "fp")]),
            ("cl", ["cluster", "--attacks", str(det_d / "attacks.jsonl"),
                    "--out-dir", str(root / "cl")]),
            ("est", ["estimate", "--records",
                     str(DATA / "record_sets_small.jsonl"),
                     "--reference-names", str(DATA / "reference_names.txt"),
                     "--out-dir", str(root / "est")]),
            ("sn", ["snoop", "--responses", str(DATA / "probes_small.jsonl"),
                    "--ttl-table", str(DATA / "default_ttls.csv"),
                    "--out-dir", str(root / "sn")]),
            ("cmp", ["compare", "--attacks", str(det_d / "attacks.jsonl"),
                     "--honeypot", str(gen / "honeypot.csv"),
                     "--out-dir", str(root / "cmp")]),
            ("rep", ["report", "--attacks", str(det_d / "attacks.jsonl"),
                     "--names", str(sel_d / "names.json"),
                     "--trace", str(ing / "annotated.jsonl"),
                     "--out-dir", str(root / "rep")]),
        ]

    # both runs consume run A's upstream artifacts, so each stage sees
    # byte-identical inputs; different hash seeds catch ordering that
    # leans on Python's randomized str hashing
    for hashseed, root in ((1, runs["A"]), (2, runs["B"])):
        for _, args in stage_args(root, runs["A"]):
            _cli(args, hashseed)

    files = 0
    stages = [name for name, _ in stage_args(runs["A"], runs["A"])]
    for stage in stages:
        a_dir, b_dir = runs["A"] / stage, runs["B"] / stage
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        assert a_files, f"stage {stage} produced no files"
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), \
                f"stage {stage}: {name} differs between reruns"
            files += 1
    verdict(capsys, f"ACCEPTANCE 11: PASS — {len(stages)} CLI stages rerun "
                    f"byte-identical across processes with different hash "
                    f"seeds ({files} files compared)")
