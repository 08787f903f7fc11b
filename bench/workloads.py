"""Seeded workload generator for the dnsamp benchmark.

Each workload is a `dnsamp.synth` scenario built from `ScenarioConfig` and
`AttackSpec` objects drawn from the seed. The program under test only sees
the files written here: `trace.jsonl`, `honeypot.csv`, `ground_truth.json`,
`prefixes.csv` and, for `event-log`, `fingerprint.json` (the benchmark then
adds the event log from a detection pass).

    python3 bench/workloads.py --workload NAME --seed N --out DIR --meta FILE

writes the inputs into DIR and, into FILE, their sizes, the corruption it
planted, the (victim, day) pairs the ground truth expects to be detected, and
the synth layer's generate and write times.
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import time
from pathlib import Path

import numpy as np

from dnsamp import honeypot as hp
from dnsamp import synth
from dnsamp import trace as tr

DAY_S = synth.DAY_S
TLDS = ("com", "net", "org", "ru", "io")


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(synth.derive_seed(seed, tag)))


def _names(rng: np.random.Generator, count: int, prefix: str) -> list[str]:
    return [f"{prefix}{i:02d}.{TLDS[int(rng.integers(len(TLDS)))]}." for i in range(count)]


def _victim(index: int) -> str:
    return f"10.{64 + index // 250}.{index % 250}.1"


# A name's ANY response size is a property of the name, and the names with the
# largest responses see the least attack volume, as in the acceptance suite's
# recall scenario. The max-size and ANY-volume selectors then disagree on
# their top name. When all three selectors agree on it, the consensus rule
# (smallest k of maximal agreement) stops at k* = 1 and the list loses every
# other misused name.
def _trace_attacks(rng: np.random.Generator, days: int,
                   sampled: tuple[float, float]) -> tuple[synth.AttackSpec, ...]:
    """40 attacks over 8 names, each attack's sampled packets drawn from `sampled`."""
    names = _names(rng, 8, "amp")
    attacks = []
    for i in range(40):
        j = i % len(names)
        duration = float(rng.uniform(1800.0, 5400.0))
        packets = float(rng.uniform(*sampled)) * (1.0 - 0.05 * j)
        attacks.append(synth.AttackSpec(
            victim_ip=_victim(i), qname=names[j], qps=packets * 16000.0 / duration,
            start_s=float(rng.uniform(0.0, days * DAY_S - duration)), duration_s=duration,
            amplifiers_per_attack=50, honeypot_visible=bool(i % 3 == 0),
            response_size=2600 + 200 * j))
    return tuple(attacks)


def backbone_day_config(seed: int) -> synth.ScenarioConfig:
    """Two days of few heavy clients, with attacks of a few hundred sampled packets."""
    return synth.ScenarioConfig(
        seed=seed, duration_days=2,
        attacks=_trace_attacks(_rng(seed, "bench/backbone-day"), 2, (150.0, 250.0)),
        background_clients=60, background_daily_rate=(1.0e6, 2.0e6),
        background_names=200, amplifier_pool_size=3000, sensor_count=8)


def longtail_dirty_config(seed: int) -> synth.ScenarioConfig:
    """One day of many light clients, 1-3 sampled packets each."""
    return synth.ScenarioConfig(
        seed=seed, duration_days=1,
        attacks=_trace_attacks(_rng(seed, "bench/longtail-dirty"), 1, (60.0, 100.0)),
        background_clients=12000, background_daily_rate=(8.0e3, 4.0e4),
        background_names=200, amplifier_pool_size=3000, sensor_count=8)


EVENT_LOG_ATTACKS = 700
EVENT_LOG_GROUPS = 20


def event_log_config(seed: int) -> synth.ScenarioConfig:
    """A week of low-rate attacks, each inside one UTC day, with mixed
    amplifier modes (pool, static, drift) and DNS-ID modes. The six booter
    names answer largest and carry a tenth of the attacks."""
    rng = _rng(seed, "bench/event-log")
    names = _names(rng, 30, "amp")
    booter_names = [f"b{i}.booter.example." for i in range(6)]
    attacks = []
    for i in range(EVENT_LOG_ATTACKS):
        day = i % 7
        duration = float(rng.uniform(900.0, 3600.0))
        sampled = float(rng.uniform(20.0, 32.0))
        booter = rng.random() < 0.1
        if booter:
            k = int(rng.integers(len(booter_names)))
            qname, size = booter_names[k], 3800 + 40 * k
            id_mode = ("pure_parity", "phased")[int(rng.integers(2))]
        else:
            k = int(rng.integers(len(names)))
            qname, size = names[k], 2500 + 20 * k
            id_mode = ("random", "random", "pure_parity", "phased")[int(rng.integers(4))]
        if rng.random() < 0.4:
            amp_mode, group, per_attack = ("static", "drift")[int(rng.integers(2))], \
                f"g{int(rng.integers(EVENT_LOG_GROUPS))}", 12
        else:
            amp_mode, group, per_attack = "pool", None, 30
        attacks.append(synth.AttackSpec(
            victim_ip=_victim(i), qname=qname, qps=sampled * 16000.0 / duration,
            start_s=day * DAY_S + float(rng.uniform(60.0, DAY_S - duration - 60.0)),
            duration_s=duration, amplifiers_per_attack=per_attack,
            dns_id_mode=id_mode, honeypot_visible=bool(rng.random() < 0.3),
            response_size=size, entity="booter" if booter else None,
            amplifier_mode=amp_mode, amplifier_group=group,
            drift_per_event=2 if amp_mode == "drift" else 0))
    return synth.ScenarioConfig(
        seed=seed, duration_days=7, attacks=tuple(attacks),
        background_clients=20, background_daily_rate=(2.0e5, 4.0e5),
        background_names=50, amplifier_pool_size=3000, sensor_count=8,
        sensor_coverage=(0.9, 0.9))


CONFIGS = {
    "backbone-day": backbone_day_config,
    "longtail-dirty": longtail_dirty_config,
    "event-log": event_log_config,
}

FINGERPRINT_SPEC = {"name_suffixes": ["booter.example."], "id_patterns": ["pure", "phased"]}
V6_PREFIX = ("2001:db8::/32", 64650)
V6_SHARE = 0.25
CORRUPT_SHARE = 0.03


def _background_client(ip: str) -> bool:
    return ipaddress.IPv4Address(ip) in ipaddress.IPv4Network("172.16.0.0/12")


def _move_to_v6(records: list[tr.PacketRecord], seed: int) -> None:
    """Give a share of background clients an IPv6 address, in place."""
    clients = sorted({r.client_ip for r in records if _background_client(r.client_ip)},
                     key=lambda ip: int(ipaddress.IPv4Address(ip)))
    picks = _rng(seed, "bench/v6-clients").random(len(clients)) < V6_SHARE
    moved = {ip: f"2001:db8:{i >> 16:x}:{i & 0xffff:x}::1"
             for i, (ip, pick) in enumerate(zip(clients, picks)) if pick}
    for record in records:
        new_ip = moved.get(record.client_ip)
        if new_ip is None:
            continue
        if record.is_response:
            record.dst_ip = new_ip
        else:
            record.src_ip = new_ip


def _write_dirty_trace(records: list[tr.PacketRecord], path: Path, seed: int,
                       victims: set[str]) -> tuple[int, int]:
    """Write the trace, corrupting a share of the lines of non-victim clients,
    so the ground truth still holds.

    Returns (planted_skipped, planted_dropped): lines `parse_trace` must skip
    (bad JSON or a wrong-typed field) and records `sanitize` must drop (valid
    types, invalid values)."""
    rng = _rng(seed, "bench/corrupt")
    rolls = rng.random(len(records))
    kinds = rng.integers(0, 6, size=len(records))
    skipped = dropped = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record, roll, kind in zip(records, rolls, kinds):
            obj = tr.record_to_obj(record)
            line = None
            if roll < CORRUPT_SHARE and record.client_ip not in victims:
                if kind == 0:
                    text = json.dumps(obj, separators=(",", ":"))
                    line = text[: len(text) // 2]
                elif kind == 1:
                    obj["src_port"] = str(obj["src_port"])
                elif kind == 2:
                    obj["qr"] = "yes"
                elif kind == 3:
                    obj["ip_ttl"] = 300
                elif kind == 4:
                    obj["rcode"] = 16
                else:
                    obj["dst_port"] = obj["src_port"] = 53
                if kind < 3:
                    skipped += 1
                else:
                    dropped += 1
            if line is None:
                line = json.dumps(obj, separators=(",", ":"))
            handle.write(line)
            handle.write("\n")
    return skipped, dropped


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs into `directory`. Returns their sizes, the
    planted corruption, the expected detections and the synth layer's times."""
    directory.mkdir(parents=True, exist_ok=True)
    cfg = CONFIGS[workload](seed)
    t0 = time.perf_counter()
    records, hp_requests, truth = synth.generate_scenario(cfg)
    prefixes = synth.synthetic_prefix_table(cfg)
    if workload == "longtail-dirty":
        _move_to_v6(records, seed)
        prefixes.append(V6_PREFIX)
    t1 = time.perf_counter()
    skipped = dropped = 0
    if workload == "longtail-dirty":
        skipped, dropped = _write_dirty_trace(records, directory / "trace.jsonl", seed,
                                              {spec.victim_ip for spec in cfg.attacks})
    else:
        tr.write_trace(records, str(directory / "trace.jsonl"))
    hp.write_honeypot_csv(hp_requests, str(directory / "honeypot.csv"))
    synth.write_truth(truth, str(directory / "ground_truth.json"))
    with open(directory / "prefixes.csv", "w", encoding="utf-8") as handle:
        handle.write("prefix,asn\n")
        for prefix, asn in prefixes:
            handle.write(f"{prefix},{asn}\n")
    if workload == "event-log":
        with open(directory / "fingerprint.json", "w", encoding="utf-8") as handle:
            json.dump(FINGERPRINT_SPEC, handle)
    t2 = time.perf_counter()
    return {
        "records": len(records),
        "client_ips": len({r.client_ip for r in records}),
        "honeypot_requests": len(hp_requests),
        "planted_skipped": skipped,
        "planted_dropped": dropped,
        "expected": truth.expected_detections(),
        "numpy": np.__version__,
        "timings": {"generate_s": t1 - t0, "write_s": t2 - t1},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one benchmark workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    parser.add_argument("--meta", required=True, help="JSON file for sizes and counts")
    args = parser.parse_args(argv)
    meta = generate(args.workload, args.seed, Path(args.out))
    with open(args.meta, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
