"""Deterministic synthetic scenario generator with exact ground truth.

Scenarios plant reflection attacks into benign background traffic and emit
what a 1:N packet-sampled vantage would record, plus the unsampled honeypot
view and a GroundTruth object holding every planted quantity. Sampling is
applied analytically per stream (binomial draw of the sampled count, uniform
placement), which is distributionally identical to thinning the full stream
packet by packet and keeps large scenarios cheap. Identical config and seed
always reproduce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import ipaddress
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter
from typing import Sequence

import numpy as np

from .fileio import from_obj, is_iso_day, read_json, to_obj, write_json
from .honeypot import HoneypotEvent, HoneypotRequest
from .records import PacketRecord, normalize_qname, qname_wire_length

DAY_S = 86400.0
QTYPE_ANY = 255
QTYPE_A = 1
QTYPE_AAAA = 28

DNS_ID_MODES = ("random", "pure_parity", "phased", "alternating_48h")
AMPLIFIER_MODES = ("pool", "static", "drift")

# Disjoint address blocks so streams never collide on client identity.
_AMPLIFIER_POOL_BASE = "198.18.0.1"
_GROUP_SET_BASE = "100.64.0.1"
_BACKGROUND_CLIENT_BASE = "172.16.0.1"
_BACKGROUND_SERVER_BASE = "192.0.2.1"
_BACKGROUND_SERVERS = 250


def derive_seed(base_seed: int, tag: str) -> int:
    """Per-stream seed: scenario seed XOR a stable 64-bit hash of the tag."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2 ** 64 - 1)


def _rng(base_seed: int, tag: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, tag)))


def _ip_range(base: str):
    start = int(ipaddress.IPv4Address(base))

    def at(index: int) -> str:
        value = start + index
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"{value} is not permitted as an IPv4 address")
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"

    return at


@dataclass(slots=True)
class AttackSpec:
    """One planted reflection attack against a single victim."""

    victim_ip: str
    qname: str
    qps: float
    start_s: float
    duration_s: float
    amplifiers_per_attack: int = 50
    dns_id_mode: str = "random"
    honeypot_visible: bool = False
    request_fraction: float = 0.5
    response_size: int = 4096
    benign_packets_per_day: int = 0
    entity: str | None = None
    amplifier_mode: str = "pool"
    amplifier_group: str | None = None
    drift_per_event: int = 0
    dns_id_pool: int | None = None
    ip_ttl: int | None = None
    honeypot_requests_per_sensor: int | None = None

    def __post_init__(self) -> None:
        self.qname = normalize_qname(self.qname)
        # the DNS IDs of the parity modes keep one bit fixed: 32768 to draw from
        ids = 65536 if self.dns_id_mode == "random" else 32768
        checks = (
            ("qps", "a number > 0", self.qps, self.qps > 0),
            ("qps", "a finite number", self.qps, self.qps < math.inf),
            ("start_s", "a number >= 0", self.start_s, self.start_s >= 0),
            ("duration_s", "a number > 0", self.duration_s, self.duration_s > 0),
            ("request_fraction", "a number in [0, 1]", self.request_fraction,
             0 <= self.request_fraction <= 1),
            ("amplifiers_per_attack", "an integer >= 1", self.amplifiers_per_attack,
             self.amplifiers_per_attack >= 1),
            ("dns_id_mode", f"one of {', '.join(map(repr, DNS_ID_MODES))}", self.dns_id_mode,
             self.dns_id_mode in DNS_ID_MODES),
            ("amplifier_mode", f"one of {', '.join(map(repr, AMPLIFIER_MODES))}",
             self.amplifier_mode, self.amplifier_mode in AMPLIFIER_MODES),
            ("response_size", "an integer >= 0", self.response_size, self.response_size >= 0),
            ("benign_packets_per_day", "an integer >= 0", self.benign_packets_per_day,
             self.benign_packets_per_day >= 0),
            ("dns_id_pool", f"null or an integer in [1, {ids}] for dns_id_mode "
             f"{self.dns_id_mode!r}", self.dns_id_pool,
             self.dns_id_pool is None or 1 <= self.dns_id_pool <= ids),
            ("ip_ttl", "null or an integer in [0, 255]", self.ip_ttl,
             self.ip_ttl is None or 0 <= self.ip_ttl <= 255),
            ("drift_per_event", "an integer >= 0", self.drift_per_event,
             self.drift_per_event >= 0),
            # honeypot inference drops a sensor's segment of fewer than 5 requests
            ("honeypot_requests_per_sensor", "null or an integer >= 5",
             self.honeypot_requests_per_sensor, self.honeypot_requests_per_sensor is None
             or self.honeypot_requests_per_sensor >= 5),
        )
        for key, expected, value, ok in checks:
            if not ok:
                raise ValueError(f"key {key!r}: expected {expected}, got {value!r}")
        if self.amplifier_mode != "pool" and self.amplifier_group is None:
            raise ValueError("static/drift amplifier modes need an amplifier_group")


@dataclass(slots=True)
class ScenarioConfig:
    seed: int
    duration_days: int
    attacks: tuple[AttackSpec, ...] = ()
    start_day: str = "2019-06-01"
    sampling_denominator: int = 16000
    background_clients: int = 40
    background_daily_rate: tuple[float, float] = (40000.0, 200000.0)
    background_names: int = 50
    background_any_fraction: float = 0.02
    amplifier_pool_size: int = 300
    churn_retention: float = 1.0
    sensor_count: int = 10
    honeypot_requests_per_sensor: int = 6
    sensor_coverage: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        self._check_ranges()
        total = self.duration_days * DAY_S
        # a static or drift group is one reflector set, of one size
        group_sizes: dict[str, tuple[int, int]] = {}
        for index, spec in enumerate(self.attacks):
            if spec.start_s + spec.duration_s > total:
                raise ValueError(
                    f"attack on {spec.victim_ip} ({spec.qname}) leaves the scenario window")
            if spec.amplifier_mode == "pool":
                if spec.amplifiers_per_attack > self.amplifier_pool_size:
                    raise ValueError(
                        f"attack on {spec.victim_ip} draws more amplifiers than the pool holds")
                continue
            size, first = group_sizes.setdefault(spec.amplifier_group,
                                                 (spec.amplifiers_per_attack, index))
            if spec.amplifiers_per_attack != size:
                raise ValueError(
                    f"key 'attacks': item {index}: key 'amplifiers_per_attack': expected "
                    f"{size} as in item {first} of amplifier_group {spec.amplifier_group!r}, "
                    f"got {spec.amplifiers_per_attack}")
        self._check_honeypot_spacing()

    def _check_ranges(self) -> None:
        # The scenario's shape and the numbers handed to numpy's draws; a
        # daily rate is rounded to the int64 count of a binomial draw.
        low, high = self.background_daily_rate
        checks = (
            ("start_day", "a YYYY-MM-DD string", self.start_day, is_iso_day(self.start_day)),
            ("duration_days", "an integer >= 1", self.duration_days, self.duration_days >= 1),
            ("sampling_denominator", "an integer >= 1", self.sampling_denominator,
             self.sampling_denominator >= 1),
            ("churn_retention", "a number in (0, 1]", self.churn_retention,
             0 < self.churn_retention <= 1),
            ("amplifier_pool_size", "an integer >= 1", self.amplifier_pool_size,
             self.amplifier_pool_size >= 1),
            ("sensor_count", "an integer >= 1", self.sensor_count, self.sensor_count >= 1),
            ("background_clients", "an integer >= 0", self.background_clients,
             self.background_clients >= 0),
            ("background_names", "an integer >= 1", self.background_names,
             self.background_names >= 1),
            ("background_daily_rate", "[low, high] with 0 <= low <= high < 2**63",
             list(self.background_daily_rate), 0 <= low <= high < 2 ** 63),
            ("background_any_fraction", "a number in [0, 1]", self.background_any_fraction,
             0 <= self.background_any_fraction <= 1),
            ("sensor_coverage", "two numbers in [0, 1]", list(self.sensor_coverage),
             all(0 <= value <= 1 for value in self.sensor_coverage)),
            # honeypot inference drops a sensor's segment of fewer than 5 requests
            ("honeypot_requests_per_sensor", "an integer >= 5",
             self.honeypot_requests_per_sensor, self.honeypot_requests_per_sensor >= 5),
        )
        for key, expected, value, ok in checks:
            if not ok:
                raise ValueError(f"key {key!r}: expected {expected}, got {value!r}")

    def _check_honeypot_spacing(self) -> None:
        # Visible same-victim attacks must not blur into one honeypot event.
        windows: dict[str, list[tuple[float, float]]] = {}
        for spec in self.attacks:
            if spec.honeypot_visible:
                windows.setdefault(spec.victim_ip, []).append(
                    (spec.start_s, spec.start_s + spec.duration_s))
        for victim, spans in windows.items():
            spans.sort()
            for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                if s1 - e0 <= 900.0:
                    raise ValueError(
                        f"visible attacks on {victim} are closer than the honeypot gap")

    @property
    def start_ts(self) -> float:
        moment = datetime.fromisoformat(self.start_day).replace(tzinfo=timezone.utc)
        return moment.timestamp()

    def day_str(self, index: int) -> str:
        moment = datetime.fromtimestamp(self.start_ts + index * DAY_S, tz=timezone.utc)
        return moment.date().isoformat()


@dataclass(slots=True)
class AttackTruth:
    attack_id: str
    victim_ip: str
    qname: str
    start_ts: float
    end_ts: float
    qps: float
    dns_id_mode: str
    entity: str | None
    honeypot_visible: bool
    original_packets: int
    sampled_packets: int
    sampled_requests: int
    sampled_responses: int
    daily_packets: dict[str, int]
    daily_amplifiers: dict[str, tuple[str, ...]]


@dataclass(slots=True)
class GroundTruth:
    attacks: list[AttackTruth]
    victim_day_counts: dict[tuple[str, str], tuple[int, int]]  # (victim, day) -> (total, misused)
    daily_amplifier_pools: dict[str, tuple[str, ...]]
    honeypot_events: list[HoneypotEvent]
    entities: dict[str, tuple[str, ...]]
    misused_names: tuple[str, ...]
    totals: dict[str, int] = field(default_factory=dict)

    def expected_detections(self, min_sampled_packets: int = 10,
                            share_threshold: float = 0.9) -> list[tuple[str, str]]:
        """(victim, day) pairs whose planted sampled footprint meets the
        detection thresholds."""
        hits = []
        for (victim, day), (total, misused) in sorted(self.victim_day_counts.items()):
            if misused == 0 or total < min_sampled_packets:
                continue
            if misused / total >= share_threshold:
                hits.append((victim, day))
        return hits


def _day_slices(cfg: ScenarioConfig, start: float, end: float) -> list[tuple[int, float, float]]:
    """(day_index, slice_start, slice_end) covering [start, end)."""
    base = cfg.start_ts
    first = int((start - base) // DAY_S)
    last = int(math.ceil((end - base) / DAY_S)) - 1
    slices = []
    for day in range(first, last + 1):
        lo = max(start, base + day * DAY_S)
        hi = min(end, base + (day + 1) * DAY_S)
        if hi > lo:
            slices.append((day, lo, hi))
    return slices


class _AmplifierPlan:
    """Daily shared pool plus private static/drift group sets."""

    def __init__(self, cfg: ScenarioConfig):
        self._cfg = cfg
        pool_ip = _ip_range(_AMPLIFIER_POOL_BASE)
        self._fresh_index = cfg.amplifier_pool_size
        self.daily_pools: list[list[str]] = []
        pool = [pool_ip(i) for i in range(cfg.amplifier_pool_size)]
        self.daily_pools.append(list(pool))
        for day in range(1, cfg.duration_days):
            rng = _rng(cfg.seed, f"pool-churn/{day}")
            survive = rng.random(len(pool)) < cfg.churn_retention
            pool = [ip for ip, keep in zip(pool, survive) if keep]
            while len(pool) < cfg.amplifier_pool_size:
                pool.append(pool_ip(self._fresh_index))
                self._fresh_index += 1
            self.daily_pools.append(list(pool))
        self._group_ip = _ip_range(_GROUP_SET_BASE)
        self._group_index = 0
        self._group_sets: dict[str, list[str]] = {}

    def event_set(self, spec: AttackSpec, attack_id: str, day: int) -> list[str]:
        if spec.amplifier_mode == "pool":
            rng = _rng(self._cfg.seed, f"amp-draw/{attack_id}/{day}")
            pool = self.daily_pools[day]
            picks = rng.choice(len(pool), size=spec.amplifiers_per_attack, replace=False)
            return [pool[i] for i in sorted(int(p) for p in picks)]
        group = spec.amplifier_group or ""
        members = self._group_sets.get(group)
        if members is None:
            members = [self._next_group_ip() for _ in range(spec.amplifiers_per_attack)]
            self._group_sets[group] = members
        elif spec.amplifier_mode == "drift":
            for _ in range(min(spec.drift_per_event, len(members))):
                members.pop(0)
                members.append(self._next_group_ip())
        return list(members)

    def _next_group_ip(self) -> str:
        ip = self._group_ip(self._group_index)
        self._group_index += 1
        return ip


def _dns_ids(cfg: ScenarioConfig, spec: AttackSpec, attack_id: str,
             day: int, count: int) -> np.ndarray:
    rng = _rng(cfg.seed, f"dns-ids/{attack_id}/{day}")
    mode = spec.dns_id_mode
    if mode == "random":
        if spec.dns_id_pool:
            pool_rng = _rng(cfg.seed, f"dns-id-pool/{attack_id}")
            pool = pool_rng.choice(65536, size=spec.dns_id_pool, replace=False)
            return pool[rng.integers(0, len(pool), size=count)]
        return rng.integers(0, 65536, size=count)

    if mode == "pure_parity":
        parity = derive_seed(cfg.seed, f"parity/{attack_id}") & 1
    elif mode == "alternating_48h":
        phase = derive_seed(cfg.seed, "alternating-phase") & 1
        parity = ((day // 2) + phase) & 1
    else:  # phased: one parity switch inside the event
        parity = derive_seed(cfg.seed, f"parity/{attack_id}/{day}") & 1

    def draw(parity_bit: int, n: int) -> np.ndarray:
        if spec.dns_id_pool:
            pool_rng = _rng(cfg.seed, f"dns-id-pool/{attack_id}/{parity_bit}")
            pool = parity_bit + 2 * pool_rng.choice(
                32768, size=spec.dns_id_pool, replace=False)
            return pool[rng.integers(0, len(pool), size=n)]
        return parity_bit + 2 * rng.integers(0, 32768, size=n)

    if mode in ("pure_parity", "alternating_48h"):
        return draw(parity, count)
    if count < 6:  # cannot host two segments of three; stay pure
        return draw(parity, count)
    cut_fraction = rng.uniform(0.35, 0.65)
    cut = min(max(int(round(count * cut_fraction)), 3), count - 3)
    return np.concatenate([draw(parity, cut), draw(parity ^ 1, count - cut)])


def _packet(ts: float, client: str, server: str, client_port: int, is_response: bool,
            ip_ttl: int, ip_id: int, udp_len: int, dns_id: int, qname: str, qtype: int,
            ancount: int, nscount: int) -> PacketRecord:
    """One packet of a client-server exchange: a request goes from the client
    to the server's port 53 and carries no answer or authority records; a
    response goes from port 53 back to the client."""
    if is_response:
        return PacketRecord(ts, server, client, 53, client_port, ip_ttl, ip_id, udp_len, True,
                            dns_id, qname, qtype, 0, ancount, nscount)
    return PacketRecord(ts, client, server, client_port, 53, ip_ttl, ip_id, udp_len, False,
                        dns_id, qname, qtype, 0, 0, 0)


def _attack_records(cfg: ScenarioConfig, spec: AttackSpec, attack_id: str,
                    plan: _AmplifierPlan,
                    truth: AttackTruth) -> list[PacketRecord]:
    start = cfg.start_ts + spec.start_s
    end = start + spec.duration_s
    n_orig = int(round(spec.qps * spec.duration_s))
    truth.original_packets = n_orig
    rng = _rng(cfg.seed, f"attack/{attack_id}")
    sampled = int(rng.binomial(n_orig, 1.0 / cfg.sampling_denominator))
    stamps = np.sort(rng.uniform(start, end, size=sampled))
    records: list[PacketRecord] = []
    req_wire = 12 + qname_wire_length(spec.qname) + 4 + 11  # EDNS OPT assumed
    day_indices = ((stamps - cfg.start_ts) // DAY_S).astype(int) if sampled else np.array([], dtype=int)
    for day in sorted(set(day_indices.tolist())):
        mask = day_indices == day
        day_stamps = stamps[mask].tolist()
        k = len(day_stamps)
        day_key = cfg.day_str(day)
        amp_set = plan.event_set(spec, attack_id, day)
        truth.daily_amplifiers[day_key] = tuple(sorted(amp_set))
        truth.daily_packets[day_key] = k
        event_rng = _rng(cfg.seed, f"attack-fields/{attack_id}/{day}")
        servers = [amp_set[i] for i in event_rng.permutation(len(amp_set)).tolist()]
        is_request = (event_rng.random(k) < spec.request_fraction).tolist()
        ids = _dns_ids(cfg, spec, attack_id, day, k).tolist()
        src_ports = event_rng.integers(1024, 65536, size=k).tolist()
        dst_ports = event_rng.integers(1024, 65536, size=k).tolist()
        ip_ids = event_rng.integers(0, 65536, size=k).tolist()
        ip_ttls = ([int(spec.ip_ttl)] * k if spec.ip_ttl is not None
                   else event_rng.integers(32, 256, size=k).tolist())
        ancounts = event_rng.integers(5, 26, size=k).tolist()
        nscounts = event_rng.integers(0, 3, size=k).tolist()
        for j in range(k):
            request = is_request[j]
            records.append(_packet(
                day_stamps[j], spec.victim_ip, servers[j % len(servers)],
                src_ports[j] if request else dst_ports[j], not request,
                ip_ttls[j], ip_ids[j],
                8 + (req_wire if request else spec.response_size), ids[j],
                spec.qname, QTYPE_ANY, ancounts[j], nscounts[j]))
        requests = sum(is_request)
        truth.sampled_requests += requests
        truth.sampled_responses += k - requests
    truth.sampled_packets = len(records)
    return records


class _BenignTables:
    """Per-scenario lookups for benign traffic: each name with the UDP length
    of its request, and the background servers' addresses."""

    def __init__(self, names: Sequence[str]):
        self.names = [(name, 8 + 12 + qname_wire_length(name) + 4) for name in names]
        server_at = _ip_range(_BACKGROUND_SERVER_BASE)
        self.servers = [server_at(i) for i in range(_BACKGROUND_SERVERS)]


# Bounds of the six integer fields of a benign packet, drawn in one call:
# response size, source port, DNS ID, IP ID, IP TTL and answer count.
_BENIGN_LOW = np.array([[80], [1024], [0], [0], [32], [1]])
_BENIGN_HIGH = np.array([[1200], [65536], [65536], [65536], [256], [5]])


def _benign_client_records(cfg: ScenarioConfig, client_ip: str, tag: str,
                           count: int, window: tuple[float, float],
                           tables: _BenignTables) -> list[PacketRecord]:
    # numpy fills bounded integers and doubles element by element in C order,
    # so each stacked call below draws the same values as one call per row.
    if count <= 0:
        return []
    rng = _rng(cfg.seed, tag)
    stamps = np.sort(rng.uniform(window[0], window[1], size=count)).tolist()
    name_picks, server_picks = rng.integers(
        0, [[len(tables.names)], [_BACKGROUND_SERVERS]], size=(2, count)).tolist()
    request_roll, any_roll, type_roll = rng.random((3, count)).tolist()
    sizes, src_ports, ids, ip_ids, ip_ttls, ancounts = rng.integers(
        _BENIGN_LOW, _BENIGN_HIGH, size=(6, count)).tolist()
    any_fraction = cfg.background_any_fraction
    records = []
    for j in range(count):
        qname, request_len = tables.names[name_picks[j]]
        if any_roll[j] < any_fraction:
            qtype = QTYPE_ANY
        else:
            qtype = QTYPE_A if type_roll[j] < 0.75 else QTYPE_AAAA
        request = request_roll[j] < 0.6
        records.append(_packet(
            stamps[j], client_ip, tables.servers[server_picks[j]], src_ports[j],
            not request, ip_ttls[j], ip_ids[j],
            request_len if request else 8 + sizes[j],
            ids[j], qname, qtype, ancounts[j], 0))
    return records


def _honeypot_requests(cfg: ScenarioConfig, spec: AttackSpec,
                       attack_id: str) -> tuple[list[HoneypotRequest], HoneypotEvent | None]:
    p0, decay = cfg.sensor_coverage
    count = spec.honeypot_requests_per_sensor
    if count is None:
        count = cfg.honeypot_requests_per_sensor
    start = cfg.start_ts + spec.start_s
    duration = spec.duration_s
    if duration > 850.0 * (count - 1):
        count = int(math.ceil(duration / 850.0)) + 1
    gap = duration / max(count - 1, 1)
    jitter = max(0.0, min(40.0, (890.0 - gap) / 2.0, gap / 2.0))
    requests: list[HoneypotRequest] = []
    seen_sensors: list[str] = []
    first_ts, last_ts, total = math.inf, -math.inf, 0
    for sensor_index in range(cfg.sensor_count):
        sensor_id = f"s{sensor_index:02d}"
        rng = _rng(cfg.seed, f"honeypot/{attack_id}/{sensor_id}")
        if rng.random() >= p0 * decay ** sensor_index:
            continue
        offsets = np.arange(count) * gap
        if jitter > 0:
            offsets = offsets + rng.uniform(-jitter, jitter, size=count)
        stamps = np.sort(np.clip(start + offsets, start, start + duration)).tolist()
        seen_sensors.append(sensor_id)
        for ts in stamps:
            requests.append(HoneypotRequest(
                ts=ts, sensor_id=sensor_id, victim_ip=spec.victim_ip,
                qname=spec.qname, qtype=QTYPE_ANY))
        first_ts = min(first_ts, stamps[0])
        last_ts = max(last_ts, stamps[-1])
        total += count
    if not seen_sensors:
        return [], None
    event = HoneypotEvent(
        victim_ip=spec.victim_ip, start=first_ts, end=last_ts,
        request_count=total, sensor_ids=tuple(sorted(seen_sensors)))
    return requests, event


def generate_scenario(cfg: ScenarioConfig) -> tuple[list[PacketRecord],
                                                    list[HoneypotRequest],
                                                    GroundTruth]:
    """Materialize the sampled trace, the honeypot log, and ground truth."""
    plan = _AmplifierPlan(cfg)
    background_client = _ip_range(_BACKGROUND_CLIENT_BASE)
    tables = _BenignTables([f"bg{i:03d}.example." for i in range(cfg.background_names)])
    base = cfg.start_ts

    records: list[PacketRecord] = []
    hp_requests: list[HoneypotRequest] = []
    truths: list[AttackTruth] = []
    hp_events: list[HoneypotEvent] = []
    entities: dict[str, list[str]] = {}
    counts = {"attack_records": 0, "background_records": 0, "benign_victim_records": 0}

    for index, spec in enumerate(cfg.attacks):
        attack_id = f"a{index:03d}"
        start = base + spec.start_s
        truth = AttackTruth(
            attack_id=attack_id, victim_ip=spec.victim_ip, qname=spec.qname,
            start_ts=start, end_ts=start + spec.duration_s, qps=spec.qps,
            dns_id_mode=spec.dns_id_mode, entity=spec.entity,
            honeypot_visible=spec.honeypot_visible,
            original_packets=0, sampled_packets=0, sampled_requests=0,
            sampled_responses=0, daily_packets={}, daily_amplifiers={})
        attack_records = _attack_records(cfg, spec, attack_id, plan, truth)
        counts["attack_records"] += len(attack_records)
        records.extend(attack_records)
        truths.append(truth)
        if spec.entity:
            entities.setdefault(spec.entity, []).append(attack_id)
        if spec.benign_packets_per_day:
            for day, lo, hi in _day_slices(cfg, start, start + spec.duration_s):
                benign = _benign_client_records(
                    cfg, spec.victim_ip, f"victim-benign/{attack_id}/{day}",
                    spec.benign_packets_per_day, (lo, hi), tables)
                counts["benign_victim_records"] += len(benign)
                records.extend(benign)
        if spec.honeypot_visible:
            reqs, event = _honeypot_requests(cfg, spec, attack_id)
            hp_requests.extend(reqs)
            if event is not None:
                hp_events.append(event)

    rate_rng = _rng(cfg.seed, "background-rates")
    rates = rate_rng.uniform(cfg.background_daily_rate[0],
                             cfg.background_daily_rate[1],
                             size=cfg.background_clients)
    for client_index, rate in enumerate(rates.tolist()):
        client_ip = background_client(client_index)
        for day in range(cfg.duration_days):
            day_rng = _rng(cfg.seed, f"background-count/{client_index}/{day}")
            sampled = int(day_rng.binomial(round(rate), 1.0 / cfg.sampling_denominator))
            window = (base + day * DAY_S, base + (day + 1) * DAY_S)
            benign = _benign_client_records(
                cfg, client_ip, f"background/{client_index}/{day}", sampled, window, tables)
            counts["background_records"] += len(benign)
            records.extend(benign)

    records.sort(key=attrgetter("ts", "src_ip", "dst_ip", "src_port", "dst_port", "dns_id"))
    hp_requests.sort(key=lambda r: (r.ts, r.sensor_id, r.victim_ip))
    hp_events.sort(key=lambda e: (e.start, e.victim_ip))

    misused_names = tuple(sorted({spec.qname for spec in cfg.attacks}))
    victim_set = {spec.victim_ip for spec in cfg.attacks}
    victim_day: dict[tuple[str, str], list[int]] = {}
    for record in records:
        client = record.client_ip
        if client in victim_set:
            entry = victim_day.setdefault((client, record.day), [0, 0])
            entry[0] += 1
            if record.qname in misused_names:
                entry[1] += 1

    truth = GroundTruth(
        attacks=truths,
        victim_day_counts={key: (total, misused)
                           for key, (total, misused) in sorted(victim_day.items())},
        daily_amplifier_pools={cfg.day_str(day): tuple(sorted(pool))
                               for day, pool in enumerate(plan.daily_pools)},
        honeypot_events=hp_events,
        entities={name: tuple(ids) for name, ids in sorted(entities.items())},
        misused_names=misused_names,
        totals={"trace_records": len(records), **counts},
    )
    return records, hp_requests, truth


def synthetic_prefix_table(cfg: ScenarioConfig) -> list[tuple[str, int]]:
    """CIDR->ASN rows covering every address family the generator emits."""
    rows = [
        ("198.18.0.0/15", 64600),
        ("100.64.0.0/10", 64601),
        ("172.16.0.0/12", 64602),
        ("192.0.2.0/24", 64603),
    ]
    victim_nets = sorted({".".join(spec.victim_ip.split(".")[:2]) + ".0.0/16"
                          for spec in cfg.attacks})
    rows.extend((net, 64700 + i) for i, net in enumerate(victim_nets))
    return rows


# --- configuration and ground-truth serialization -------------------------

def scenario_from_obj(obj: dict, where: str = "scenario") -> ScenarioConfig:
    """A scenario from its JSON form; unknown keys and wrong-typed values
    raise ValueError. dataclasses.asdict() gives the JSON form back."""
    return from_obj(ScenarioConfig, obj, where)


def read_scenario(path: str) -> ScenarioConfig:
    return scenario_from_obj(read_json(path), path)


@dataclass(frozen=True)
class _VictimDayCount:
    victim_ip: str
    day: str
    total: int
    misused: int


@dataclass(frozen=True)
class _TruthFile:
    """ground_truth.json as written: victim_day_counts, keyed by tuples, as rows."""
    attacks: tuple[AttackTruth, ...]
    victim_day_counts: tuple[_VictimDayCount, ...]
    daily_amplifier_pools: dict[str, tuple[str, ...]]
    honeypot_events: tuple[HoneypotEvent, ...]
    entities: dict[str, tuple[str, ...]]
    misused_names: tuple[str, ...]
    totals: dict[str, int]


def truth_to_obj(truth: GroundTruth) -> dict:
    return {
        "attacks": [to_obj(t) for t in truth.attacks],
        "victim_day_counts": [
            to_obj(_VictimDayCount(victim, day, total, misused))
            for (victim, day), (total, misused) in sorted(truth.victim_day_counts.items())
        ],
        "daily_amplifier_pools": dict(sorted(truth.daily_amplifier_pools.items())),
        # the planted events carry no intensity score
        "honeypot_events": [
            {key: value for key, value in to_obj(e).items() if key != "intensity_decile"}
            for e in truth.honeypot_events
        ],
        "entities": dict(sorted(truth.entities.items())),
        "misused_names": truth.misused_names,
        "totals": dict(sorted(truth.totals.items())),
    }


def write_truth(truth: GroundTruth, path: str) -> None:
    write_json(truth_to_obj(truth), path)


def read_truth(path: str) -> GroundTruth:
    stored = from_obj(_TruthFile, read_json(path), path)
    return GroundTruth(
        attacks=list(stored.attacks),
        victim_day_counts={(row.victim_ip, row.day): (row.total, row.misused)
                           for row in stored.victim_day_counts},
        daily_amplifier_pools=stored.daily_amplifier_pools,
        honeypot_events=list(stored.honeypot_events),
        entities=stored.entities,
        misused_names=stored.misused_names,
        totals=stored.totals,
    )
