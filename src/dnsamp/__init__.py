"""Detection and analysis of DNS reflection attacks in sampled flow traces.

The package is organized as a pipeline: parse and sanitize a packet trace,
build a consensus list of misused names, detect per-victim attack events,
then fingerprint, cluster, size, and cross-validate them. A deterministic
scenario generator provides ground truth for end-to-end evaluation.

Public names load their module on first access (PEP 562), so importing the
package loads no analysis module, and only `synth` loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "amplifiers": (
        "ClusterResult", "DistanceMatrix", "StableSetReport", "amplifier_inventory",
        "amplifier_sets", "churn_metrics", "classify_amplifier_role",
        "daily_amplifier_sets", "dbscan_cluster", "jaccard_distance_matrix",
        "recency_join", "stable_sets",
    ),
    "detector": (
        "AttackEvent", "DetectorConfig", "aggregate_client_days", "decile_ranks",
        "detect_attacks", "intensity_deciles", "read_events", "victim_summary",
        "visibility_curve", "write_events",
    ),
    "fingerprint": (
        "EntityFingerprint", "attribute_entity", "build_name_timeline",
        "classify_dnsid_pattern", "field_cardinality_profile",
        "parity_alternation_period", "pure_parity_probability",
    ),
    "honeypot": (
        "HoneypotEvent", "HoneypotRequest", "convergence_curve",
        "infer_honeypot_attacks", "intensity_comparison", "overlap",
        "read_honeypot_csv", "score_honeypot_deciles",
    ),
    "selectors": (
        "MisusedNameList", "SelectorRanking", "consensus_merge", "jaccard",
        "selector_any_volume", "selector_ground_truth", "selector_max_size",
    ),
    "sizing": (
        "RecordSet", "ZoneRecord", "detect_rollover_plateaus",
        "estimate_any_response_size", "rank_amplification", "request_size",
    ),
    "snoop": (
        "ProbeResponse", "classify_cache_state", "classify_responder",
        "sanitize_probe_responses", "two_way_cache_state",
    ),
    "synth": (
        "AttackSpec", "GroundTruth", "ScenarioConfig", "generate_scenario",
        "read_scenario", "synthetic_prefix_table",
    ),
    "trace": (
        "PacketRecord", "PrefixTable", "annotate", "parse_trace", "sanitize",
        "write_trace",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
