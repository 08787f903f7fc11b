"""Library keyword defaults that restate a `pipeline.Settings` key.

The demos call the library with its defaults, and the CLI with the defaults
of `Settings`, so the two must agree for the demos to match the CLI.
"""

import inspect

import pytest

from dnsamp import amplifiers as amp
from dnsamp import detector as det
from dnsamp import fingerprint as fp
from dnsamp import honeypot as hp
from dnsamp import selectors as sel
from dnsamp import sizing
from dnsamp.pipeline import Settings

# (function, keyword parameter, the Settings key it restates)
RESTATED = [
    (det.detect_attacks, "min_packets", "min_packets"),
    (det.detect_attacks, "share_threshold", "share_threshold"),
    (det.detect_attacks, "sampling", "sampling"),
    (sel.consensus_merge, "k_max", "k_max"),
    (sel.selector_ground_truth, "slack_s", "slack"),
    (hp.overlap, "slack_s", "slack"),
    (hp.infer_honeypot_attacks, "min_requests", "min_requests"),
    (hp.infer_honeypot_attacks, "max_gap_s", "max_gap"),
    (amp.dbscan_cluster, "eps", "eps"),
    (amp.dbscan_cluster, "min_pts", "min_pts"),
    (fp.attribute_entity, "min_segment", "min_segment"),
    (fp.classify_dnsid_pattern, "min_segment", "min_segment"),
    (sizing.detect_rollover_plateaus, "min_days", "min_days"),
    (sizing.detect_rollover_plateaus, "min_step_bytes", "min_step"),
]


@pytest.mark.parametrize("function, parameter, key", RESTATED,
                         ids=[f"{f.__name__}-{p}" for f, p, _ in RESTATED])
def test_library_default_matches_settings(function, parameter, key):
    default = inspect.signature(function).parameters[parameter].default
    assert default == getattr(Settings(), key)
