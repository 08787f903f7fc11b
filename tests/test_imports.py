"""Import costs: the trace-only stages must not load numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnsamp

# Modules behind ingest, select-names, detect, compare and report.
TRACE_STAGE_MODULES = ("dnsamp", "dnsamp.cli", "dnsamp.pipeline", "dnsamp.trace",
                       "dnsamp.selectors", "dnsamp.detector", "dnsamp.honeypot",
                       "dnsamp.fingerprint")


def test_trace_stages_leave_numpy_unloaded():
    imports = "; ".join(f"import {m}" for m in TRACE_STAGE_MODULES)
    src = Path(dnsamp.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; {imports}; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.strip() == "False"


def test_cli_leaves_fingerprint_unloaded():
    src = Path(dnsamp.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; import dnsamp.cli; print('dnsamp.fingerprint' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.strip() == "False"


def test_name_timeline_leaves_numpy_unloaded():
    # three days of events, so the parity-period analysis runs
    code = """
import sys
from dnsamp import detector as det, fingerprint as fp, trace as tr
records = [tr.PacketRecord(day * 86400.0 + i, "10.0.0.1", "192.0.2.1", 1024 + i, 53, 60, i,
                           100, False, day + i, "evil.example.", 255, 0, 0, 0)
           for day in range(3) for i in range(12)]
events = det.detect_attacks(det.aggregate_client_days(records, {"evil.example."}),
                            det.DetectorConfig())
fp.build_name_timeline(events)
print(len({e.day for e in events}), "numpy" in sys.modules)
"""
    src = Path(dnsamp.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.strip() == "3 False"


def test_every_exported_name_resolves():
    for name in dnsamp.__all__:
        assert getattr(dnsamp, name) is not None, name
    assert set(dnsamp.__all__) <= set(dir(dnsamp))


def test_star_import():
    namespace: dict = {}
    exec("from dnsamp import *", namespace)
    assert set(dnsamp.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        dnsamp.no_such_name  # noqa: B018
