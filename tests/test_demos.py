"""The narrated demos run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnsamp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    src = Path(dnsamp.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    if demo.name == "01_pipeline_end_to_end.py":
        assert "full recall" in result.stdout


def test_demos_found():
    assert DEMOS
