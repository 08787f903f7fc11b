"""Import costs and module boundaries: the package loads no submodule, each
subcommand loads only the modules it calls into, no stage but synth may load
numpy, no trace stage loads hashlib, every name a module imports is used,
only fileio opens a file or decodes JSON, and the CLI writes only through
`_write`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnsamp
from dnsamp.cli import main

# Every module that some stage but synth loads: ingest, select-names, detect,
# fingerprint, cluster, compare and report (see STAGE_MODULES).
TRACE_STAGE_MODULES = ("dnsamp", "dnsamp.cli", "dnsamp.pipeline", "dnsamp.trace",
                       "dnsamp.selectors", "dnsamp.detector", "dnsamp.honeypot",
                       "dnsamp.fingerprint", "dnsamp.amplifiers")
PACKAGE = Path(dnsamp.__file__).resolve().parent

# The dnsamp.* modules that `import dnsamp.cli` loads, and those each stage
# adds in the form the benchmark runs it, with {run} its inputs' directory.
# `cli` and `pipeline` import them inside the functions that call into them.
CLI_MODULES = ["cli", "fileio", "pipeline", "records"]
STAGE_MODULES = {
    "ingest": ("ingest --trace {run}/trace.jsonl --prefix-table {run}/prefixes.csv",
               ["trace"]),
    "select-names": ("select-names --trace {run}/annotated.jsonl "
                     "--honeypot {run}/honeypot.csv",
                     ["honeypot", "selectors", "trace"]),
    "detect": ("detect --trace {run}/annotated.jsonl --names {run}/names.json",
               ["detector", "selectors", "trace"]),
    "fingerprint": ("fingerprint --attacks {run}/attacks.jsonl "
                    "--fingerprint-spec {run}/entity.json --names {run}/names.json",
                    ["detector", "fingerprint", "selectors"]),
    "cluster": ("cluster --attacks {run}/attacks.jsonl",
                ["amplifiers", "detector", "selectors"]),
    "compare": ("compare --attacks {run}/attacks.jsonl --honeypot {run}/honeypot.csv",
                ["detector", "honeypot"]),
    "report": ("report --attacks {run}/attacks.jsonl --names {run}/names.json",
               ["detector", "fingerprint", "selectors"]),
    "report-trace": ("report --attacks {run}/attacks.jsonl --names {run}/names.json "
                     "--trace {run}/annotated.jsonl",
                     ["detector", "fingerprint", "selectors", "trace"]),
}


def python(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent))).stdout


def test_package_import_loads_nothing():
    # no submodule, and no name but the module's own and __version__
    code = """
import sys, dnsamp
print(sorted(m for m in sys.modules if m.startswith("dnsamp.")),
      sorted(n for n in vars(dnsamp) if n in ("__all__", "__getattr__", "__dir__")
             or not n.startswith("__")))
"""
    assert python(code).strip() == "[] []"


def test_every_imported_name_is_used():
    # annotations count as uses: from __future__ import annotations keeps them in the AST
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


# Public definitions that no stage, demo or benchmark file calls yet, each
# kept for the caller named here.
UNCALLED_KEPT = {
    "server_ip": "read by the row-path reference in tests/oracles.py",
    "ingress_as": "read by the row-path reference in tests/oracles.py",
    "dns_payload_len": "read by the row-path reference in tests/oracles.py",
    "visibility_curve": "for detect's near-miss counts (ROADMAP items 3 and 9)",
    "read_truth": "for the score command (ROADMAP item 3)",
}


def test_every_public_definition_has_a_caller():
    """Each def or class of src/dnsamp whose name has no leading underscore is
    referenced by name in src/dnsamp, demos/ or bench/: as a name, an
    attribute, an import alias or a string constant (bench/tracing.py wraps
    functions by their attribute's name). The check is by name alone, so a
    dunder, or a name that another attribute or variable shares (as
    AttackTruth.amplifiers shared a client-day's amplifiers), needs a line
    trace of the stages."""
    root = PACKAGE.parents[1]
    files = [*PACKAGE.glob("*.py"), *(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    defined, referenced = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == PACKAGE \
                    and not node.name.startswith("_"):
                defined.add(node.name)
    assert sorted(defined - referenced) == sorted(UNCALLED_KEPT)


def test_trace_stages_leave_numpy_unloaded():
    imports = "; ".join(f"import {m}" for m in TRACE_STAGE_MODULES)
    assert python(f"import sys; {imports}; print('numpy' in sys.modules)").strip() == "False"


def test_trace_stages_leave_hashlib_unloaded(tmp_path):
    # hashlib maps OpenSSL, about 3.6 MB: the columns file is bound to its
    # JSONL by zlib's CRC-32, checked here by a write and a load
    imports = "; ".join(f"import {m}" for m in TRACE_STAGE_MODULES)
    code = f"""
import sys; {imports}
from dnsamp import cli, pipeline, trace
line = ('{{"ts":1.5,"src_ip":"10.0.0.1","dst_ip":"192.0.2.1","src_port":5353,"dst_port":53,'
        '"ip_ttl":60,"ip_id":7,"udp_len":64,"qr":false,"dns_id":42,"qname":"example.com.",'
        '"qtype":255,"rcode":0,"ancount":0,"nscount":0}}')
cli._write(pipeline.prepare([line]), __import__("pathlib").Path({str(tmp_path)!r}))
print(trace._load_columns({str(tmp_path / "annotated.jsonl")!r}) is not None,
      "hashlib" in sys.modules, "_hashlib" in sys.modules)
"""
    assert python(code).strip().splitlines()[-1] == "True False False"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The small scenario's inputs and the outputs of ingest, select-names
    and detect, side by side."""
    root = tmp_path_factory.mktemp("stages")
    scenario = str(Path(__file__).parent / "data" / "scenario_small.json")
    for argv in (["synth", "--scenario", scenario],
                 ["ingest", "--trace", f"{root}/trace.jsonl",
                  "--prefix-table", f"{root}/prefixes.csv"],
                 ["select-names", "--trace", f"{root}/annotated.jsonl",
                  "--honeypot", f"{root}/honeypot.csv"],
                 ["detect", "--trace", f"{root}/annotated.jsonl",
                  "--names", f"{root}/names.json"]):
        assert main([*argv, "--out-dir", str(root)]) == 0
    (root / "entity.json").write_text('{"name_suffixes": ["alpha.example."]}')
    return root


def loaded_modules(code: str) -> list[str]:
    """The dnsamp.* modules, package aside, loaded after code runs in a fresh interpreter."""
    return python(f"""
import sys
{code}
print(" ".join(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("dnsamp."))))
""").splitlines()[-1].split()


def test_cli_import_loads_only_its_modules():
    assert loaded_modules("import dnsamp.cli") == CLI_MODULES


@pytest.mark.parametrize("stage", sorted(STAGE_MODULES))
def test_each_stage_loads_only_its_modules(run_dir, tmp_path, stage):
    template, modules = STAGE_MODULES[stage]
    argv = [*template.format(run=run_dir).split(), "--out-dir", str(tmp_path)]
    assert loaded_modules(f"from dnsamp import cli; assert cli.main({argv!r}) == 0") == \
        sorted(CLI_MODULES + modules)


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
    assert python(code).strip() == "3 False"


def test_cluster_stage_leaves_numpy_unloaded(tmp_path):
    # three events: two share a reflector pool, the third shares nothing
    code = f"""
import sys
from dnsamp import cli, detector as det
pools = [("192.0.2.1", "192.0.2.2"), ("192.0.2.1", "192.0.2.2"), ("198.51.100.7",)]
events = [det.AttackEvent(
    victim_ip=f"10.0.0.{{i}}", day="2019-06-01", packet_count=20, misused_packet_count=20,
    est_original_packets=320000, est_misused_packets=320000, share=1.0,
    share_excluding_root=1.0, first_ts=0.0, last_ts=100.0, request_count=0,
    response_count=20, qname_counts={{"evil.example.": 20}}, amplifier_set=pool,
    dns_ids=(2, 4), req_ip_ids=(), req_src_ports=(), req_dns_ids=(),
    ingress_as_counts={{}}, victim_as=None, intensity_decile=None)
    for i, pool in enumerate(pools)]
det.write_events(events, {str(tmp_path / "attacks.jsonl")!r})
code = cli.main(["cluster", "--attacks", {str(tmp_path / "attacks.jsonl")!r},
                 "--min-pts", "2", "--out-dir", {str(tmp_path / "out")!r}])
print(code, "numpy" in sys.modules)
"""
    assert python(code).strip().splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "distance_matrix.csv").read_text() == \
        "0.0,0.0,1.0\n0.0,0.0,1.0\n1.0,1.0,0.0\n"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        dnsamp.no_such_name  # noqa: B018


def test_only_fileio_opens_files_and_decodes_json():
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "fileio.py":
            continue
        text = module.read_text(encoding="utf-8")
        for call in ("open(", "json.load", "json.loads", "scan_once"):
            assert call not in text, f"{module.name} holds {call}"


def test_cli_writes_files_only_in_write():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    write = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_write")
    inside = {id(node) for node in ast.walk(write)}
    names = [node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))
             and id(node) not in inside]
    names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names]
    assert [name for name in names if name.startswith("write")] == []
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "writer"
               for node in ast.walk(write))
