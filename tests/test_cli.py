"""End-to-end checks of the command-line pipeline."""

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import pytest

import dnsamp
from dnsamp import detector, fileio, pipeline
from dnsamp.cli import main
from dnsamp.detector import (ITEM_FIELDS, AttackEvent, read_events, write_event_columns,
                             write_events)
from dnsamp.fileio import write_csv
from dnsamp import trace as tr
from dnsamp.trace import PacketRecord, write_trace
from oracles import jaccard_distance_matrix_reference
import test_synth
from test_trace import edit_columns


def run(*argv: str) -> int:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse --help / usage errors
        code = exc.code if isinstance(exc.code, int) else 0
    return code


# the shipped fixture: sizes run opposite to volume so the selector
# families only agree once all three attack names are on board
SCENARIO_PATH = Path(__file__).parent / "data" / "scenario_small.json"

ATTACK_NAMES = {"alpha.example.", "beta.example.", "gamma.example."}

# what `cluster` writes for TestClusterStage's fixed event log
PINNED_CLUSTER_DIGESTS = {
    "distance_matrix.csv": "4fb4125ef180b21c244fa8c1252a1fd228bc041c6cdb3b8074b4f5fe6fd37f61",
    "clusters.json": "f2a22c1283039b136d8367c97b70b3a616280d714aa1dc29535459e068885ee9",
    "churn.csv": "a64357320816cc374013c877bf166c12d092474b70b67d26d473ac9c896bde52",
    "amplifiers.csv": "f6484f611eea6858ef49e4d15ce22f528cb1907d1584f6c531306605d4692860",
    "qname_roles.csv": "b7b165201a4de71fadf952627e0f1c9c9cde056ac82fb77a7b8dfc79ec75f592",
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Full pipeline run: synth -> ingest -> select -> detect -> onward."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(SCENARIO_PATH.read_text())

    gen = root / "gen"
    assert run("synth", "--scenario", str(scenario), "--out-dir", str(gen)) == 0

    ing = root / "ing"
    assert run("ingest", "--trace", str(gen / "trace.jsonl"),
               "--prefix-table", str(gen / "prefixes.csv"),
               "--out-dir", str(ing)) == 0

    sel = root / "sel"
    assert run("select-names", "--trace", str(ing / "annotated.jsonl"),
               "--honeypot", str(gen / "honeypot.csv"),
               "--out-dir", str(sel)) == 0

    det = root / "det"
    assert run("detect", "--trace", str(ing / "annotated.jsonl"),
               "--names", str(sel / "names.json"),
               "--prefix-table", str(gen / "prefixes.csv"),
               "--out-dir", str(det)) == 0
    return root


def reflection_event(i: int, members, day: str = "2019-06-01",
                     qname: str = "a.example.") -> AttackEvent:
    """Event i of a hand-made event log: its own victim, a minute after
    event i - 1, and one packet for `qname` per reflector in `members`."""
    start = datetime.fromisoformat(day).replace(tzinfo=timezone.utc).timestamp() + 60.0 * i
    return AttackEvent(
        victim_ip=f"10.0.{i}.1", day=day, packet_count=len(members) or 1,
        misused_packet_count=len(members) or 1, est_original_packets=0,
        est_misused_packets=0, share=1.0, share_excluding_root=1.0, first_ts=start,
        last_ts=start + 1.0, request_count=0, response_count=len(members) or 1,
        qname_counts={qname: len(members) or 1}, amplifier_set=tuple(sorted(members)),
        dns_ids=(), req_ip_ids=(), req_src_ports=(), req_dns_ids=(), ingress_as_counts={})


def out(ws, stage: str):
    return ws / stage


def edited_event_log(ws, directory: Path, **edits) -> Path:
    """detect's attacks.jsonl with the edits made to its second event, in
    directory beside a copy of detect's attacks.columns, which the edit
    unbinds."""
    lines = (out(ws, "det") / "attacks.jsonl").read_text().splitlines()
    attacks = directory / "attacks.jsonl"
    attacks.write_text("\n".join([lines[0], json.dumps({**json.loads(lines[1]), **edits}),
                                  *lines[2:]]) + "\n")
    (directory / "attacks.columns").write_bytes((out(ws, "det") / "attacks.columns").read_bytes())
    return attacks


def jsonl(path: Path) -> list:
    """The JSON value of each line of a file."""
    with path.open() as handle:
        return [json.loads(line) for line in handle]


class TestExitCodes:
    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_subcommand_help_exits_zero(self):
        assert run("detect", "--help") == 0

    def test_no_subcommand_is_usage_error(self):
        assert run() == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag_is_usage_error(self):
        assert run("detect") == 2

    def test_missing_input_file_is_processing_error(self, tmp_path):
        assert run("detect", "--trace", str(tmp_path / "absent.jsonl"),
                   "--names", str(tmp_path / "absent.json"),
                   "--out-dir", str(tmp_path)) == 1

    def test_bad_config_json_is_processing_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("--config", str(cfg), "synth",
                   "--scenario", str(cfg), "--out-dir", str(tmp_path)) == 1

    def test_unknown_config_key_is_processing_error(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"share_treshold": 0.5}))
        assert run("--config", str(cfg), "detect",
                   "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(out(ws, "sel") / "names.json"),
                   "--out-dir", str(tmp_path / "det")) == 1
        err = capsys.readouterr().err
        assert "share_treshold" in err and "share_threshold" in err

    @pytest.mark.parametrize("obj", [{"share_threshold": [1]}, {"min_packets": "10"},
                                     {"k_max": 2.5}, {"eps": True}, {"slack": None}])
    def test_wrong_typed_config_value_is_processing_error(self, ws, tmp_path, capsys, obj):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert run("--config", str(cfg), "detect",
                   "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(out(ws, "sel") / "names.json"),
                   "--out-dir", str(tmp_path / "det")) == 1
        assert next(iter(obj)) in capsys.readouterr().err


    @pytest.mark.parametrize("key, config, flags", [
        ("slack", {}, ("--slack", "nan")),
        ("max_gap", {}, ("--max-gap", "nan")),
        ("max_gap", {"max_gap": float("nan")}, ()),
        ("slack", {"slack": float("nan")}, ("--preset", "ccc")),
    ])
    def test_nan_setting_is_processing_error(self, ws, tmp_path, capsys, key, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # json writes a float nan as NaN
        assert run("--config", str(cfg), "compare",
                   "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   *flags, "--out-dir", str(tmp_path / "cmp")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0]

    # a subcommand that reads each key, and the flags of its input files
    READERS = {
        "share_threshold": "detect --trace --names", "min_packets": "detect --trace --names",
        "sampling": "detect --trace --names", "k_max": "select-names --trace",
        "slack": "compare --attacks --honeypot", "min_requests": "compare --attacks --honeypot",
        "max_gap": "compare --attacks --honeypot", "eps": "cluster --attacks",
        "min_pts": "cluster --attacks", "min_segment": "fingerprint --attacks --fingerprint-spec",
        "min_days": "estimate --records", "min_step": "estimate --records",
    }

    # each key's bound: the value at it, accepted, and the first value past it
    @pytest.mark.parametrize("key, inside, outside, expected", [
        ("share_threshold", 1.0, math.nextafter(1.0, 2.0), "a number in (0, 1]"),
        ("share_threshold", math.nextafter(0.0, 1.0), 0.0, "a number in (0, 1]"),
        ("min_packets", 1, 0, "an integer >= 1"),
        ("sampling", 1, 0, "an integer >= 1"),
        ("k_max", 1, 0, "an integer >= 1"),
        ("slack", 0.0, math.nextafter(0.0, -1.0), "a number >= 0"),
        ("min_requests", 1, 0, "an integer >= 1"),
        ("max_gap", math.nextafter(0.0, 1.0), 0.0, "a number > 0"),
        ("eps", 0.0, math.nextafter(0.0, -1.0), "a number >= 0"),
        ("min_pts", 1, 0, "an integer >= 1"),
        ("min_segment", 1, 0, "an integer >= 1"),
        ("min_days", 1, 0, "an integer >= 1"),
        ("min_step", 1, 0, "an integer >= 1"),
    ])
    def test_setting_bound_is_checked_before_any_input_is_read(self, tmp_path, capsys, key,
                                                                inside, outside, expected):
        # every input file is missing: a value past the bound is the error,
        # while the value at it lets the stage go on to fail on its first input
        absent = tmp_path / "absent"
        command, *inputs = self.READERS[key].split()
        argv = [command, *(arg for flag in inputs for arg in (flag, str(absent))),
                "--out-dir", str(tmp_path / "out")]
        cfg = tmp_path / "cfg.json"
        for value, accepted in ((inside, True), (outside, False)):
            cfg.write_text(json.dumps({key: value}))
            # the = form, since argparse reads "-5e-324" alone as an option
            flag = f"--{key.replace('_', '-')}={value!r}"
            for where, given in (("", [*argv, flag]), (f"{cfg}: ", ["--config", str(cfg), *argv])):
                assert run(*given) == 1
                assert capsys.readouterr().err == (
                    f"error: [Errno 2] No such file or directory: '{absent}'\n" if accepted else
                    f"error: {where}key {key!r}: expected {expected}, got {value!r}\n")
                assert not (tmp_path / "out").exists()

    # every subcommand's option strings, in order, as the parser had them
    # when each flag was declared by hand
    OPTIONS = {
        "ingest": "--trace --prefix-table --out-dir",
        "select-names": "--trace --honeypot --k-max --slack --min-requests --max-gap "
                        "--previous --out-dir",
        "detect": "--trace --names --prefix-table --share-threshold --min-packets --sampling "
                  "--out-dir",
        "fingerprint": "--attacks --fingerprint-spec --names --min-segment --out-dir",
        "cluster": "--attacks --eps --min-pts --seen-table --ns-table --out-dir",
        "estimate": "--records --reference-names --edns --min-days --min-step --out-dir",
        "snoop": "--responses --ttl-table --out-dir",
        "synth": "--scenario --seed --out-dir",
        "compare": "--attacks --honeypot --preset --min-requests --max-gap --slack --out-dir",
        "report": "--attacks --names --trace --out-dir",
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_subcommand_options_unchanged(self, command, capsys):
        assert run(command, "--help") == 0
        section = capsys.readouterr().out.split("options:\n")[1]
        listed = [token.rstrip(",") for line in section.splitlines() if line.startswith("  -")
                  for token in line.split() if token.startswith("-")]
        assert listed == ["-h", "--help", *self.OPTIONS[command].split()]

    # the flags besides --attacks of each stage that reads an event log
    EVENT_STAGES = {"cluster": "", "fingerprint": "--fingerprint-spec {tmp}/entity.json",
                    "compare": "--honeypot {ws}/gen/honeypot.csv",
                    "report": "--names {ws}/sel/names.json"}

    @pytest.mark.parametrize("command", sorted(EVENT_STAGES))
    @pytest.mark.parametrize("day", ["junk", "2019-06-1", "2019-02-30"])
    def test_event_day_not_iso_is_processing_error(self, ws, tmp_path, capsys, command, day):
        attacks = edited_event_log(ws, tmp_path, day=day)
        (tmp_path / "entity.json").write_text(json.dumps({"name_suffixes": ["alpha.example."]}))
        argv = self.EVENT_STAGES[command].format(ws=ws, tmp=tmp_path).split()
        assert run(command, "--attacks", str(attacks), *argv,
                   "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {attacks} line 2: key 'day': expected a YYYY-MM-DD string, got {day!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(EVENT_STAGES))
    def test_event_window_ending_before_it_starts_is_processing_error(self, ws, tmp_path,
                                                                      capsys, command):
        first_ts = jsonl(out(ws, "det") / "attacks.jsonl")[1]["first_ts"]
        attacks = edited_event_log(ws, tmp_path, last_ts=first_ts - 3600.0)
        (tmp_path / "entity.json").write_text(json.dumps({"name_suffixes": ["alpha.example."]}))
        argv = self.EVENT_STAGES[command].format(ws=ws, tmp=tmp_path).split()
        assert run(command, "--attacks", str(attacks), *argv,
                   "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {attacks} line 2: key 'last_ts': expected a time at or after first_ts, "
            f"got {first_ts - 3600.0!r}\n")
        assert not (tmp_path / "out").exists()


class TestExitPath:
    """`python -m dnsamp.cli` ends through `cli.run`, which exits without the
    interpreter's teardown once its output is flushed."""

    DETECT = "detect --trace {ws}/ing/annotated.jsonl --names {ws}/sel/names.json"

    @staticmethod
    def cli(*argv: str, stdout: int = subprocess.PIPE,
            entry: tuple[str, str] = ("-m", "dnsamp.cli"),
            buffered: bool = False) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(dnsamp.__file__).resolve().parents[1]))
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, *entry, *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env)

    def test_stage_output_equals_main(self, ws, tmp_path, capsys):
        # buffered, the line reaches the pipe only through run's flush
        argv = self.DETECT.format(ws=ws).split()
        proc = self.cli(*argv, "--out-dir", str(tmp_path / "sub"), buffered=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "main")]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert file_digests(tmp_path / "sub") == file_digests(tmp_path / "main")

    def test_processing_error_exits_one(self, tmp_path):
        proc = self.cli("detect", "--trace", str(tmp_path / "absent.jsonl"),
                        "--names", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    def test_usage_error_exits_two(self):
        proc = self.cli("detect")
        assert proc.returncode == 2 and "usage: dnsamp detect" in proc.stderr

    # unbuffered, the line fails in main; buffered, it fails in the flush of run
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_as_sys_exit_of_main(self, ws, tmp_path, buffered):
        # each writes into a pipe that no one reads
        results = []
        for name, entry in (("run", ("-m", "dnsamp.cli")),
                            ("main", ("-c", "import sys; from dnsamp.cli import main; "
                                            "sys.exit(main())"))):
            read, write = os.pipe()
            os.close(read)
            proc = self.cli(*self.DETECT.format(ws=ws).split(), "--out-dir",
                            str(tmp_path / name), stdout=write, entry=entry, buffered=buffered)
            os.close(write)
            results.append((proc.returncode, proc.stderr))
        assert results[0] == results[1]
        assert results[0][0] == (120 if buffered else 1)

    def test_script_runs_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(dnsamp.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"dnsamp": "dnsamp.cli:run"}


class TestOutDir:
    @pytest.mark.parametrize("command", ["synth", "ingest", "estimate", "snoop"])
    def test_missing_nested_out_dir_is_created(self, ws, tmp_path, command):
        data = SCENARIO_PATH.parent
        inputs = {
            "synth": ("--scenario", SCENARIO_PATH),
            "ingest": ("--trace", out(ws, "gen") / "trace.jsonl"),
            "estimate": ("--records", data / "record_sets_small.jsonl"),
            "snoop": ("--responses", data / "probes_small.jsonl"),
        }[command]
        target = tmp_path / "new" / "nested"
        assert run(command, *map(str, inputs), "--out-dir", str(target)) == 0
        assert any(target.iterdir())


def file_digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()}


def assert_pinned(digests: dict[str, str], files: dict[str, str]) -> None:
    """The files written are the files pinned, each with its digest."""
    assert sorted(digests) == sorted(files)
    if sys.byteorder != "little":  # the columns files are in machine byte order
        digests.pop("annotated.columns", None)
        digests.pop("attacks.columns", None)
    assert digests == {name: files[name] for name in digests}


class TestPrintedLines:
    # each subcommand on the ws fixture: its arguments, with {ws}, {data} and
    # {tmp} filled in, the exact stdout, and the SHA-256 of each file it
    # writes. A change that alters an answer on purpose updates its digest.
    CASES = {
        "synth": ("synth --scenario {data}/scenario_small.json",
                  "5834 trace records, 90 honeypot requests, 3 planted attacks\n",
                  {"ground_truth.json":
                   "3d43be2b3a2549e56ae6c785288867fea0b60663d67b912424f2673f27d7f134",
                   "honeypot.csv":
                   "7da3eaf28c6f656aaad3205c4ef9d634b77fd72054f6b88c9c75bedd786c621f",
                   "prefixes.csv":
                   "159a231cbcdca8403a2769dd406882e93fc49f1218579a1b3c3df561d56561f8",
                   "trace.jsonl":
                   "a1ee60fb26e935fff60ce7732bfae8d78f7aed607b003852101817d55df6e0cc"}),
        "ingest": ("ingest --trace {ws}/gen/trace.jsonl --prefix-table {ws}/gen/prefixes.csv",
                   "kept 5834 records (0 malformed lines, 0 dropped)\n",
                   {"annotated.columns":
                    "9df354c4f83f8edf176a6358cb80b961a88b32c9f3259387cddce77b35198d41",
                    "annotated.jsonl":
                    "0fb11e5e659f14eaf8246ea7353d8e12fc78e29f671d16e5a289d99cd0d4369f",
                    "ingest_stats.json":
                    "61d361e0fed5a4e1b09199a89978f80269c9af90adaeda112d7e55b653632aae"}),
        "select-names": ("select-names --trace {ws}/ing/annotated.jsonl "
                         "--honeypot {ws}/gen/honeypot.csv",
                         "consensus k*=3, 3 names\n",
                         {"curve.csv":
                          "06cbd26b4e148d7f5671119ab7051e52e06ad5acfe113ac93a1591fae070e060",
                          "names.json":
                          "3af8062fba29fa2802abcdddc07ad5b368470ab8d457ab8d534d3b6d4537e200",
                          "names.txt":
                          "428488ba1b948e5a955b58d3d03119f98a6050d83ff9dbe7931d0cb1d204f42e"}),
        "select-names-previous": (
            "select-names --trace {ws}/ing/annotated.jsonl --honeypot {ws}/gen/honeypot.csv "
            "--previous {ws}/sel/names.json",
            "day-over-day name-list jaccard: 1.0000\nconsensus k*=3, 3 names\n",
            {"curve.csv":
             "06cbd26b4e148d7f5671119ab7051e52e06ad5acfe113ac93a1591fae070e060",
             "delta.json":
             "2f04f0cafe32029d6ab52fef7dcbc3551e1a51ba08687ef65156913eac6b3038",
             "names.json":
             "3af8062fba29fa2802abcdddc07ad5b368470ab8d457ab8d534d3b6d4537e200",
             "names.txt":
             "428488ba1b948e5a955b58d3d03119f98a6050d83ff9dbe7931d0cb1d204f42e"}),
        "select-names-no-honeypot": (
            "select-names --trace {ws}/ing/annotated.jsonl",
            "consensus k*=3, 3 names (empty selectors: ground_truth)\n",
            {"curve.csv":
             "44b7839947a73ad7af789cbe3ed92ae00ea750429e8529943f8209fe7b32b2e3",
             "names.json":
             "a70932f382618acf65005f216d035175168cb73847af0fc63b51ca0f53d26889",
             "names.txt":
             "428488ba1b948e5a955b58d3d03119f98a6050d83ff9dbe7931d0cb1d204f42e"}),
        "detect": ("detect --trace {ws}/ing/annotated.jsonl --names {ws}/sel/names.json",
                   "3 attack events from 3 suspicious client-days\n",
                   {"attacks.columns":
                    "88058c45781ce14030740b1524c4f302bbe2fd7f40daa626a324db0d7498fc48",
                    "attacks.jsonl":
                    "7b36c8d9c08151bb2e12f19236007c7d99bf4b5fef8e137202d19ef01a7207e6",
                    "duration_percentiles.csv":
                    "47603e81f3dd7e466e42680d645f8ef2c65ecd36840e7b7773a81dbe165bff2d",
                    "victims_daily.csv":
                    "14f9b30fc7415d2ba46aa0c7296d096ada1c27eca34b380a9dc38d9fa742edb1"}),
        "fingerprint": ("fingerprint --attacks {ws}/det/attacks.jsonl "
                        "--fingerprint-spec {tmp}/entity.json",
                        "attributed 1/3 events (share 0.3333)\n",
                        {"attribution.jsonl":
                         "793c4d223a38c2347ffbfe10795837b1a2377645c61a0aa323357441d3c49b96",
                         "timeline.json":
                         "7752f9ca50d073e42f5429ff082822bc5c09b665b9521b2f9f6b14a04a853def"}),
        "cluster": ("cluster --attacks {ws}/det/attacks.jsonl",
                    "0 clusters, outlier share 1.0000, 0 stable sets\n",
                    {"amplifiers.csv":
                     "7d97aa6efb5d3ed403acda110accd2eb5e983607b4c678b0c9a5eea73837503e",
                     "churn.csv":
                     "6262e06ac41e49f1dd28917ec3b59ef5185533c8cc8f76fdca9292779b1f2af6",
                     "clusters.json":
                     "90b48ff3446f3f7c02f90a8bcb2ceb1c1626e7f6e427e0c54cfdda8c04d6bf63",
                     "distance_matrix.csv":
                     "715ef5786255240501e84a688d25c86fe154fca6e929503f9dddf4a969d49164",
                     "qname_roles.csv":
                     "292202246fe82a0e016c56187b7c89b48b09f70cc162a31713885d0b45fd91b9"}),
        "cluster-seen-table": (
            "cluster --attacks {ws}/det/attacks.jsonl --seen-table {tmp}/seen.csv",
            "0 clusters, outlier share 1.0000, 0 stable sets, scan coverage 0.5000\n",
            {"amplifiers.csv":
             "8989a17c57f344ce650aeb4f385e8fb7ea84ca0e5cce5cf56af00d403736904c",
             "churn.csv":
             "6262e06ac41e49f1dd28917ec3b59ef5185533c8cc8f76fdca9292779b1f2af6",
             "clusters.json":
             "90b48ff3446f3f7c02f90a8bcb2ceb1c1626e7f6e427e0c54cfdda8c04d6bf63",
             "distance_matrix.csv":
             "715ef5786255240501e84a688d25c86fe154fca6e929503f9dddf4a969d49164",
             "qname_roles.csv":
             "292202246fe82a0e016c56187b7c89b48b09f70cc162a31713885d0b45fd91b9"}),
        "cluster-ns-table": (
            "cluster --attacks {ws}/det/attacks.jsonl --ns-table {tmp}/ns.csv",
            "0 clusters, outlier share 1.0000, 0 stable sets\n",
            {"amplifiers.csv":
             "a0f0d075649bcd1e8dd6f062f785500c12234d9ab80ba2eb497f691fee9b4c32",
             "churn.csv":
             "6262e06ac41e49f1dd28917ec3b59ef5185533c8cc8f76fdca9292779b1f2af6",
             "clusters.json":
             "90b48ff3446f3f7c02f90a8bcb2ceb1c1626e7f6e427e0c54cfdda8c04d6bf63",
             "distance_matrix.csv":
             "715ef5786255240501e84a688d25c86fe154fca6e929503f9dddf4a969d49164",
             "qname_roles.csv":
             "1789e1190e01f16f0517c323aaebcb81b0e81b52cfc420513bfaa0d44a1336a9"}),
        "estimate": ("estimate --records {data}/record_sets_small.jsonl "
                     "--reference-names {data}/reference_names.txt",
                     "2 names sized, 1 above reference\n",
                     {"estimates.csv":
                      "bfaaba4def2095d1fef0964e2e2daeb260f91a67d5daed8f9eec040b242210cf",
                      "plateaus.csv":
                      "14d0f2c75d3666c5d00de6c0c8cc6566a5d0e6dea8c8fa067231adeea207e30c",
                      "ranking.json":
                      "56fdc1fd0e76d7e2712355cf58f569a7af4acf2c81949155817f175ed3ec230b"}),
        "snoop": ("snoop --responses {data}/probes_small.jsonl "
                  "--ttl-table {data}/default_ttls.csv",
                  "3 responders kept (0 malformed, 0 dropped); roles {'forwarder': 3}; "
                  "cache {'hit': 1, 'miss': 1, 'unknown': 1}\n",
                  {"snoop.jsonl":
                   "fc1e203c7f9694888ab6b835a3626595b787c3969e0996db4339d5a419400051"}),
        "compare": ("compare --attacks {ws}/det/attacks.jsonl --honeypot {ws}/gen/honeypot.csv",
                    "3 mutual events (1.0000 of trace, 1.0000 of honeypot)\n",
                    {"convergence.csv":
                     "4cc9911e0090af4008399eca4c1f1f35a17fb10704e8212beb545f74486425ca",
                     "honeypot_events.jsonl":
                     "9ac68f4bc8dd8d66d1c4112b1d8841419ba120c48b8f8185dcf0d1a490e5fe7f",
                     "overlap.json":
                     "24b62cd0a72221dcd8d07f2256622517fefd70647f702d16e3ca7bd734c8ea45"}),
        "compare-ccc": (
            "compare --attacks {ws}/det/attacks.jsonl --honeypot {ws}/gen/honeypot.csv "
            "--preset ccc",
            "3 mutual events (1.0000 of trace, 1.0000 of honeypot)\n",
            {"convergence.csv":
             "4cc9911e0090af4008399eca4c1f1f35a17fb10704e8212beb545f74486425ca",
             "honeypot_events.jsonl":
             "9ac68f4bc8dd8d66d1c4112b1d8841419ba120c48b8f8185dcf0d1a490e5fe7f",
             "overlap.json":
             "24b62cd0a72221dcd8d07f2256622517fefd70647f702d16e3ca7bd734c8ea45"}),
        "compare-amppot": (
            "compare --attacks {ws}/det/attacks.jsonl --honeypot {ws}/gen/honeypot.csv "
            "--preset amppot",
            "0 mutual events (0.0000 of trace, 0.0000 of honeypot)\n",
            {"convergence.csv":
             "1a29c1a0c83b44d23d44e3d0f46577883be74a9db5eb3d1e76f6fb0fc22ed730",
             "honeypot_events.jsonl":
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "overlap.json":
             "b3405b1bc5b3c827c0da0aa6a096e68f830af3e3ea22877070ddcb99d4b4eb81"}),
        # the form the event-log benchmark runs
        "report-no-trace": (
            "report --attacks {ws}/det/attacks.jsonl --names {ws}/sel/names.json",
            "report over 3 events, 3 names\n",
            {"report.json":
             "9a60a4577d3e3c84d0914ba73f324466615f9c2d25ff02468f6147039271fdac",
             "tld_summary.csv":
             "6ce04c84abbc823cde028ef778112dd00e40fa31bc296e15011badb83ebf2bae"}),
        "report": ("report --attacks {ws}/det/attacks.jsonl --names {ws}/sel/names.json "
                   "--trace {ws}/ing/annotated.jsonl",
                   "report over 3 events, 3 names\n",
                   {"report.json":
                    "970ce9ffb33513a33663b4775c1a205b86be276c5501e32b290ba97c6edf7329",
                    "tld_summary.csv":
                    "2e4a134a57401980c5f08fa424e7a6c9fd5440097a9fc836ad932ef8a4ee1cf4"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stdout_and_files(self, ws, tmp_path, capsys, case):
        template, stdout, files = self.CASES[case]
        (tmp_path / "entity.json").write_text(json.dumps(
            {"name_suffixes": ["alpha.example."], "id_patterns": ["pure", "phased"]}))
        # every other reflector of the detected events was seen by a scan
        reflectors = sorted({ip for event in jsonl(out(ws, "det") / "attacks.jsonl")
                             for ip in event["amplifier_set"]})
        (tmp_path / "seen.csv").write_text("ip,first_seen,last_seen\n" + "".join(
            f"{ip},2019-05-01,2019-05-30\n" for ip in reflectors[::2]))
        # every third reflector is an authoritative nameserver
        (tmp_path / "ns.csv").write_text("ip,ns_name\n" + "".join(
            f"{ip},ns{i}.example.\n" for i, ip in enumerate(reflectors[::3])))
        capsys.readouterr()
        argv = [token.format(ws=ws, data=SCENARIO_PATH.parent, tmp=tmp_path)
                for token in template.split()]
        assert run(*argv, "--out-dir", str(tmp_path / "out")) == 0
        assert capsys.readouterr().out == stdout
        assert_pinned(file_digests(tmp_path / "out"), files)


def test_readme_outputs_are_the_files_the_cases_write():
    # each row of the README's CLI reference table names in its Outputs cell
    # the files that its subcommand's TestPrintedLines cases write
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("\n| Subcommand |")[1].split("\n\n")[0].splitlines()[2:]
    cells = [row.split(" | ") for row in rows]
    outputs = {cell[0].strip("|` "): set(re.findall(r"`([^`]+)`", cell[-1])) for cell in cells}
    written: dict[str, set[str]] = {}
    for template, _, files in TestPrintedLines.CASES.values():
        command = template.split()[0]
        assert set(files) <= outputs[command], command
        written.setdefault(command, set()).update(files)
    assert written == outputs


# the benchmark's stage order on the "mixed" scenario of test_synth: each
# stage's arguments, with {root} filled in, its exact stdout and the SHA-256
# of each file it writes into its own directory
MIXED_STAGES = {
    "synth": (
        "synth --scenario {root}/scenario.json",
        "10553 trace records, 244 honeypot requests, 6 planted attacks\n",
        {"ground_truth.json":
         "1d52708dce32919c45084313e897add8e4048ed4d17b000b8dd2c17af3fb1bf5",
         "honeypot.csv":
         "79b1c5d301e2cc7621b018e60fcf7021fd313166317de9b51b59cd7783c1567b",
         "prefixes.csv":
         "5d9621f09aaea2925a5bb0037d501b992c3d6ff6531153ab9361e7daf8d4ed28",
         "trace.jsonl":
         "9f2c1a06c4a06d73b2eddacbf7525fe0907b0ba1b772d7a80e1e4c42d16b571e"}),
    "ingest": (
        "ingest --trace {root}/synth/trace.jsonl "
        "--prefix-table {root}/synth/prefixes.csv",
        "kept 10553 records (0 malformed lines, 0 dropped)\n",
        {"annotated.columns":
         "39eaca9e77047f1e3b9dc91dc9c927738a2795ff1efa2b6f137258246ad1474e",
         "annotated.jsonl":
         "61c8d53b254b6677aad42c9367372cb93c81354434c64c54c2821ec38db5be7f",
         "ingest_stats.json":
         "0f26f05b06f4bcbf06bc487113222f3dad905bd200bb3d43514c0f622b7caef3"}),
    "select-names": (
        "select-names --trace {root}/ingest/annotated.jsonl "
        "--honeypot {root}/synth/honeypot.csv",
        "consensus k*=2, 3 names\n",
        {"curve.csv":
         "cb36d10dcc51f63e73dee6c404a5049329b32a6ed11e7e900b8bfdb7d29549d4",
         "names.json":
         "d163af90146703b050742b19350c79c5b61613052f5b75a4338e902d3bd88825",
         "names.txt":
         "24544f7de462c90042475506a2259b93ccb5aab8403cf29ed059e7253b795dfc"}),
    "detect": (
        "detect --trace {root}/ingest/annotated.jsonl "
        "--names {root}/select-names/names.json",
        "5 attack events from 5 suspicious client-days\n",
        {"attacks.columns":
         "240276d1e2c9b1cb816fafaa74fb53e35f26d61e5ab276789ff70ebb55cbf973",
         "attacks.jsonl":
         "7d517f898bd62aec6f68d5d137f40ff628aa9feeb89b9156c627b838dfbdd1e9",
         "duration_percentiles.csv":
         "509d9f0a97edbb82b1e0ba53875f7f8835b6c16ebd6c71b6a006cf38c107e2f5",
         "victims_daily.csv":
         "3632275dc64ee9b0320389ed9834bd8fd80ff7498887582e5c793cccdff4221c"}),
    "fingerprint": (
        "fingerprint --attacks {root}/detect/attacks.jsonl "
        "--fingerprint-spec {root}/entity.json --names {root}/select-names/names.json",
        "attributed 2/5 events (share 0.4000)\n",
        {"attribution.jsonl":
         "6641926b87f67772c1942d7742682719905355116cd9864cabb25f6773fad060",
         "timeline.json":
         "97a43fc07c66926e5264bbb673f7ee6710c6b94ed97491dd63c7955db8f002de"}),
    "cluster": (
        "cluster --attacks {root}/detect/attacks.jsonl",
        "0 clusters, outlier share 1.0000, 0 stable sets\n",
        {"amplifiers.csv":
         "72820a79f2e54688dc7c9567d5b0ecd5b26bbdc33afee437eca6b5a6b6925704",
         "churn.csv":
         "75785d0a6ed8fbbae58f158dfc7054a4960a88dd99ddbcb77f321ca1b9c8343b",
         "clusters.json":
         "81f6a81fb7246d676efcfe8185fff7e8c05b5ea8a700d3adeebb4e92594d68b7",
         "distance_matrix.csv":
         "ed9b5b657b3eeb1fff0d479702aba5463c6d3b8910fa9bb30bd2907b155cd8cc",
         "qname_roles.csv":
         "62321148f70bfc3a696646b07deacee9f62259b91c4a5099edf34eac5dcf8749"}),
    "compare": (
        "compare --attacks {root}/detect/attacks.jsonl --honeypot {root}/synth/honeypot.csv",
        "2 mutual events (0.4000 of trace, 0.6667 of honeypot)\n",
        {"convergence.csv":
         "4de51ee1e9ce1b08008b98c51a8a140c506e0d57df5ce6f420f4ae83eb0bdfc9",
         "honeypot_events.jsonl":
         "0b45aed6e19808e7a23af743f58267fdcbd019e4319fedb1ed640c860dc60a9d",
         "overlap.json":
         "cf8a03a95969d846595eed10b7af18111dc82962ab83a916471fce110e04cf38"}),
    "report": (
        "report --attacks {root}/detect/attacks.jsonl --names {root}/select-names/names.json "
        "--trace {root}/ingest/annotated.jsonl",
        "report over 5 events, 3 names\n",
        {"report.json":
         "6ef8f9ebee799809c6ccac921e28382179c8b3676b9bba28c0c64b7949c21443",
         "tld_summary.csv":
         "a90bb478ecf0e03e16b8f2b335868844c68113f72f35854124ee67a2b217a6c5"}),
}


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """Each stage of MIXED_STAGES run in turn: its exit code, stdout and
    file digests."""
    root = tmp_path_factory.mktemp("mixed")
    (root / "scenario.json").write_text(
        json.dumps(asdict(test_synth.TestDeterminism.mixed_scenario())))
    # the names of the `booter` entity's attacks
    (root / "entity.json").write_text(json.dumps(
        {"name_suffixes": ["beta.example.", "gamma.example."], "id_patterns": ["pure", "phased"]}))
    runs = {}
    for stage, (template, _, _) in MIXED_STAGES.items():
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = run(*template.format(root=root).split(), "--out-dir", str(root / stage))
        runs[stage] = code, stdout.getvalue(), file_digests(root / stage)
    return runs


class TestMixedScenario:
    @pytest.mark.parametrize("stage", MIXED_STAGES)
    def test_stdout_and_files(self, mixed, stage):
        _, stdout, files = MIXED_STAGES[stage]
        code, printed, digests = mixed[stage]
        assert (code, printed) == (0, stdout)
        assert_pinned(digests, files)

    def test_detect_finds_events(self, mixed):
        # so the digests of the event stages cover real content
        assert int(mixed["detect"][1].split()[0]) > 0


class TestSynthStage:
    def test_outputs_exist(self, ws):
        gen = out(ws, "gen")
        for name in ("trace.jsonl", "honeypot.csv", "ground_truth.json",
                     "prefixes.csv"):
            assert (gen / name).is_file()

    def test_seed_override_changes_trace(self, ws, tmp_path):
        assert run("synth", "--scenario", str(ws / "scenario.json"),
                   "--seed", "99", "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "trace.jsonl").read_bytes() != \
            (out(ws, "gen") / "trace.jsonl").read_bytes()

    def test_rerun_byte_identical(self, ws, tmp_path):
        assert run("synth", "--scenario", str(ws / "scenario.json"),
                   "--out-dir", str(tmp_path)) == 0
        for name in ("trace.jsonl", "honeypot.csv", "ground_truth.json"):
            assert (tmp_path / name).read_bytes() == \
                (out(ws, "gen") / name).read_bytes()


    @pytest.mark.parametrize("day", ["junk", "20190601"])
    def test_start_day_not_iso_is_processing_error(self, tmp_path, capsys, day):
        obj = json.loads(SCENARIO_PATH.read_text())
        obj["start_day"] = day
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {scenario}: key 'start_day': expected a YYYY-MM-DD " \
            f"string, got {day!r}\n"

    @pytest.mark.parametrize("key, value, expected", [
        ("background_clients", -1, "an integer >= 0"),
        ("background_daily_rate", [-10, -5], "[low, high] with 0 <= low <= high < 2**63"),
        ("background_daily_rate", [400000, 200000],
         "[low, high] with 0 <= low <= high < 2**63"),
        ("background_daily_rate", [0, 1e30], "[low, high] with 0 <= low <= high < 2**63"),
        ("background_any_fraction", 2.0, "a number in [0, 1]"),
        ("sensor_coverage", [2.0, 1.0], "two numbers in [0, 1]"),
        ("sensor_coverage", [1.0, -0.5], "two numbers in [0, 1]"),
        ("honeypot_requests_per_sensor", -3, "an integer >= 5"),
        ("honeypot_requests_per_sensor", 2, "an integer >= 5"),
        ("background_names", 0, "an integer >= 1"),
        ("background_names", -5, "an integer >= 1"),
        ("duration_days", 0, "an integer >= 1"),
        ("sampling_denominator", 0, "an integer >= 1"),
        ("churn_retention", 0, "a number in (0, 1]"),
        ("churn_retention", 1.5, "a number in (0, 1]"),
        ("amplifier_pool_size", 0, "an integer >= 1"),
        ("sensor_count", 0, "an integer >= 1"),
    ])
    def test_out_of_range_scenario_value_is_processing_error(self, tmp_path, capsys,
                                                              key, value, expected):
        obj = json.loads(SCENARIO_PATH.read_text())
        obj[key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 1
        assert capsys.readouterr().err == \
            f"error: {scenario}: key {key!r}: expected {expected}, got {value!r}\n"
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("ip_ttl", 300, "null or an integer in [0, 255]"),
        ("ip_ttl", -1, "null or an integer in [0, 255]"),
        ("dns_id_pool", 70000, "null or an integer in [1, 65536] for dns_id_mode 'random'"),
        ("dns_id_pool", 0, "null or an integer in [1, 65536] for dns_id_mode 'random'"),
        ("response_size", -1, "an integer >= 0"),
        ("benign_packets_per_day", -3, "an integer >= 0"),
        ("drift_per_event", -3, "an integer >= 0"),
        ("honeypot_requests_per_sensor", 0, "null or an integer >= 5"),
        ("honeypot_requests_per_sensor", -3, "null or an integer >= 5"),
        ("honeypot_requests_per_sensor", 2, "null or an integer >= 5"),
        ("qps", 0, "a number > 0"),
        ("qps", math.inf, "a finite number"),
        ("start_s", math.nan, "a number >= 0"),
        ("start_s", -1.0, "a number >= 0"),
        ("duration_s", -10.0, "a number > 0"),
        ("request_fraction", 1.5, "a number in [0, 1]"),
        ("amplifiers_per_attack", 0, "an integer >= 1"),
        ("dns_id_mode", "x", "one of 'random', 'pure_parity', 'phased', 'alternating_48h'"),
        ("amplifier_mode", "x", "one of 'pool', 'static', 'drift'"),
    ])
    def test_out_of_range_attack_value_is_processing_error(self, tmp_path, capsys,
                                                           key, value, expected):
        obj = json.loads(SCENARIO_PATH.read_text())
        obj["attacks"][1][key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 1
        assert capsys.readouterr().err == (f"error: {scenario}: key 'attacks': item 1: "
                                           f"key {key!r}: expected {expected}, got {value!r}\n")
        assert not (tmp_path / "gen").exists()

    def test_group_of_two_sizes_is_processing_error(self, tmp_path, capsys):
        # a group's attacks share one reflector set, so they must ask for one size;
        # static and drift attacks of one size may share a group
        obj = json.loads(SCENARIO_PATH.read_text())
        for attack, mode, size in zip(obj["attacks"], ("static", "drift", "static"),
                                      (10, 10, 40)):
            attack.update(amplifier_mode=mode, amplifier_group="g", amplifiers_per_attack=size)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 1
        assert capsys.readouterr().err == (
            f"error: {scenario}: key 'attacks': item 2: key 'amplifiers_per_attack': "
            f"expected 10 as in item 0 of amplifier_group 'g', got 40\n")
        assert not (tmp_path / "gen").exists()
        obj["attacks"][2]["amplifiers_per_attack"] = 10
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 0

    def test_parity_mode_dns_id_pool_is_half_the_ids(self, tmp_path, capsys):
        obj = json.loads(SCENARIO_PATH.read_text())
        obj["attacks"][0]["dns_id_pool"] = 32769  # attack 0 is pure_parity
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 1
        assert capsys.readouterr().err == (
            f"error: {scenario}: key 'attacks': item 0: key 'dns_id_pool': expected null or "
            f"an integer in [1, 32768] for dns_id_mode 'pure_parity', got 32769\n")
        obj["attacks"][0]["dns_id_pool"] = 32768
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path / "gen")) == 0

    def test_wrong_typed_scenario_value_is_processing_error(self, tmp_path, capsys):
        obj = json.loads(SCENARIO_PATH.read_text())
        obj["background_clients"] = "x"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        assert run("synth", "--scenario", str(scenario), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "background_clients" in err


class TestIngestStage:
    def test_outputs(self, ws):
        ing = out(ws, "ing")
        stats = json.loads((ing / "ingest_stats.json").read_text())
        assert stats["kept_records"] > 0
        assert 0.0 <= stats["dropped_packet_share"] <= 1.0
        with (ing / "annotated.jsonl").open() as handle:
            kept_lines = sum(1 for _ in handle)
        assert kept_lines == stats["kept_records"]

    def test_annotation_adds_asns(self, ws):
        ing = out(ws, "ing")
        with (ing / "annotated.jsonl").open() as handle:
            row = json.loads(next(handle))
        assert "src_as" in row and "dst_as" in row

    def test_line_not_utf8_is_skipped(self, ws, tmp_path):
        lines = (out(ws, "gen") / "trace.jsonl").read_bytes().splitlines(keepends=True)[:20]
        # the fourth line keeps its JSON shape, with one byte that is not UTF-8
        lines[3] = lines[3].replace(b'"qname":"', b'"qname":"\xff', 1)
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(b"".join(lines))
        assert run("ingest", "--trace", str(trace), "--out-dir", str(tmp_path / "ing")) == 0
        stats = json.loads((tmp_path / "ing" / "ingest_stats.json").read_text())
        assert stats["skipped_lines"] == 1
        assert stats["parsed_records"] == 19

    # a ts must fall on a UTC day from 0001-01-01 to 9999-12-31
    @pytest.mark.parametrize("ts, dropped", [
        (1e300, 1), (1e12, 1), (253402300800.0, 1), (-62135596800.5, 1),
        (253402300799.0, 0), (-62135596800.0, 0),
    ])
    def test_ts_beyond_the_utc_days_is_dropped(self, tmp_path, ts, dropped):
        record = PacketRecord(ts, "10.0.0.1", "192.0.2.1", 5353, 53, 60, 7, 64, False, 42,
                              "example.com.", 255, 0, 0, 0)
        write_trace([record], str(tmp_path / "trace.jsonl"))
        assert run("ingest", "--trace", str(tmp_path / "trace.jsonl"),
                   "--out-dir", str(tmp_path / "ing")) == 0
        stats = json.loads((tmp_path / "ing" / "ingest_stats.json").read_text())
        assert (stats["parsed_records"], stats["dropped_records"]) == (1, dropped)
        (tmp_path / "names.txt").write_text("example.com.\n")
        assert run("detect", "--trace", str(tmp_path / "trace.jsonl"),
                   "--names", str(tmp_path / "names.txt"), "--min-packets", "1",
                   "--out-dir", str(tmp_path / "det")) == 0
        assert len((tmp_path / "det" / "attacks.jsonl").read_text().splitlines()) == 1 - dropped

    # a dropped record's udp_len may be any integer, and only a length above
    # 0 counts: the share stays in [0, 1] and no dropped byte is cancelled
    @pytest.mark.parametrize("records, share", [
        (((100, 60), (-50, 60)), 0.0),
        (((100, 60), (300, 300), (-300, 60)), 0.75),
    ], ids=["negative-only", "negative-cancels-ttl-drop"])
    def test_dropped_byte_share_counts_no_negative_length(self, tmp_path, records, share):
        write_trace([PacketRecord(1.5 + i, "10.0.0.1", "192.0.2.1", 5353, 53, ip_ttl, 7,
                                  udp_len, False, 42, "example.com.", 255, 0, 0, 0)
                     for i, (udp_len, ip_ttl) in enumerate(records)],
                    str(tmp_path / "trace.jsonl"))
        assert run("ingest", "--trace", str(tmp_path / "trace.jsonl"),
                   "--out-dir", str(tmp_path / "ing")) == 0
        stats = json.loads((tmp_path / "ing" / "ingest_stats.json").read_text())
        assert (stats["kept_records"], stats["dropped_byte_share"]) == (1, share)

    def test_trace_stages_answer_alike_with_and_without_columns(self, ws, tmp_path):
        ing = tmp_path / "ing"
        ing.mkdir()
        for name in ("annotated.jsonl", "annotated.columns"):
            (ing / name).write_bytes((out(ws, "ing") / name).read_bytes())
        trace, honeypot = str(ing / "annotated.jsonl"), str(out(ws, "gen") / "honeypot.csv")
        assert tr._load_columns(trace) is not None
        names = str(tmp_path / "loaded" / "names.json")
        outputs = {}
        for case in ("loaded", "parsed"):
            if case == "parsed":
                (ing / "annotated.columns").unlink()
            directory = tmp_path / case
            assert run("select-names", "--trace", trace, "--honeypot", honeypot,
                       "--out-dir", str(directory)) == 0
            assert run("detect", "--trace", trace, "--names", names,
                       "--prefix-table", str(out(ws, "gen") / "prefixes.csv"),
                       "--out-dir", str(directory)) == 0
            assert run("report", "--attacks", str(directory / "attacks.jsonl"), "--names",
                       names, "--trace", trace, "--out-dir", str(directory)) == 0
            outputs[case] = {path.name: path.read_bytes() for path in directory.iterdir()}
        assert len(outputs["loaded"]) == 9
        assert outputs["loaded"] == outputs["parsed"]
        assert outputs["loaded"]["attacks.jsonl"] == (out(ws, "det") / "attacks.jsonl").read_bytes()

    def test_prefix_table_not_utf8_is_processing_error(self, ws, tmp_path, capsys):
        prefixes = tmp_path / "prefixes.csv"
        prefixes.write_bytes((out(ws, "gen") / "prefixes.csv").read_bytes() + b"10.\xff/8,7\n")
        lineno = prefixes.read_bytes().count(b"\n")
        assert run("ingest", "--trace", str(out(ws, "gen") / "trace.jsonl"),
                   "--prefix-table", str(prefixes), "--out-dir", str(tmp_path / "ing")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {prefixes} line {lineno}: not UTF-8\n"


class TestSelectStage:
    def test_consensus_finds_attack_names(self, ws):
        sel = out(ws, "sel")
        names_obj = json.loads((sel / "names.json").read_text())
        assert {entry["qname"] for entry in names_obj["names"]} == ATTACK_NAMES
        assert names_obj["k_star"] == 3

    def test_text_listing_matches_json(self, ws):
        sel = out(ws, "sel")
        names_obj = json.loads((sel / "names.json").read_text())
        lines = (sel / "names.txt").read_text().splitlines()
        assert lines == sorted(entry["qname"] for entry in names_obj["names"])

    def test_curve_is_valid_csv(self, ws):
        sel = out(ws, "sel")
        with (sel / "curve.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "mean_jaccard"]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == sorted(ks)
        scores = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert scores[3] == 1.0

    def test_previous_day_delta(self, ws, tmp_path):
        sel = out(ws, "sel")
        assert run("select-names", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--previous", str(sel / "names.json"),
                   "--out-dir", str(tmp_path)) == 0
        delta = json.loads((tmp_path / "delta.json").read_text())
        assert delta["previous_jaccard"] == 1.0

    def test_negative_slack_is_processing_error(self, ws, tmp_path, capsys):
        assert run("select-names", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--slack", "-100000", "--out-dir", str(tmp_path / "sel")) == 1
        assert capsys.readouterr().err == \
            "error: key 'slack': expected a number >= 0, got -100000.0\n"
        assert not (tmp_path / "sel").exists()

    def test_rerun_byte_identical(self, ws, tmp_path):
        assert run("select-names", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--out-dir", str(tmp_path)) == 0
        for name in ("names.json", "curve.csv"):
            assert (tmp_path / name).read_bytes() == \
                (out(ws, "sel") / name).read_bytes()


class TestDetectStage:
    def test_finds_all_planted_attacks(self, ws):
        det = out(ws, "det")
        events = jsonl(det / "attacks.jsonl")
        got = {(e["victim_ip"], e["day"]) for e in events}
        assert got == {("10.1.0.1", "2019-06-01"), ("10.2.0.1", "2019-06-01"),
                       ("10.3.0.1", "2019-06-02")}
        for event in events:
            assert event["est_misused_packets"] % 16000 == 0

    def test_victim_table_shape(self, ws):
        det = out(ws, "det")
        with (det / "victims_daily.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["day", "victims", "prefixes_24", "prefixes_16",
                           "prefixes_8", "victim_ases"]
        by_day = {r[0]: r for r in rows[1:]}
        assert by_day["2019-06-01"][1] == "2"
        assert by_day["2019-06-02"][1] == "1"

    def test_threshold_flags_override_config(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_packets": 1000000}))
        strict = tmp_path / "strict"
        assert run("--config", str(cfg), "detect",
                   "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(out(ws, "sel") / "names.json"),
                   "--out-dir", str(strict)) == 0
        assert (strict / "attacks.jsonl").read_text() == ""
        loose = tmp_path / "loose"
        assert run("--config", str(cfg), "detect",
                   "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(out(ws, "sel") / "names.json"),
                   "--min-packets", "10", "--out-dir", str(loose)) == 0
        assert len((loose / "attacks.jsonl").read_text().splitlines()) == 3

    @pytest.mark.parametrize("names_obj, key", [
        ([], None),
        ({"k_star": 1}, "names"),
        ({"k_star": 1, "names": [3]}, "names"),
        ({"k_star": 1, "names": [{"qname": 5}]}, "qname"),
        ({"k_star": "1", "names": []}, "k_star"),
    ])
    def test_malformed_name_list_is_processing_error(self, ws, tmp_path, capsys,
                                                     names_obj, key):
        names = tmp_path / "names.json"
        names.write_text(json.dumps(names_obj))
        assert run("detect", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(names), "--out-dir", str(tmp_path / "det")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {names}: ") and err.count("\n") == 1
        assert key is None or f"key '{key}'" in err

    def test_plain_name_list_not_utf8_is_processing_error(self, ws, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_bytes(b"alpha.example.\n\nbe\xffta.example.\n")
        assert run("detect", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(names), "--out-dir", str(tmp_path / "det")) == 1
        assert capsys.readouterr().err == f"error: {names} line 3: not UTF-8\n"

    def test_rerun_byte_identical(self, ws, tmp_path):
        assert run("detect", "--trace", str(out(ws, "ing") / "annotated.jsonl"),
                   "--names", str(out(ws, "sel") / "names.json"),
                   "--prefix-table", str(out(ws, "gen") / "prefixes.csv"),
                   "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "attacks.jsonl").read_bytes() == \
            (out(ws, "det") / "attacks.jsonl").read_bytes()


def copied_event_log(ws, directory: Path) -> Path:
    """detect's attacks.jsonl and attacks.columns, copied into directory."""
    for name in ("attacks.jsonl", "attacks.columns"):
        (directory / name).write_bytes((out(ws, "det") / name).read_bytes())
    return directory / "attacks.jsonl"


def retype_first_int(values: list, to) -> None:
    """Put to(v) in the table in place of its first int v."""
    at = next(i for i, value in enumerate(values) if type(value) is int)
    values[at] = to(values[at])


class TestEventColumns:
    """detect's attacks.columns loads in place of its attacks.jsonl while it
    is bound to those bytes; else the stages read the JSONL."""

    def test_columns_load_the_events_of_the_log(self, ws, tmp_path):
        attacks = copied_event_log(ws, tmp_path)
        loaded = detector._load_events(str(attacks))
        (tmp_path / "attacks.columns").unlink()
        assert loaded is not None and len(loaded) == 3
        assert loaded == read_events(str(attacks))

    @pytest.mark.parametrize("mangle", ["digit-edit", "truncated", "other-log", "byte-order"])
    def test_unbound_columns_leave_the_jsonl_read(self, ws, tmp_path, mangle):
        attacks = copied_event_log(ws, tmp_path)
        columns = tmp_path / "attacks.columns"
        bound = detector._load_events(str(attacks))
        if mangle == "digit-edit":  # the same length, so only the CRC-32 tells
            text = attacks.read_text()
            at = text.index('"packet_count":') + len('"packet_count":')
            attacks.write_text(text[:at] + ("8" if text[at] == "9" else str(int(text[at]) + 1))
                               + text[at + 1:])
        elif mangle == "truncated":
            columns.write_bytes(columns.read_bytes()[:-1])
        elif mangle == "other-log":
            (tmp_path / "other").mkdir()
            other = tmp_path / "other" / "attacks.jsonl"
            write_events(bound[:2], str(other))
            write_event_columns(bound[:2], str(other.with_suffix(".columns")))
            assert detector._load_events(str(other)) == bound[:2]
            columns.write_bytes(other.with_suffix(".columns").read_bytes())
        else:
            line, _, arrays = columns.read_bytes().partition(b"\n")
            header = json.loads(line)
            header["byteorder"] = {"little": "big", "big": "little"}[header["byteorder"]]
            columns.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n"
                                + arrays)
        assert bound is not None and detector._load_events(str(attacks)) is None
        events = read_events(str(attacks))
        columns.unlink()
        assert events == read_events(str(attacks))
        assert (events[0].packet_count != bound[0].packet_count) == (mangle == "digit-edit")

    # a library caller may write events that read_events rejects: the load
    # applies the same checks, so the JSONL's error is raised
    @pytest.mark.parametrize("edit, key", [
        ({"day": "2019-02-30"}, "day"), ({"first_ts": math.inf}, "first_ts"),
        ({"last_ts": 253402300800.0}, "last_ts"), ({"last_ts": 1559347000.0}, "last_ts"),
    ])
    def test_columns_of_events_read_events_rejects_load_nothing(self, tmp_path, edit, key):
        events = [reflection_event(i, ["192.0.2.1"]) for i in range(3)]
        events[1] = replace(events[1], **edit)
        attacks = tmp_path / "attacks.jsonl"
        write_events(events, str(attacks))
        write_event_columns(events, str(tmp_path / "attacks.columns"))
        assert detector._load_events(str(attacks)) is None
        with pytest.raises(ValueError, match=f"{attacks} line 2: key '{key}': "):
            read_events(str(attacks))

    # TestColumnsFile's sealed table defects of a trace, on an event log
    TABLE_DEFECTS = {
        "bool-in-table": lambda values, arrays: retype_first_int(values, bool),
        "float-in-table": lambda values, arrays: retype_first_int(values, float),
        "duplicate-in-table": lambda values, arrays: values.__setitem__(2, values[1]),
        "none-not-first": lambda values, arrays: values.reverse(),
        "index-past-table": lambda values, arrays: arrays[
            AttackEvent.__match_args__.index("victim_ip")].__setitem__(0, len(values)),
    }

    @pytest.mark.parametrize("defect", TABLE_DEFECTS)
    def test_sealed_table_defect_leaves_the_jsonl_read(self, ws, tmp_path, defect):
        attacks = copied_event_log(ws, tmp_path)
        change = self.TABLE_DEFECTS[defect]
        edit_columns(lambda header, arrays: change(header["values"], arrays),
                     layout=detector._layout)(attacks, tmp_path / "attacks.columns")
        assert detector._load_events(str(attacks)) is None

    def test_event_stages_decode_no_line_of_a_bound_log(self, ws, tmp_path, monkeypatch):
        attacks = copied_event_log(ws, tmp_path)
        (tmp_path / "entity.json").write_text(json.dumps({"name_suffixes": ["alpha.example."]}))
        sources = []
        read_lines = fileio.read_lines
        monkeypatch.setattr(fileio, "read_lines",
                            lambda source, *args: sources.append(str(source))
                            or read_lines(source, *args))
        for columns in ("bound", "deleted"):
            if columns == "deleted":
                (tmp_path / "attacks.columns").unlink()
            for command, flags in sorted(TestExitCodes.EVENT_STAGES.items()):
                argv = flags.format(ws=ws, tmp=tmp_path).split()
                assert run(command, "--attacks", str(attacks), *argv,
                           "--out-dir", str(tmp_path / columns)) == 0
            decoded = sources.count(str(attacks))
            assert decoded == {"bound": 0, "deleted": 4}[columns]
            sources.clear()
        assert file_digests(tmp_path / "bound") == file_digests(tmp_path / "deleted")


def drawn_event_log(directory: Path, events: int = 60, ids: int = 40) -> Path:
    """An event log with its columns in directory: events over 3 days, half
    of them drawing 10 reflectors of one 12-reflector pool so that they
    cluster, with up to ids DNS IDs each (all even for every fourth event),
    request fields, ingress ASes and no deciles."""
    rng = random.Random(30)
    pool = [f"198.18.2.{i}" for i in range(12)]
    log = []
    for i in range(events):
        members = rng.sample(pool, 10) if i % 2 else \
            {f"203.0.{rng.randrange(8)}.{rng.randrange(256)}" for _ in range(rng.randint(0, 20))}
        requests = rng.randint(0, ids // 2)
        log.append(replace(
            reflection_event(i, members, day=f"2019-06-0{1 + i % 3}",
                             qname=f"{'abc'[i % 3]}.example."),
            request_count=requests,
            dns_ids=tuple(rng.randrange(0, 65536, 2 if i % 4 == 0 else 1)
                          for _ in range(rng.randint(ids // 2, ids))),
            req_ip_ids=tuple(rng.randrange(65536) for _ in range(requests)),
            req_src_ports=tuple(rng.randrange(65536) for _ in range(requests)),
            req_dns_ids=tuple(rng.randrange(65536) for _ in range(requests)),
            ingress_as_counts={rng.randrange(64500, 64510): rng.randint(1, 9)
                               for _ in range(rng.randint(0, 3))}))
    attacks = directory / "attacks.jsonl"
    write_events(log, str(attacks))
    write_event_columns(log, str(directory / "attacks.columns"))
    assert detector._load_events(str(attacks)) is not None
    return attacks


@pytest.fixture(scope="module")
def stage_inputs(ws, tmp_path_factory):
    """The event stages' inputs other than the events: an entity spec, the
    names, each log's seen and NS tables, the honeypot's requests and the
    records, and the logs: detect's, and a drawn one without deciles."""
    from dnsamp import amplifiers as amp
    from dnsamp import fingerprint as fp
    from dnsamp import honeypot as hp
    from dnsamp import selectors as sel

    root = tmp_path_factory.mktemp("fields")
    (root / "entity.json").write_text(json.dumps(
        {"name_suffixes": ["alpha.example.", "a.example."], "id_patterns": ["pure", "phased"]}))
    logs = {"detect": out(ws, "det") / "attacks.jsonl", "drawn": drawn_event_log(root)}
    tables = {}
    for log, attacks in logs.items():
        reflectors = sorted({ip for event in jsonl(attacks) for ip in event["amplifier_set"]})
        (root / f"{log}-seen.csv").write_text("ip,first_seen,last_seen\n" + "".join(
            f"{ip},2019-05-01,2019-05-30\n" for ip in reflectors[::2]))
        (root / f"{log}-ns.csv").write_text("ip,ns_name\n" + "".join(
            f"{ip},ns{i}.example.\n" for i, ip in enumerate(reflectors[::3])))
        tables[log] = (amp.read_seen_table(str(root / f"{log}-seen.csv")),
                       amp.read_ns_ip_table(str(root / f"{log}-ns.csv")))
    return {"logs": logs, "tables": tables,
            "spec": fp.read_fingerprint(str(root / "entity.json")),
            "names": sel.read_name_list(str(out(ws, "sel") / "names.json")).name_set(),
            "requests": hp.read_honeypot_csv(str(out(ws, "gen") / "honeypot.csv"))[0],
            "records": tr.parse_trace(str(out(ws, "ing") / "annotated.jsonl"))[0]}


def stage_digests(result: pipeline.StageResult, directory: Path) -> dict[str, str]:
    """The SHA-256 of each file of a StageResult, written into directory, and its line."""
    directory.mkdir()
    for name, (writer, value) in result.files.items():
        writer(value, str(directory / name))
    return {**file_digests(directory), "line": result.line}


class TestEventFields:
    """Each event stage reads its events with only the tuple and dict fields
    of pipeline.EVENT_FIELDS built, and writes what it writes from a full read."""

    SETTINGS = pipeline.Settings()
    # each case: its subcommand, and its stage function of (events, inputs, log)
    CASES = {
        "fingerprint": ("fingerprint", lambda events, inputs, log: pipeline.fingerprint(
            events, inputs["spec"], TestEventFields.SETTINGS)),
        "fingerprint-names": ("fingerprint", lambda events, inputs, log: pipeline.fingerprint(
            events, inputs["spec"], TestEventFields.SETTINGS, inputs["names"])),
        "cluster": ("cluster", lambda events, inputs, log: pipeline.cluster(
            events, TestEventFields.SETTINGS)),
        "cluster-tables": ("cluster", lambda events, inputs, log: pipeline.cluster(
            events, TestEventFields.SETTINGS, *inputs["tables"][log])),
        "compare": ("compare", lambda events, inputs, log: pipeline.compare(
            events, inputs["requests"], TestEventFields.SETTINGS)),
        "report": ("report", lambda events, inputs, log: pipeline.report(events)),
        "report-names": ("report", lambda events, inputs, log: pipeline.report(
            events, inputs["names"])),
        "report-trace": ("report", lambda events, inputs, log: pipeline.report(
            events, inputs["names"], inputs["records"])),
    }

    def test_table_names_the_event_stages_and_item_fields(self):
        assert sorted(pipeline.EVENT_FIELDS) == sorted(TestExitCodes.EVENT_STAGES)
        assert set(ITEM_FIELDS) == {"qname_counts", "amplifier_set", "dns_ids", "req_ip_ids",
                                    "req_src_ports", "req_dns_ids", "ingress_as_counts"}
        for fields in pipeline.EVENT_FIELDS.values():
            assert set(fields) <= set(ITEM_FIELDS)

    @pytest.mark.parametrize("log", ["detect", "drawn"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stage_writes_what_a_full_read_gives(self, stage_inputs, tmp_path, case, log):
        command, stage = self.CASES[case]
        attacks = str(stage_inputs["logs"][log])
        fields = pipeline.EVENT_FIELDS[command]
        events = read_events(attacks, fields)
        assert not any(hasattr(events[0], name) for name in ITEM_FIELDS if name not in fields)
        if log == "drawn":  # the decile branch of compare
            assert all(event.intensity_decile is None for event in events)
        assert stage_digests(stage(events, stage_inputs, log), tmp_path / "named") == \
            stage_digests(stage(read_events(attacks), stage_inputs, log), tmp_path / "full")

    def test_drawn_log_reaches_each_branch(self, stage_inputs, tmp_path):
        # so the comparisons above cover clusters, attributions and ingress ASes
        events = read_events(str(stage_inputs["logs"]["drawn"]))
        settings = self.SETTINGS
        assert pipeline.cluster(events, settings)["clusters.json"]["n_clusters"] > 0
        rows = pipeline.fingerprint(events, stage_inputs["spec"], settings)["attribution.jsonl"]
        assert any(row["attributed"] for row in rows)
        assert pipeline.report(events)["report.json"]["ingress_concentration"]
        assert sum(map(len, (event.dns_ids for event in events))) / len(events) >= 20

    @pytest.mark.parametrize("columns", ["bound", "deleted"])
    def test_unnamed_field_is_unset(self, ws, tmp_path, columns):
        attacks = copied_event_log(ws, tmp_path)
        full = read_events(str(attacks))
        if columns == "deleted":
            (tmp_path / "attacks.columns").unlink()
        events = read_events(str(attacks), ["dns_ids"])
        assert [event.dns_ids for event in events] == [event.dns_ids for event in full]
        for name in ITEM_FIELDS:
            if name != "dns_ids":
                with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                    getattr(events[-1], name)
        with pytest.raises(AttributeError, match="qname_counts"):
            events[0].dominant_qname()

    @pytest.mark.parametrize("fields", [["victim_ip"], ["dns_ids", "bogus"], ["duration_s"]])
    def test_name_outside_the_item_fields_is_value_error(self, tmp_path, fields):
        # raised before the log, here missing, is opened
        with pytest.raises(ValueError, match=f"not a tuple or dict field of AttackEvent: "
                                             f"{fields[-1]}$"):
            read_events(str(tmp_path / "absent.jsonl"), fields)

    @pytest.mark.parametrize("fields", [None, (), *sorted(set(pipeline.EVENT_FIELDS.values()))])
    @pytest.mark.parametrize("log", ["detect", "drawn"])
    def test_jsonl_and_columns_give_the_same_fields(self, stage_inputs, tmp_path, fields, log):
        attacks = stage_inputs["logs"][log]
        for name in ("attacks.jsonl", "attacks.columns"):
            (tmp_path / name).write_bytes((attacks.parent / name).read_bytes())
        columns = read_events(str(tmp_path / "attacks.jsonl"), fields)
        (tmp_path / "attacks.columns").unlink()
        decoded = read_events(str(tmp_path / "attacks.jsonl"), fields)
        assert len(columns) == len(decoded) > 0
        for name in AttackEvent.__match_args__:
            if fields is None or name not in ITEM_FIELDS or name in fields:
                assert [getattr(e, name) for e in columns] == [getattr(e, name) for e in decoded]
            else:
                assert not any(hasattr(e, name) for e in columns + decoded)

    def test_columns_read_builds_no_unnamed_field(self, tmp_path):
        # 300 events of 30 to 60 DNS IDs: the peak of a read that builds no
        # tuple or dict field is 0.27 of a full read's (Python 3.11), and a
        # read that built the fields and then deleted them would peak with it
        attacks = drawn_event_log(tmp_path, events=300, ids=60)

        def peak(fields) -> int:
            tracemalloc.start()
            try:
                read_events(str(attacks), fields)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(()) < peak(None) / 2


@pytest.fixture(scope="module")
def fp_dir(ws, tmp_path_factory):
    spec = tmp_path_factory.mktemp("fpspec") / "entity.json"
    spec.write_text(json.dumps({"name_suffixes": ["alpha.example."],
                                "id_patterns": ["pure", "phased"]}))
    fp = tmp_path_factory.mktemp("fp")
    assert run("fingerprint", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
               "--fingerprint-spec", str(spec), "--out-dir", str(fp)) == 0
    return fp


class TestFingerprintStage:
    def test_attribution_rows(self, ws, fp_dir):
        rows = jsonl(fp_dir / "attribution.jsonl")
        assert len(rows) == 3
        by_victim = {r["victim_ip"]: r for r in rows}
        alpha = by_victim["10.1.0.1"]
        assert alpha["attributed"] is True
        assert alpha["id_pattern"] in ("pure_odd", "pure_even")
        assert by_victim["10.2.0.1"]["attributed"] is False
        for row in rows:
            assert set(row) >= {"dns_id_ratio", "dns_id_low_entropy",
                                "src_port_ratio", "ip_id_ratio"}

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_min_segment_below_one_is_processing_error(self, ws, tmp_path, capsys, value):
        spec = tmp_path / "entity.json"
        spec.write_text(json.dumps({"name_suffixes": ["alpha.example."],
                                    "id_patterns": ["pure", "phased"]}))
        assert run("fingerprint", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--fingerprint-spec", str(spec), "--min-segment", value,
                   "--out-dir", str(tmp_path / "fp")) == 1
        assert capsys.readouterr().err == \
            f"error: key 'min_segment': expected an integer >= 1, got {value}\n"
        assert not (tmp_path / "fp").exists()

    def test_each_pattern_classified_once(self, ws, fp_dir, tmp_path, monkeypatch):
        from dnsamp import fingerprint as fp

        calls = []
        classify = fp.classify_dnsid_pattern

        def counted(ids, *args, **kwargs):
            calls.append(ids)
            return classify(ids, *args, **kwargs)

        monkeypatch.setattr(fp, "classify_dnsid_pattern", counted)
        spec = tmp_path / "entity.json"
        spec.write_text(json.dumps({"name_suffixes": ["alpha.example."],
                                    "id_patterns": ["pure", "phased"]}))
        assert run("fingerprint", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--fingerprint-spec", str(spec), "--out-dir", str(tmp_path)) == 0
        rows = jsonl(tmp_path / "attribution.jsonl")
        classified = [row for row in rows if row["id_pattern"] is not None]
        assert any(row["attributed"] for row in classified)
        assert any(not row["attributed"] for row in classified)
        assert len(calls) == len(classified) == len({id(ids) for ids in calls})
        assert (tmp_path / "attribution.jsonl").read_bytes() == \
            (fp_dir / "attribution.jsonl").read_bytes()

    def test_timeline_written(self, fp_dir):
        timeline = json.loads((fp_dir / "timeline.json").read_text())
        assert "intervals" in timeline and "ingress_concentration" in timeline


@pytest.fixture(scope="module")
def cl_dir(ws, tmp_path_factory):
    cl = tmp_path_factory.mktemp("cl")
    assert run("cluster", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
               "--out-dir", str(cl)) == 0
    return cl


class TestClusterStage:
    @pytest.mark.parametrize("mangle, where", [
        (lambda text: "[1,2]\n", "line 1: expected a JSON object"),
        (lambda text: text.replace('"dns_ids":[', '"dns_ids":["x",', 1), "line 1: key 'dns_ids'"),
        (lambda text: text + text[:300], "line 4 column"),
        (lambda text: text + text[:300] + "\udcff\n", "line 4: not UTF-8"),
    ], ids=["not-an-object", "string-dns-id", "truncated", "not-utf8"])
    def test_malformed_event_log_is_processing_error(self, ws, tmp_path, capsys,
                                                     mangle, where):
        attacks = tmp_path / "attacks.jsonl"
        # a lone surrogate is written as the byte it escapes, 0xff
        attacks.write_bytes(mangle((out(ws, "det") / "attacks.jsonl").read_text())
                            .encode("utf-8", "surrogateescape"))
        assert run("cluster", "--attacks", str(attacks), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {attacks} {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("first_ts", 1e300), ("first_ts", math.inf), ("first_ts", -1e12),
        ("last_ts", math.nan), ("last_ts", 253402300800.0),
    ])
    def test_event_time_beyond_the_utc_days_is_processing_error(self, ws, tmp_path, capsys,
                                                                key, value):
        attacks = edited_event_log(ws, tmp_path, **{key: value})
        (tmp_path / "seen.csv").write_text("ip,first_seen,last_seen\n" + "".join(
            f"{ip},2019-05-01,2019-05-30\n" for ip in jsonl(attacks)[1]["amplifier_set"]))
        assert run("cluster", "--attacks", str(attacks), "--seen-table",
                   str(tmp_path / "seen.csv"), "--out-dir", str(tmp_path / "cl")) == 1
        assert capsys.readouterr().err == (
            f"error: {attacks} line 2: key {key!r}: expected a time from 0001-01-01 to "
            f"9999-12-31 UTC, got {value!r}\n")
        assert not (tmp_path / "cl").exists()

    def test_bad_eps_writes_nothing(self, tmp_path, capsys):
        # the bound is checked before the event log, here missing, is read
        assert run("cluster", "--attacks", str(tmp_path / "absent.jsonl"),
                   "--eps", "-1", "--out-dir", str(tmp_path / "cl")) == 1
        assert capsys.readouterr().err == "error: key 'eps': expected a number >= 0, got -1.0\n"
        assert not (tmp_path / "cl").exists()

    def test_outputs_exist(self, cl_dir):
        for name in ("distance_matrix.csv", "clusters.json", "churn.csv",
                     "amplifiers.csv", "qname_roles.csv"):
            assert (cl_dir / name).is_file()

    def test_distance_matrix_square(self, cl_dir):
        with (cl_dir / "distance_matrix.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3
        assert all(len(r) == 3 for r in rows)

    def test_every_pair_a_neighbour_writes_the_reference_matrix(self, tmp_path):
        # 30 of 40 sets share a reflector, so their rows are stored dense; the
        # others overlap a few or none, and three are empty
        rng = random.Random(23)
        pool = [f"198.18.0.{i}" for i in range(1, 200)]
        sets = [frozenset(["198.18.0.0", *rng.sample(pool, 4)]) for _ in range(30)]
        sets += [frozenset(rng.sample(pool, rng.randint(1, 3))) for _ in range(7)]
        sets += [frozenset()] * 3
        rng.shuffle(sets)
        write_events([reflection_event(i, members) for i, members in enumerate(sets)],
                     str(tmp_path / "attacks.jsonl"))
        assert run("cluster", "--attacks", str(tmp_path / "attacks.jsonl"),
                   "--eps", "1.0", "--out-dir", str(tmp_path / "out")) == 0
        write_csv(str(tmp_path / "reference.csv"), None,
                  jaccard_distance_matrix_reference(sets).tolist())
        assert (tmp_path / "out" / "distance_matrix.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()
        clusters = json.loads((tmp_path / "out" / "clusters.json").read_text())
        assert {item["label"] for item in clusters["labels"]} == {0}

    def test_outputs_pinned_on_a_fixed_event_log(self, tmp_path):
        # 120 events over 6 days: 40 draw 10 of one 12-reflector pool, so
        # they overlap densely; 72 draw from 2,048 addresses, so they overlap
        # sparsely; 8 are empty. The digests were recorded with the matrix
        # counted from bitsets and written row by row.
        rng = random.Random(14)
        pool = [f"198.18.1.{i}" for i in range(12)]
        sets = [frozenset(rng.sample(pool, 10)) for _ in range(40)]
        sets += [frozenset(f"203.0.{rng.randrange(8)}.{rng.randrange(256)}"
                           for _ in range(rng.randint(1, 30))) for _ in range(72)]
        sets += [frozenset()] * 8
        rng.shuffle(sets)
        events = [reflection_event(i, members, day=f"2019-06-0{1 + i % 6}",
                                   qname=f"{'abc'[i % 3]}.example.")
                  for i, members in enumerate(sets)]

        def cluster_digests(events, directory):
            write_events(events, str(directory / "attacks.jsonl"))
            assert run("cluster", "--attacks", str(directory / "attacks.jsonl"),
                       "--out-dir", str(directory / "out")) == 0
            return {name: hashlib.sha256((directory / "out" / name).read_bytes()).hexdigest()
                    for name in ("distance_matrix.csv", "clusters.json", "churn.csv",
                                 "amplifiers.csv", "qname_roles.csv")}

        assert cluster_digests(events, tmp_path) == PINNED_CLUSTER_DIGESTS
        # each of the first 20 events lists its first reflector once more, and
        # the distances, clusters and churn count it once
        repeated = [replace(e, amplifier_set=(*e.amplifier_set, *e.amplifier_set[:1]))
                    for e in events[:20]] + events[20:]
        assert sum(len(set(e.amplifier_set)) < len(e.amplifier_set) for e in repeated) > 10
        (tmp_path / "repeated").mkdir()
        digests = cluster_digests(repeated, tmp_path / "repeated")
        for name in ("distance_matrix.csv", "clusters.json", "churn.csv"):
            assert digests[name] == PINNED_CLUSTER_DIGESTS[name]

    def test_labels_cover_all_events(self, cl_dir):
        clusters = json.loads((cl_dir / "clusters.json").read_text())
        assert len(clusters["labels"]) == 3

    def test_integer_eps_from_config_written_as_float(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 1}))
        assert run("--config", str(cfg), "cluster",
                   "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--out-dir", str(tmp_path)) == 0
        assert '"eps": 1.0,' in (tmp_path / "clusters.json").read_text()

    def test_qname_with_comma_stays_one_field(self, ws, tmp_path):
        attacks = tmp_path / "attacks.jsonl"
        reflectors = 0
        with attacks.open("w") as handle:
            for event in jsonl(out(ws, "det") / "attacks.jsonl"):
                event["qname_counts"] = {"a,b.example.": sum(event["qname_counts"].values())}
                reflectors += len(event["amplifier_set"])
                handle.write(json.dumps(event) + "\n")
        assert run("cluster", "--attacks", str(attacks), "--out-dir", str(tmp_path)) == 0
        with (tmp_path / "qname_roles.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["qname", "role", "count"], ["a,b.example.", "unknown", str(reflectors)]]


@pytest.fixture(scope="module")
def est_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("est")
    records = root / "records.jsonl"
    rows = [
        {"date": "2019-06-01", "owner": "big.example.",
         "records": [{"type": "A", "ttl": 300, "rdata_len": 4},
                     {"type": "TXT", "ttl": 300, "rdata_len": 1200}]},
        {"date": "2019-06-02", "owner": "big.example.",
         "records": [{"type": "A", "ttl": 300, "rdata_len": 4},
                     {"type": "TXT", "ttl": 300, "rdata_len": 2600}]},
        {"date": "2019-06-01", "owner": "small.example.",
         "records": [{"type": "A", "ttl": 300, "rdata_len": 4}]},
    ]
    records.write_text("".join(json.dumps(r) + "\n" for r in rows))
    refs = root / "refs.txt"
    refs.write_text("small.example.\n")
    est = root / "outdir"
    assert run("estimate", "--records", str(records),
               "--reference-names", str(refs),
               "--out-dir", str(est)) == 0
    return est


class TestEstimateStage:
    def test_estimates_table(self, est_dir):
        with (est_dir / "estimates.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["day", "owner", "est_bytes", "exceeds_edns"]
        assert len(rows) == 4

    def test_ranking_compares_to_reference(self, est_dir):
        ranking = json.loads((est_dir / "ranking.json").read_text())
        assert ranking["count_above_reference"] == 1
        assert "big.example." in ranking["factors"]

    def test_plateaus_written(self, est_dir):
        assert (est_dir / "plateaus.csv").is_file()

    @pytest.mark.parametrize("dates", [("20190601", '"2019-06-01"'), ('"2019-06-01"', '"junk"')])
    def test_bad_date_is_processing_error(self, tmp_path, capsys, dates):
        records = tmp_path / "records.jsonl"
        records.write_text("".join(
            f'{{"date": {date}, "owner": "a.example.", "records": []}}\n' for date in dates))
        assert run("estimate", "--records", str(records), "--out-dir", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {records} line ")
        assert not (tmp_path / "estimates.csv").exists()

    def test_wrong_typed_zone_record_is_processing_error(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"date": "2019-06-01", "owner": "a.example.", "records": '
                           '[{"type": 5, "ttl": true, "rdata_len": 1200.9}]}\n')
        assert run("estimate", "--records", str(records), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {records} line 1: key 'records': item 0: key 'type': "
                       "expected a string, got 5\n")
        assert not (tmp_path / "estimates.csv").exists()

    def test_missing_reference_name_errors(self, est_dir, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(
            {"date": "2019-06-01", "owner": "big.example.",
             "records": [{"type": "A", "ttl": 300, "rdata_len": 4}]}) + "\n")
        refs = tmp_path / "refs.txt"
        refs.write_text("absent.example.\n")
        assert run("estimate", "--records", str(records),
                   "--reference-names", str(refs),
                   "--out-dir", str(tmp_path)) == 1


class TestSnoopStage:
    def test_classification_output(self, tmp_path):
        probes = tmp_path / "probes.jsonl"
        lines = [
            {"target_ip": "198.18.0.1", "responder_ip": "198.18.0.1",
             "echoed_a_record": "93.184.216.34", "qname": "anchor.example.",
             "answer_ttls": [["A", 100]], "rcode": 0, "ts": 1.0},
            {"target_ip": "198.18.0.2", "responder_ip": "203.0.113.9",
             "echoed_a_record": "93.184.216.34", "qname": "anchor.example.",
             "answer_ttls": [["A", 300]], "rcode": 0, "ts": 2.0},
        ]
        probes.write_text("".join(json.dumps(l) + "\n" for l in lines))
        ttls = tmp_path / "ttls.csv"
        ttls.write_text("qname,ttl\nanchor.example.,300\n")
        assert run("snoop", "--responses", str(probes),
                   "--ttl-table", str(ttls), "--out-dir", str(tmp_path)) == 0
        rows = jsonl(tmp_path / "snoop.jsonl")
        assert len(rows) == 2
        caches = {r["target_ip"]: r["cache"] for r in rows}
        assert caches["198.18.0.1"] == "hit"
        assert caches["198.18.0.2"] == "miss"

    @pytest.mark.parametrize("bad", [
        None,  # the good line with one byte that is not UTF-8
        b'{"rcode": "0"}', b'{"ts": "5"}', b'{"answer_ttls": [["A", "120"]]}',
        b'{"answer_ttls": [[1, 120]]}', b'{"ttl": 120}',
    ], ids=["not-utf8", "string-rcode", "string-ts", "string-ttl", "integer-type",
            "unknown-key"])
    def test_malformed_probe_line_is_counted(self, tmp_path, capsys, bad):
        good = {"target_ip": "198.18.0.1", "responder_ip": "198.18.0.1",
                "echoed_a_record": "93.184.216.34", "qname": "anchor.example.",
                "answer_ttls": [["A", 100]], "rcode": 0, "ts": 1.0}
        if bad is None:
            bad = json.dumps(good).encode().replace(b"anchor", b"anch\xffor")
        else:  # the good line with one key replaced or added
            bad = json.dumps({**good, **json.loads(bad)}).encode()
        probes = tmp_path / "probes.jsonl"
        probes.write_bytes(json.dumps(good).encode() + b"\n" + bad + b"\n")
        assert run("snoop", "--responses", str(probes), "--out-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out.startswith("1 responders kept (1 malformed, 0 dropped)")


@pytest.fixture(scope="module")
def cmp_dir(ws, tmp_path_factory):
    cmp_out = tmp_path_factory.mktemp("cmp")
    assert run("compare", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
               "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
               "--out-dir", str(cmp_out)) == 0
    return cmp_out


class TestCompareStage:
    def test_honeypot_row_not_utf8_is_processing_error(self, ws, tmp_path, capsys):
        honeypot = tmp_path / "honeypot.csv"
        lines = (out(ws, "gen") / "honeypot.csv").read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b",", b",\xff", 1)
        honeypot.write_bytes(b"".join(lines))
        assert run("compare", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(honeypot), "--out-dir", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {honeypot} line 6: not UTF-8\n"

    def test_negative_slack_is_processing_error(self, ws, tmp_path, capsys):
        assert run("compare", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--slack", "-100000", "--out-dir", str(tmp_path / "cmp")) == 1
        assert capsys.readouterr().err == \
            "error: key 'slack': expected a number >= 0, got -100000.0\n"
        assert not (tmp_path / "cmp").exists()

    def test_all_visible_attacks_matched(self, cmp_dir):
        overlap = json.loads((cmp_dir / "overlap.json").read_text())
        assert len(overlap["pairs"]) == 3
        assert overlap["trace_matched_fraction"] == 1.0
        assert overlap["honeypot_matched_fraction"] == 1.0

    def test_events_and_convergence_written(self, cmp_dir):
        events = jsonl(cmp_dir / "honeypot_events.jsonl")
        assert len(events) == 3
        assert (cmp_dir / "convergence.csv").is_file()

    @pytest.mark.parametrize("config, flags, events", [
        ({}, ("--preset", "amppot"), 0),
        ({"min_requests": 5}, ("--preset", "amppot"), 0),
        ({}, ("--preset", "amppot", "--min-requests", "5"), 3),
        ({"min_requests": 100}, (), 0),
        ({"min_requests": 100}, ("--preset", "ccc"), 3),
    ])
    def test_flag_beats_preset_beats_config(self, ws, tmp_path, config, flags, events):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("--config", str(cfg), "compare",
                   "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   *flags, "--out-dir", str(tmp_path)) == 0
        assert len((tmp_path / "honeypot_events.jsonl").read_text().splitlines()) == events

    def test_preset_accepts_known_names_only(self, ws, tmp_path):
        assert run("compare", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--preset", "ccc", "--out-dir", str(tmp_path)) == 0
        assert run("compare", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
                   "--honeypot", str(out(ws, "gen") / "honeypot.csv"),
                   "--preset", "bogus", "--out-dir", str(tmp_path)) == 2


@pytest.fixture(scope="module")
def rep_dir(ws, tmp_path_factory):
    rep = tmp_path_factory.mktemp("rep")
    assert run("report", "--attacks", str(out(ws, "det") / "attacks.jsonl"),
               "--names", str(out(ws, "sel") / "names.json"),
               "--trace", str(out(ws, "ing") / "annotated.jsonl"),
               "--out-dir", str(rep)) == 0
    return rep


class TestReportStage:
    def test_report_fields(self, rep_dir):
        report = json.loads((rep_dir / "report.json").read_text())
        assert report["events"] == 3
        assert report["victims"] == 3
        assert 0.0 <= report["request_share"] <= 1.0
        assert "nscount_le1_share" in report

    def test_tld_summary(self, rep_dir):
        with (rep_dir / "tld_summary.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["tld", "names", "packets", "packet_share",
                           "attacks", "max_response_size"]
        tlds = {r[0] for r in rows[1:]}
        assert "example." in tlds

    def test_tables_by_hand(self, tmp_path):
        def event(victim, day, qname_counts, requests, responses, ingress):
            return AttackEvent(
                victim_ip=victim, day=day, packet_count=requests + responses,
                misused_packet_count=requests + responses, est_original_packets=0,
                est_misused_packets=0, share=1.0, share_excluding_root=1.0,
                first_ts=0.0, last_ts=1.0, request_count=requests,
                response_count=responses, qname_counts=qname_counts, amplifier_set=(),
                dns_ids=(), req_ip_ids=(), req_src_ports=(), req_dns_ids=(),
                ingress_as_counts=ingress)

        write_events([
            event("10.0.0.1", "2019-06-01", {"a.example.": 6, "x.test.": 2}, 5, 3, {100: 6}),
            event("10.0.0.2", "2019-06-01", {"a.example.": 1, "b.example.": 3}, 1, 3,
                  {100: 2, 200: 2}),
            # an unlisted name counts toward the packet total only
            event("10.0.0.1", "2019-06-02", {"zz.net.": 4}, 4, 0, {300: 4}),
        ], str(tmp_path / "attacks.jsonl"))
        (tmp_path / "names.txt").write_text("a.example.\nb.example.\nx.test.\nc.org.\n")

        def packet(qname, udp_len, nscount, is_response=True):
            ports = (53, 4000) if is_response else (4000, 53)
            return PacketRecord(1.0, "192.0.2.1", "10.0.0.1", *ports, 60, 1, udp_len,
                                is_response, 7, qname, 255, 0, 0, nscount)

        # response payloads are udp_len - 8; only responses carry sizes and nscounts
        write_trace([packet("a.example.", 1008, 0), packet("a.example.", 508, 5),
                     packet("b.example.", 2008, 13), packet("c.org.", 108, 1),
                     packet("zz.net.", 4008, 20), packet("x.test.", 9008, 0, False)],
                    str(tmp_path / "trace.jsonl"))
        assert run("report", "--attacks", str(tmp_path / "attacks.jsonl"),
                   "--names", str(tmp_path / "names.txt"),
                   "--trace", str(tmp_path / "trace.jsonl"), "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "tld_summary.csv").read_text() == (
            "tld,names,packets,packet_share,attacks,max_response_size\n"
            "example.,2,10,0.625,2,2000\n"
            "org.,1,0,0.0,0,100\n"
            "test.,1,2,0.125,1,0\n")
        assert json.loads((tmp_path / "report.json").read_text()) == {
            "events": 3, "victims": 2, "request_count": 10, "response_count": 6,
            "request_share": 0.625, "ingress_concentration": 8 / 14,
            "nscount_le1_share": 0.4, "nscount_le10_share": 0.6}
