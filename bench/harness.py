"""Stage definitions, the subprocess stage runner, output checks, sample
statistics, and the orchestration of one benchmark run.

This module uses the standard library only. The process that starts the
stage subprocesses must stay small: on Linux a child's `ru_maxrss` includes
the memory it inherited from its parent before `exec`. Work that needs
dnsamp or numpy (input generation, in-process traced passes) runs in child
processes of its own: `workloads.py` and `tracing.py`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import COUNT_METRICS, DERIVED, STAGES

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 3
# A typical wall time of `reference.py` on the development machine (Intel
# Xeon, 2 vCPUs). Time metrics are scaled to a machine that runs the
# reference task in this time.
REFERENCE_S = 0.70


@dataclass(frozen=True)
class Stage:
    """One CLI invocation; `{in}` and `{out}` expand to the input and pass directories."""

    name: str
    args: tuple[str, ...]

    def argv(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [self.name] + [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))
                              for a in self.args]


# The README quick-start order.
TRACE_STAGES = (
    Stage("ingest", ("--trace", "{in}/trace.jsonl", "--prefix-table", "{in}/prefixes.csv",
                     "--out-dir", "{out}")),
    Stage("select-names", ("--trace", "{out}/annotated.jsonl", "--honeypot", "{in}/honeypot.csv",
                           "--out-dir", "{out}")),
    Stage("detect", ("--trace", "{out}/annotated.jsonl", "--names", "{out}/names.json",
                     "--out-dir", "{out}")),
    Stage("cluster", ("--attacks", "{out}/attacks.jsonl", "--out-dir", "{out}")),
    Stage("compare", ("--attacks", "{out}/attacks.jsonl", "--honeypot", "{in}/honeypot.csv",
                      "--out-dir", "{out}")),
    Stage("report", ("--attacks", "{out}/attacks.jsonl", "--names", "{out}/names.json",
                     "--trace", "{out}/annotated.jsonl", "--out-dir", "{out}")),
)

# event-log: the detection pass runs once per set-up and writes into the input
# directory; the timed stages re-analyse the resulting event log.
EVENT_LOG_SETUP_STAGES = tuple(
    Stage(s.name, tuple(a.replace("{out}", "{in}") for a in s.args)) for s in TRACE_STAGES[:3])

EVENT_STAGES = (
    Stage("fingerprint", ("--attacks", "{in}/attacks.jsonl",
                          "--fingerprint-spec", "{in}/fingerprint.json",
                          "--names", "{in}/names.json", "--out-dir", "{out}")),
    Stage("cluster", ("--attacks", "{in}/attacks.jsonl", "--out-dir", "{out}")),
    Stage("compare", ("--attacks", "{in}/attacks.jsonl", "--honeypot", "{in}/honeypot.csv",
                      "--out-dir", "{out}")),
    Stage("report", ("--attacks", "{in}/attacks.jsonl", "--names", "{in}/names.json",
                     "--out-dir", "{out}")),
)


WORKLOADS = ("backbone-day", "longtail-dirty", "event-log")


def stages_for(workload: str) -> tuple[Stage, ...]:
    return EVENT_STAGES if workload == "event-log" else TRACE_STAGES


@dataclass
class StageRun:
    name: str
    wall_s: float
    rss_mb: float | None
    returncode: int


@dataclass
class PassResult:
    directory: Path
    stages: list[StageRun]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb or 0.0 for s in self.stages)


def run_child(argv: list[str], src: Path, log: Path) -> tuple[int, float, float]:
    """Run one child process to completion with `src` on its import path:
    (exit code, wall seconds, peak RSS in MB). Its output goes to `log`,
    which is kept only if it fails."""
    with open(log, "w", encoding="utf-8") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=handle,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == 0:
        log.unlink()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def log_tail(log: Path) -> str:
    """Last line a failed child wrote, for the failure report."""
    try:
        lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def run_stage_subprocess(stage: Stage, in_dir: Path, out_dir: Path, src: Path) -> StageRun:
    """Run one stage as `python -m dnsamp.cli`, as the `dnsamp` script would."""
    out_dir.mkdir(parents=True, exist_ok=True)
    code, wall, rss = run_child(
        [sys.executable, "-m", "dnsamp.cli", *stage.argv(in_dir, out_dir)],
        src, out_dir.parent / f"{out_dir.name}.{stage.name}.log")
    return StageRun(stage.name, wall, rss, code)


# --- output checks -----------------------------------------------------------

class Checks:
    """Counts attempted and failed stage invocations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_event_keys(path: Path) -> list[tuple[str, str]] | None:
    """(victim_ip, day) per line of attacks.jsonl; None if any line is unreadable."""
    try:
        keys = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    obj = json.loads(line)
                    keys.append((obj["victim_ip"], obj["day"]))
        return keys
    except (OSError, ValueError, KeyError, TypeError):
        return None


def recall_precision(events: list[tuple[str, str]],
                     expected: list[tuple[str, str]]) -> tuple[float, float]:
    """Share of expected (victim, day) pairs detected, and share of detected
    pairs expected."""
    expected_set, detected = set(expected), set(events)
    hits = len(expected_set & detected)
    recall = hits / len(expected_set) if expected_set else 0.0
    precision = hits / len(detected) if detected else 0.0
    return recall, precision


def clusters_match(clusters_path: Path, events: list[tuple[str, str]] | None) -> bool:
    """clusters.json holds one integer label per event, in event order."""
    if events is None:
        return False
    try:
        with open(clusters_path, "r", encoding="utf-8") as handle:
            labels = json.load(handle)["labels"]
        return [(row["victim_ip"], row["day"]) for row in labels] == events \
            and all(isinstance(row["label"], int) for row in labels)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def ingest_counts_match(stats_path: Path, skipped: int, dropped: int) -> bool:
    try:
        with open(stats_path, "r", encoding="utf-8") as handle:
            stats = json.load(handle)
        return stats["skipped_lines"] == skipped and stats["dropped_records"] == dropped
    except (OSError, ValueError, KeyError, TypeError):
        return False


def output_digests(directory: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(directory.iterdir()):
        if path.is_file():
            with open(path, "rb") as handle:
                digests[path.name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests


# --- statistics and environment ----------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer), the sample count and the
    samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        high = {"p": math.floor(100.0 * (n - 10) / n), "value": ordered[n - 11]}
    else:
        high = {"p": 100, "value": ordered[-1]}
    return {"median": statistics.median(ordered), "high": high, "n": n, "samples": values}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- one benchmark run ---------------------------------------------------------

class Bench:
    """One run: set-up, measured passes, checks, and the reported metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_run" / f"{workload}-seed{seed}-{time.time_ns()}"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.stages = stages_for(workload)
        self.checks = Checks()
        self.input_dir = self.work / "input-0"
        self.meta: dict = {}
        self.setup_times: list[float] = []
        self.reference_walls: list[float] = []
        self.synth_times: dict[str, list[float]] = {"generate_s": [], "write_s": []}
        self.events: list[tuple[str, str]] | None = None
        self.reference: dict[str, str] | None = None
        self.passes = 0

    # --- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs SETUP_REPEATS times, for a steady set-up time;
        every repeat must write the same bytes. Set-up time is synth's
        generate and write time, measured inside the generator (its
        interpreter start-up is not program work), plus the wall time of the
        event-log detection pass."""
        self.work.mkdir(parents=True)
        first_digests = None
        for k in range(SETUP_REPEATS):
            self.run_reference()
            directory = self.work / f"input-{k}"
            meta_path = self.work / f"meta-{k}.json"
            log = self.work / f"setup-{k}.log"
            code, *_ = run_child(
                [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--out", str(directory), "--meta", str(meta_path)],
                self.src, log)
            if code != 0:
                raise RuntimeError(f"input generation exited {code}: {log_tail(log)}")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            for key in self.synth_times:
                self.synth_times[key].append(meta["timings"][key])
            elapsed = sum(meta["timings"].values())
            if self.workload == "event-log":
                for stage in EVENT_LOG_SETUP_STAGES:
                    run = run_stage_subprocess(stage, directory, directory, self.src)
                    stage_log = directory.parent / f"{directory.name}.{stage.name}.log"
                    self.checks.check(run.returncode == 0, f"set-up {stage.name} exited "
                                      f"{run.returncode}: {log_tail(stage_log)}")
                    elapsed += run.wall_s
            self.setup_times.append(elapsed)
            digests = output_digests(directory)
            if first_digests is None:
                first_digests, self.meta = digests, meta
            else:
                self.checks.check(digests == first_digests,
                                  f"set-up repeat {k} wrote different inputs")
                shutil.rmtree(directory)

    # --- machine speed -----------------------------------------------------------

    def run_reference(self) -> None:
        """Run the fixed reference task once and keep its wall time."""
        log = self.work / "reference.log"
        code, wall, _ = run_child(
            [sys.executable, str(BENCH_DIR / "reference.py"),
             "--scratch", str(self.work / "reference.tmp")], self.src, log)
        if code != 0:
            raise RuntimeError(f"reference task exited {code}: {log_tail(log)}")
        self.reference_walls.append(wall)

    @property
    def speed_scale(self) -> float:
        """REFERENCE_S over the median wall time of the reference task in this
        run.

        The host switches between a fast and a slow state, up to half apart,
        that last from seconds to minutes: longer than a run, so medians
        within a run cannot remove them. The reference task runs before every
        set-up repeat and every pass, so it sees the same states as the
        program. The time metrics are medians scaled by this factor, which
        takes the host's state out of them and leaves the program's cost."""
        return REFERENCE_S / statistics.median(self.reference_walls)

    # --- passes ------------------------------------------------------------------

    def check_pass(self, result: PassResult) -> None:
        """Check one pass's outputs, then delete them."""
        out_dir = result.directory
        for stage in result.stages:
            self.checks.check(stage.returncode == 0, f"{stage.name} exited {stage.returncode}: "
                              f"{log_tail(out_dir.parent / f'{out_dir.name}.{stage.name}.log')}")
        events_dir = self.input_dir if self.workload == "event-log" else out_dir
        events = read_event_keys(events_dir / "attacks.jsonl")
        self.checks.check(events is not None, "attacks.jsonl unreadable")
        if self.events is None:
            self.events = events
        self.checks.check(clusters_match(out_dir / "clusters.json", events),
                          "clusters.json labels do not match the events")
        if self.workload == "longtail-dirty":
            self.checks.check(
                ingest_counts_match(out_dir / "ingest_stats.json",
                                    self.meta["planted_skipped"], self.meta["planted_dropped"]),
                "ingest_stats.json disagrees with the planted corruption")
        digests = output_digests(out_dir) if out_dir.is_dir() else {}
        if self.reference is None:
            self.reference = digests
        else:
            self.checks.check(digests == self.reference, "outputs differ from the first pass")
        shutil.rmtree(out_dir, ignore_errors=True)

    def subprocess_passes(self, until: float) -> list[PassResult]:
        results = []
        while len(results) < MIN_PASSES or time.perf_counter() < until:
            self.run_reference()
            out_dir = self.work / f"pass-{self.passes}"
            self.passes += 1
            result = PassResult(out_dir, [
                run_stage_subprocess(stage, self.input_dir, out_dir, self.src)
                for stage in self.stages])
            self.check_pass(result)
            results.append(result)
        return results

    def traced_passes(self, seconds: float) -> dict:
        """Run `tracing.py` in a child process for alternating untraced and
        traced in-process passes, then check the passes it left behind.
        Returns its per-pass metrics and traced-minus-untraced wall times."""
        result_path = self.work / "traced.json"
        log = self.work / "traced.log"
        code, *_ = run_child(
            [sys.executable, str(BENCH_DIR / "tracing.py"), "--workload", self.workload,
             "--in", str(self.input_dir), "--work", str(self.work),
             "--first-pass", str(self.passes), "--seconds", repr(seconds),
             "--spans", str(self.root / ".bench_run" / "spans" /
                            f"{self.workload}-seed{self.seed}.jsonl"),
             "--result", str(result_path)],
            self.src, log)
        if code != 0:
            raise RuntimeError(f"traced passes exited {code}: {log_tail(log)}")
        traced = json.loads(result_path.read_text(encoding="utf-8"))
        for record in traced["passes"]:
            self.passes += 1
            self.check_pass(PassResult(Path(record["directory"]),
                                       [StageRun(**s) for s in record["stages"]]))
        for pair, ok in enumerate(traced["consistent"]):
            self.checks.check(ok, f"traced pass {pair}: a span is shorter than its children")
        return traced

    # --- results -----------------------------------------------------------------

    def check_detections(self) -> tuple[float, float]:
        """Recall and precision of the first pass's events against the ground
        truth; the synthetic truth is exact, so both must be 1."""
        recall, precision = recall_precision(
            self.events or [], [tuple(pair) for pair in self.meta["expected"]])
        self.checks.check(recall == precision == 1.0,
                          f"detections differ from the ground truth: recall {recall:.4f}, "
                          f"precision {precision:.4f}")
        return recall, precision

    def end_to_end(self) -> tuple[dict, dict]:
        results = self.subprocess_passes(time.perf_counter() + self.seconds)
        recall, precision = self.check_detections()
        values = {
            "setup_s": statistics.median(self.setup_times) * self.speed_scale,
            "pipeline_s": statistics.median(r.wall_s for r in results) * self.speed_scale,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in results),
            "detect_recall": recall,
            "detect_precision": precision,
            "passed_share": 1.0 - self.checks.failed / self.checks.attempted,
        }
        timings = {
            "setup_wall_s": summary(self.setup_times),
            "pipeline_wall_s": summary([r.wall_s for r in results]),
            "reference_s": summary(self.reference_walls),
            "speed_scale": self.speed_scale,
            "peak_rss_mb": summary([r.peak_rss_mb for r in results]),
        }
        for i, stage in enumerate(self.stages):
            timings[f"cli.{stage.name}.wall_s"] = summary([r.stages[i].wall_s for r in results])
            timings[f"cli.{stage.name}.rss_mb"] = summary([r.stages[i].rss_mb for r in results])
        return values, timings

    def per_layer(self) -> tuple[dict, dict]:
        start = time.perf_counter()
        results = self.subprocess_passes(start + self.seconds / 2)
        traced = self.traced_passes(max(0.0, start + self.seconds - time.perf_counter()))
        self.check_detections()
        per_pass = traced["metrics"]
        self.checks.check(
            all(m[c] == per_pass[0][c] for m in per_pass for c in COUNT_METRICS),
            "per-layer counts differ between traced passes")
        values = {name: statistics.median(m[name] for m in per_pass) for name in DERIVED}
        ran = {stage.name: i for i, stage in enumerate(self.stages)}
        for stage in STAGES:
            i = ran.get(stage)
            values[f"cli.{stage}.wall_s"] = 0.0 if i is None else \
                statistics.median(r.stages[i].wall_s for r in results)
            values[f"cli.{stage}.rss_mb"] = 0.0 if i is None else \
                statistics.median(r.stages[i].rss_mb for r in results)
        for key, samples in self.synth_times.items():
            values[f"synth.{key}"] = statistics.median(samples)
        values["bench.tracing_overhead_s"] = statistics.median(traced["overheads"])
        timings = {"bench.tracing_overhead_s": summary(traced["overheads"]),
                   "pipeline_wall_s": summary([r.wall_s for r in results])}
        return values, timings

    def detail(self, timings: dict) -> dict:
        """Everything reported besides the metrics: environment, input sizes,
        sample summaries, the failed share and the first failures."""
        events = len(self.events or [])
        return {
            "env": {
                "git_sha": git_sha(self.root),
                "python": sys.version.split()[0],
                "numpy": self.meta.get("numpy"),
                "nproc": len(os.sched_getaffinity(0)),
                "workload": self.workload,
                "seed": self.seed,
            },
            "inputs": {
                "records": self.meta.get("records"),
                "client_ips": self.meta.get("client_ips"),
                "events": events,
                "honeypot_requests": self.meta.get("honeypot_requests"),
                "pairs": events * (events - 1) // 2,
            },
            "timings": timings,
            "failed_share": {"value": self.checks.failed / max(self.checks.attempted, 1),
                             "unit": "ratio"},
            "failures": self.checks.failures[:20],
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
