"""Span tracing around calls into the dnsamp modules, from outside the package.

`Tracer.install()` replaces public functions on the `dnsamp.<module>` objects
with wrappers that open a span per call and add counts taken from the
arguments and results. The CLI calls through those module attributes, and
so do the modules themselves, so nested calls become child spans. Spans stay
in memory as (name, start, end, parent, pass id) and are written out once,
when the run ends.

    python3 bench/tracing.py --workload NAME --in DIR --work DIR --first-pass K \
        --seconds S --spans FILE --result FILE

runs pairs of in-process passes (`dnsamp.cli.main` per stage), one untraced
and one traced, alternating which goes first, for S seconds and at least
MIN_TRACED_PAIRS pairs. Pass outputs stay in DIR/pass-K, DIR/pass-K+1, ... for
the caller to check; FILE gets each pass's stage results, each traced pass's
per-layer metrics, and the traced-minus-untraced wall time of each pair.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from dnsamp import amplifiers as amp
from dnsamp import cli
from dnsamp import detector as det
from dnsamp import fingerprint as fp
from dnsamp import honeypot as hp
from dnsamp import selectors as sel
from dnsamp import trace as tr

from harness import Stage, StageRun, stages_for
from metrics import DERIVED

MIN_TRACED_PAIRS = 2


# (module, attribute, span name, counter function(counts, args, result) or None)
WRAPPED = (
    (tr, "parse_trace", "trace.parse", lambda c, a, r: c.update({
        "trace.parse_calls": 1, "trace.records_parsed": len(r[0]),
        "trace.skipped_lines": r[1]})),
    (tr, "sanitize", "trace.sanitize", lambda c, a, r: c.update({
        "trace.sanitize_records": len(r[0]) + r[1], "trace.dropped_records": r[1]})),
    (tr, "annotate", "trace.annotate", lambda c, a, r: c.update({
        "trace.annotate_records": len(a[0])})),
    (tr, "write_trace", "trace.write", lambda c, a, r: c.update({
        "trace.records_written": len(a[0])})),
    (sel, "selector_max_size", "selectors.max_size", lambda c, a, r: c.update({
        "selectors.records": len(a[0])})),
    (sel, "selector_any_volume", "selectors.any_volume", None),
    (sel, "selector_ground_truth", "selectors.ground_truth", None),
    (sel, "consensus_merge", "selectors.consensus", lambda c, a, r: c.update({
        "selectors.names": len(r), "selectors.k_star": r.k_star})),
    (det, "aggregate_client_days", "detector.aggregate", lambda c, a, r: c.update({
        "detector.aggregate_records": len(a[0]), "detector.client_days": len(r)})),
    (det, "detect_attacks", "detector.detect", lambda c, a, r: c.update({
        "detector.events": len(r)})),
    (det, "write_events", "detector.write_events", None),
    (det, "read_events", "detector.read_events", None),
    (det, "victim_summary", "detector.victim_summary", None),
    (fp, "classify_dnsid_pattern", "fingerprint.classify_dnsid", None),
    (fp, "field_cardinality_profile", "fingerprint.cardinality", None),
    (fp, "attribute_entity", "fingerprint.attribute", None),
    (fp, "build_name_timeline", "fingerprint.timeline", None),
    (fp, "ingress_concentration", "fingerprint.ingress_concentration", None),
    (amp, "jaccard_distance_matrix", "amplifiers.jaccard", lambda c, a, r: c.update({
        "amplifiers.pairs": len(a[0]) * (len(a[0]) - 1) // 2})),
    (amp, "write_distance_matrix", "amplifiers.write_matrix", lambda c, a, r: c.update({
        "amplifiers.matrix_bytes": np.asarray(a[0]).nbytes})),
    (amp, "dbscan_cluster", "amplifiers.dbscan", None),
    (amp, "stable_sets", "amplifiers.stable_sets", None),
    (amp, "churn_metrics", "amplifiers.churn", None),
    (hp, "read_honeypot_csv", "honeypot.read_csv", lambda c, a, r: c.update({
        "honeypot.requests": len(r[0])})),
    (hp, "infer_honeypot_attacks", "honeypot.infer", lambda c, a, r: c.update({
        "honeypot.events": len(r)})),
    (hp, "overlap", "honeypot.overlap", None),
)


class Tracer:
    """In-memory spans and per-pass counters, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.pass_ids: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.pass_ids.append(self.pass_id)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, function, name: str, count):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # A function calling itself (parse_trace on a path) stays one span.
            if tracer._stack and tracer.names[tracer._stack[-1]] == name:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts[tracer.pass_id], args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in WRAPPED:
            function = getattr(module, attr)
            self._saved.append((module, attr, function))
            setattr(module, attr, self._wrap(function, name, count))
        lookup = tr.PrefixTable.lookup
        self._saved.append((tr.PrefixTable, "lookup", lookup))
        tracer = self

        # annotate caches per address, so lookups count distinct addresses
        def counted_lookup(table, ip):
            tracer.counts[tracer.pass_id]["trace.annotate_distinct_ips"] += 1
            return lookup(table, ip)

        tr.PrefixTable.lookup = counted_lookup

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- reporting --------------------------------------------------------------

    def _self_times(self, pass_id: int) -> dict[int, float]:
        """Span index -> its duration minus the durations of its child spans,
        for the spans of one pass. Spans run on one thread, so children never
        overlap."""
        spans = [i for i, p in enumerate(self.pass_ids) if p == pass_id]
        own = {i: self.ends[i] - self.starts[i] for i in spans}
        for i in spans:
            if self.parents[i] >= 0:
                own[self.parents[i]] -= self.ends[i] - self.starts[i]
        return own

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        busy: Counter = Counter()
        self_time: Counter = Counter()
        for i, own in self._self_times(pass_id).items():
            busy[self.names[i]] += self.ends[i] - self.starts[i]
            self_time[self.names[i]] += own
        counts = self.counts[pass_id]
        out = {}
        for metric, (_, kind, arg) in DERIVED.items():
            if kind == "count":
                out[metric] = counts[arg]
            elif kind == "s":
                out[metric] = busy[arg]
            elif kind == "self":
                out[metric] = self_time[arg]
            else:
                span, base = arg
                out[metric] = 1e6 * busy[span] / counts[base] if counts[base] else 0.0
        return out

    def self_times_consistent(self, pass_id: int) -> bool:
        """Every span covers its children: no self time is negative."""
        return all(own >= -1e-9 for own in self._self_times(pass_id).values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "pass": self.pass_ids[i]}))
                handle.write("\n")


def run_stage_inprocess(stage: Stage, in_dir: Path, out_dir: Path,
                        tracer: Tracer | None) -> StageRun:
    """Run one stage through `dnsamp.cli.main` in this process, its output
    silenced, under a `cli.<stage>` span when traced."""
    span = tracer.span(f"cli.{stage.name}") if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(stage.argv(in_dir, out_dir))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails the stage, as its traceback would
        code = 1
    return StageRun(stage.name, perf_counter() - start, None, code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Untraced and traced in-process passes.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--in", dest="in_dir", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--first-pass", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    stages = stages_for(args.workload)
    in_dir, work = Path(args.in_dir), Path(args.work)
    tracer = Tracer()
    passes: list[dict] = []
    overheads: list[float] = []
    deadline = perf_counter() + args.seconds
    while len(overheads) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        pair = len(overheads)
        walls = {}
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            out_dir = work / f"pass-{args.first_pass + len(passes)}"
            gc.collect()
            if traced:
                tracer.pass_id = pair
                tracer.install()
            try:
                runs = [run_stage_inprocess(stage, in_dir, out_dir, tracer if traced else None)
                        for stage in stages]
            finally:
                tracer.uninstall()
            passes.append({"directory": str(out_dir), "stages": [asdict(run) for run in runs]})
            walls[traced] = sum(run.wall_s for run in runs)
        overheads.append(walls[True] - walls[False])
    tracer.write(Path(args.spans))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({
            "passes": passes,
            "overheads": overheads,
            "metrics": [tracer.pass_metrics(p) for p in range(len(overheads))],
            "consistent": [tracer.self_times_consistent(p) for p in range(len(overheads))],
        }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
