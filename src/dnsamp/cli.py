"""Command-line pipeline over the library.

Subcommands map one-to-one onto analysis stages and exchange plain files
(JSONL/CSV/JSON), so stages can be re-run, diffed, and composed per day.
Each subcommand reads its inputs and makes one library call, its `pipeline`
stage function. `_write` writes every file of the `StageResult` it returns
and prints its line. Outputs are deterministic: identical inputs produce
byte-identical files.

Exit codes: 0 success, 1 processing error, 2 usage error. `run`, the
`dnsamp` script, exits without the interpreter's final garbage collection.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import pipeline
from .fileio import field_types, from_obj, read_json
from .pipeline import PRESETS, Settings, StageResult

if TYPE_CHECKING:
    from .detector import AttackEvent
    from .records import Trace


def _settings(args: argparse.Namespace) -> Settings:
    """Flag beats preset beats config file beats default."""
    config = Settings() if args.config is None else \
        from_obj(Settings, read_json(args.config), args.config)
    if getattr(args, "preset", None):
        config = dataclasses.replace(
            config, **dict(zip(("min_requests", "max_gap"), PRESETS[args.preset])))
    flags = {name: getattr(args, name) for name in field_types(Settings)
             if getattr(args, name, None) is not None}
    return dataclasses.replace(config, **flags)


def _load_names(path: str) -> set[str]:
    from . import selectors as sel

    if path.endswith(".json"):
        return sel.read_name_list(path).name_set()
    return sel.read_plain_names(path)


def _cmd_ingest(args: argparse.Namespace, config: Settings | None = None) -> StageResult:
    """`pipeline.prepare` of --trace, annotated when the subcommand has a
    --prefix-table and it is given."""
    from . import trace as tr

    table = getattr(args, "prefix_table", None)
    return pipeline.prepare(args.trace, tr.PrefixTable.from_csv(table) if table else None)


def _records(args: argparse.Namespace) -> Trace:
    return _cmd_ingest(args)["annotated.jsonl"]


def _events(args: argparse.Namespace) -> list[AttackEvent]:
    """The events of --attacks, with the fields the subcommand's stage reads."""
    from . import detector as det

    return det.read_events(args.attacks, pipeline.EVENT_FIELDS[args.command])


def _cmd_select_names(args: argparse.Namespace, config: Settings) -> StageResult:
    records = _records(args)
    requests = None
    if args.honeypot:
        from . import honeypot as hp

        requests = hp.read_honeypot_csv(args.honeypot)[0]
    previous = _load_names(args.previous) if args.previous else None
    return pipeline.select_names(records, config, requests, previous)


def _cmd_detect(args: argparse.Namespace, config: Settings) -> StageResult:
    return pipeline.detect(_records(args), _load_names(args.names), config)


def _cmd_fingerprint(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import fingerprint as fp

    events = _events(args)
    spec = fp.read_fingerprint(args.fingerprint_spec)
    names = _load_names(args.names) if args.names else None
    return pipeline.fingerprint(events, spec, config, names)


def _cmd_cluster(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import amplifiers as amp

    events = _events(args)
    seen_table = amp.read_seen_table(args.seen_table) if args.seen_table else None
    ns_table = amp.read_ns_ip_table(args.ns_table) if args.ns_table else None
    return pipeline.cluster(events, config, seen_table, ns_table)


def _cmd_estimate(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import sizing

    record_sets = sizing.read_record_sets(args.records)
    references = ()
    if args.reference_names:
        from . import selectors as sel

        references = sel.read_plain_names(args.reference_names)
    return pipeline.estimate(record_sets, config, references, args.edns)


def _cmd_snoop(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import snoop

    responses, malformed = snoop.read_probe_responses(args.responses)
    ttls = snoop.read_default_ttls(args.ttl_table) if args.ttl_table else {}
    return pipeline.snoop(responses, ttls, malformed)


def _cmd_synth(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import synth

    cfg = synth.read_scenario(args.scenario)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return pipeline.synth(cfg)


def _cmd_compare(args: argparse.Namespace, config: Settings) -> StageResult:
    from . import honeypot as hp

    return pipeline.compare(_events(args), hp.read_honeypot_csv(args.honeypot)[0], config)


def _cmd_report(args: argparse.Namespace, config: Settings) -> StageResult:
    events = _events(args)
    names = _load_names(args.names) if args.names else None
    return pipeline.report(events, names, _records(args) if args.trace else None)


def _write(result: StageResult, out: Path) -> None:
    """Each of the result's files into out, made if missing, then its line."""
    out.mkdir(parents=True, exist_ok=True)
    for name, (writer, value) in result.files.items():
        writer(value, str(out / name))
    print(result.line)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnsamp",
        description="DNS reflection-attack analysis over sampled traces")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    sub = parser.add_subparsers(dest="command", required=True)
    setting_types = field_types(Settings)

    def add_settings(p: argparse.ArgumentParser, *names: str) -> None:
        """A flag per Settings field the subcommand reads, typed as the field."""
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), type=setting_types[name])

    p = sub.add_parser("ingest", help="parse, sanitize, and annotate a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--prefix-table")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("select-names", help="build the misused-name consensus list")
    p.add_argument("--trace", required=True)
    p.add_argument("--honeypot")
    add_settings(p, "k_max", "slack", "min_requests", "max_gap")
    p.add_argument("--previous", help="previous day's names.json for fluctuation check")
    p.set_defaults(func=_cmd_select_names)

    p = sub.add_parser("detect", help="detect attack events per client-day")
    p.add_argument("--trace", required=True)
    p.add_argument("--names", required=True)
    p.add_argument("--prefix-table")
    add_settings(p, "share_threshold", "min_packets", "sampling")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("fingerprint", help="classify header patterns, attribute entities")
    p.add_argument("--attacks", required=True)
    p.add_argument("--fingerprint-spec", required=True)
    p.add_argument("--names")
    add_settings(p, "min_segment")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("cluster", help="cluster events by amplifier-set distance")
    p.add_argument("--attacks", required=True)
    add_settings(p, "eps", "min_pts")
    p.add_argument("--seen-table")
    p.add_argument("--ns-table")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("estimate", help="size ANY responses from record inventories")
    p.add_argument("--records", required=True)
    p.add_argument("--reference-names")
    p.add_argument("--edns", action="store_true",
                   help="assume an EDNS OPT record in the request size")
    add_settings(p, "min_days", "min_step")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("snoop", help="classify cache-snooping probe responses")
    p.add_argument("--responses", required=True)
    p.add_argument("--ttl-table")
    p.set_defaults(func=_cmd_snoop)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("compare", help="match trace events against honeypot events")
    p.add_argument("--attacks", required=True)
    p.add_argument("--honeypot", required=True)
    p.add_argument("--preset", choices=sorted(PRESETS))
    add_settings(p, "min_requests", "max_gap", "slack")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="aggregate tables from detected events")
    p.add_argument("--attacks", required=True)
    p.add_argument("--names")
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_report)
    for p in sub.choices.values():  # added last, so each subcommand lists it last
        p.add_argument("--out-dir", default=".")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # the settings, all bounds checked, come before the subcommand reads any input
        _write(args.func(args, _settings(args)), Path(args.out_dir))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> NoReturn:
    """`main`, then exit once stdout and stderr are flushed, skipping the
    interpreter's teardown: every file is closed by then. A flush that fails
    (a closed pipe) leaves the exit to `sys.exit`, as before."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
