"""A fixed reference task that measures how fast the machine is right now.

    python3 bench/reference.py --scratch FILE

It does the kinds of work a `dnsamp` stage does, on fixed data and without
importing `dnsamp`: an interpreter start with numpy imported, JSON lines
written, read back and aggregated in Python dicts, a numpy sort, and a JSON
lines output. Its work never changes, so its wall time moves only with the
machine. The benchmark runs it between passes and scales its time metrics by
how fast it ran (see `harness.Bench.speed_scale`). FILE is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

RECORDS = 20000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the fixed reference task.")
    parser.add_argument("--scratch", required=True, help="temporary file, removed at the end")
    path = parser.parse_args(argv).scratch
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(RECORDS):
            handle.write(json.dumps({
                "ts": i * 0.37, "src_ip": f"10.{i % 7}.{i % 250}.{i % 13}",
                "dst_ip": f"172.16.{i % 97}.1", "qname": f"n{i % 31}.example.",
                "size": 60 + (i * 7919) % 3000, "id": (i * 104729) % 65536}) + "\n")
    totals: dict[tuple[str, str], list[int]] = {}
    sizes = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            total = totals.setdefault((record["src_ip"], record["qname"]), [0, 0])
            total[0] += 1
            total[1] += record["size"]
            sizes.append(record["size"])
    np.unique(np.sort(np.array(sizes)))
    with open(path, "w", encoding="utf-8") as handle:
        for key, total in sorted(totals.items()):
            handle.write(json.dumps({"key": key, "packets": total[0], "bytes": total[1]}) + "\n")
    os.unlink(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
