"""The file formats that stages hand each other: JSON, JSONL and CSV tables.

JSON is indented by 2 with a trailing newline, and JSONL holds one compact
object per line. CSV rows end in "\\n", and a field is quoted, per RFC 4180,
only when it holds a comma, a quote or a line break.
"""

from __future__ import annotations

import csv
import json
from types import SimpleNamespace
from typing import Any, Iterable, Iterator, Sequence


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def write_jsonl(objs: Iterable[Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj, separators=(",", ":")))
            handle.write("\n")


def write_csv(path: str, header: Sequence[str] | None,
              rows: Iterable[Sequence[Any]]) -> None:
    """An optional header row, then one line per row; None is written as an
    empty field and a float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        # csv.writer quotes a field only for the characters of its own line
        # terminator: "\r\n" makes it quote both, and each row then ends in "\n"
        lines = SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str, first_column: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank row of a CSV table.

    Line numbers count from 1 and give the line a row starts on. A first row
    whose first field equals `first_column`, in any case, is a header and is
    skipped."""
    header = first_column.lower()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        start = 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if row and not (lineno == 1 and row[0].lower() == header):
                yield lineno, row
