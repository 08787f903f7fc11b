"""The file formats that stages hand each other: JSON, JSONL and CSV tables.

Only this module opens files. JSON is indented by 2 with a trailing newline,
and JSONL holds one compact object per line, read by `read_lines`. CSV rows
end in "\\n", and a field is quoted, per RFC 4180, only when it holds a
comma, a quote or a line break. A columns file is one line of JSON, then
raw arrays, bound to the JSONL beside it by that file's length and CRC-32
(`write_bound_arrays`, `read_bound_arrays`). Its table of values holds None
first, then strings and ints, each once, and the arrays that index it stay
in range, or `read_bound_arrays` does not load it.

A dataclass record's JSON form is an object of its fields in declaration
order (`to_obj`). `from_obj` reads it back, checked against the field
annotations, so a value of the wrong shape is a ValueError that names the
key, never a TypeError further on.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import typing
import zlib
from array import array
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import date
from functools import cache
from os import PathLike
from types import SimpleNamespace, UnionType
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class Memo(dict):
    """Per-call cache of function(key): one call per distinct key."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def shared() -> Memo:
    """A memo of values to themselves: the first object seen for a value
    stands for every later equal one. Give one memo values of one type
    (None aside): a bool or float equal to an int would be shared in its
    place."""
    return Memo(lambda value: value)


def write_json(obj: Any, path: str) -> None:
    write_lines([json.dumps(obj, indent=2)], path)


def write_lines(lines: Iterable[str], path: str) -> None:
    """Each string as one line of a UTF-8 text file, ended by a bare "\\n"."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_jsonl(objs: Iterable[Any], path: str) -> None:
    write_lines((json.dumps(obj, separators=(",", ":")) for obj in objs), path)


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


def csv_writer(header: Sequence[str]) -> Callable[[Iterable[Sequence[Any]], str], None]:
    """A `writer(rows, path)` of CSV files that start with this header."""
    return lambda rows, path: write_csv(path, header, rows)


# Files are read for a digest 64 KB at a time: 1 MB chunks raised the peak
# RSS of a stage that loads a trace's columns by about 0.85 MB. The digest is
# zlib's CRC-32, not hashlib's: importing hashlib maps OpenSSL, about 3.6 MB.
_CHUNK_BYTES = 1 << 16


def file_digest(path: str | PathLike) -> tuple[int, int]:
    """(length in bytes, CRC-32) of a file's bytes."""
    length = crc = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK_BYTES):
            length += len(chunk)
            crc = zlib.crc32(chunk, crc)
    return length, crc


# A columns file `<name>.columns` holds what its JSONL `<name>.jsonl` holds, as
# a table of values and arrays, and is bound to that JSONL's bytes. Its header
# line of ASCII JSON has these keys, in order; each array's raw bytes follow
# it, in the byte order it names.
_BOUND_KEYS = ("format", "byteorder", "rows", "values", "crc32", "jsonl_bytes", "jsonl_crc32")


def write_bound_arrays(path: str, file_format: int, rows: Any, values: list,
                       arrays: Sequence[array]) -> None:
    """The columns file at path: a header of the format number, the byte
    order, the row counts, the table of values, the CRC-32 of that table
    and the arrays, and the length and CRC-32 of the JSONL beside it, which
    bind the two files; then the arrays."""
    jsonl_bytes, jsonl_crc32 = file_digest(os.path.splitext(path)[0] + ".jsonl")
    header = dict(zip(_BOUND_KEYS, (file_format, sys.byteorder, rows, values,
                                    _crc32(values, arrays), jsonl_bytes, jsonl_crc32)))
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        for column in arrays:
            column.tofile(handle)


def read_bound_arrays(path: str | PathLike, file_format: int,
                      layout: Callable[[Any], Iterable[tuple[str, int, bool]]]
                      ) -> tuple[Any, list, list[array]] | None:
    """(rows, values, arrays) of the columns file beside the JSONL at path,
    when it is well formed, of `file_format` and this machine's byte
    order, as its CRC-32 says it was written, bound to path's bytes, and
    its table is sound; else None. `layout(rows)` gives each array's type
    code, length and whether it holds indexes into the table, or raises
    ValueError. A sound table holds None first, then strings and ints
    (never a bool), each once, and every index is in range. Nothing is
    read beyond the file's size."""
    stem, extension = os.path.splitext(os.fspath(path))
    if extension != ".jsonl":
        return None
    try:
        with open(stem + ".columns", "rb") as handle:
            line = handle.readline()
            header = json.loads(line)
            if type(header) is not dict or tuple(header) != _BOUND_KEYS:
                return None
            numbers = [header[key] for key in ("format", "crc32", "jsonl_bytes", "jsonl_crc32")]
            if list(map(type, numbers)) != [int] * 4 or numbers[0] != file_format \
                    or header["byteorder"] != sys.byteorder:
                return None
            shapes = list(layout(header["rows"]))
            if not all(type(count) is int and count >= 0 for _, count, _ in shapes) \
                    or sum(array(code).itemsize * count for code, count, _ in shapes) \
                    != os.fstat(handle.fileno()).st_size - len(line):
                return None
            arrays = [array(code) for code, _, _ in shapes]
            for column, (_, count, _) in zip(arrays, shapes):
                column.fromfile(handle, count)  # EOFError: cut short since its size was read
        if file_digest(path) != (header["jsonl_bytes"], header["jsonl_crc32"]):
            return None
    except (OSError, EOFError, ValueError, RecursionError):
        return None
    values = header["values"]
    # the type check comes first: a list or dict in the table is no set member
    if type(values) is not list or _crc32(values, arrays) != header["crc32"] \
            or values[:1] != [None] or not {*map(type, values)} <= {str, int, type(None)} \
            or len(set(values)) < len(values) \
            or not all(max(column, default=0) < len(values)
                       for column, (_, _, indexes) in zip(arrays, shapes) if indexes):
        return None
    return header["rows"], values, arrays


def _crc32(values: list, arrays: Iterable[array]) -> int:
    """CRC-32 of the table as JSON, then of each array's bytes."""
    crc = zlib.crc32(json.dumps(values).encode())
    for column in arrays:
        crc = zlib.crc32(column, crc)
    return crc


def read_csv(path: str, first_column: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank row of a CSV table.

    Line numbers count from 1 and give the line a row starts on. A first row
    whose first field equals `first_column`, in any case, is a header and is
    skipped. A row that is not UTF-8 raises ValueError naming the file and
    the line."""
    header = first_column.lower()
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        start = 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            try:
                "".join(row).encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path} line {lineno}: not UTF-8") from None
            if row and not (lineno == 1 and row[0].lower() == header):
                yield lineno, row


def csv_int(text: str) -> int:
    """A CSV integer field: ASCII digits once stripped, else ValueError. No
    sign, underscore or other script's digit, which int() would take."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def csv_float(text: str) -> float:
    """A CSV float field: once stripped, a finite number in ASCII decimal
    notation (an optional sign, digits with an optional point, an optional
    exponent), else ValueError. float() alone would also take an
    underscore, another script's digit, nan and inf."""
    text = text.strip()
    value = float(text) if text.isascii() and "_" not in text else math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite decimal number, got {text!r}")
    return value


def read_json(path: str) -> Any:
    """The value a JSON file holds; a file that is not JSON raises ValueError
    naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(slots=True)
class BadLine:
    """What `read_lines` yields for a line that is not UTF-8 or not exactly
    one JSON value. No decoder takes it for a value."""

    line: str

    def error(self, where: str) -> ValueError:
        """That the line is not UTF-8, or what json.loads reports for it."""
        line = self.line.strip()
        try:
            line.encode("utf-8")
            json.loads(line)
        except UnicodeEncodeError:
            return ValueError(f"{where}: not UTF-8")
        except json.JSONDecodeError as exc:
            indent = len(self.line) - len(self.line.lstrip())
            return ValueError(f"{where} column {exc.colno + indent}: {exc.msg}")
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            return ValueError(f"{where}: {exc}")


# One JSON value at the start of a string, and where it ends. On a stripped
# line, reading up to the line's end is json.loads: no whitespace is left to
# skip, and a BOM is no value.
_scan_json = json.JSONDecoder().scan_once


def read_lines(source: str | PathLike | Iterable[str],
               scan: Callable[[str, int], tuple[Any, int]] = _scan_json
               ) -> Iterator[tuple[int, Any]]:
    """Yield (line number, value) for each non-blank line of a path or of an
    iterable of lines, counting from 1. A file is read as UTF-8, and a byte
    that is not UTF-8 spoils only its line. `scan(line, 0)` returns the value
    of the stripped line, by default its JSON value, and where it ends. A
    line that is not UTF-8, that scan cannot read or that goes on after its
    value yields a BadLine."""
    with open(source, "r", encoding="utf-8", errors="surrogateescape") \
            if isinstance(source, (str, PathLike)) else nullcontext(source) as lines:
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # a lone surrogate is not UTF-8
                value, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            yield lineno, (value if end == len(line) else BadLine(raw))


def decode_lines(lines: Iterable[tuple[int, Any]],
                 decode: Callable[[Any], T]) -> tuple[list[T], int]:
    """(decode(value) for each (line number, value) of `lines`, number of
    lines skipped): each value decode raises ValueError for, as it does for
    a BadLine, is skipped and counted."""
    kept: list[T] = []
    skipped = 0
    for _, value in lines:
        try:
            kept.append(decode(value))
        except ValueError:
            skipped += 1
    return kept, skipped


def read_jsonl(path: str, scan: Callable[[str, int], tuple[Any, int]] = _scan_json
               ) -> Iterator[tuple[int, Any]]:
    """`read_lines` of a file, where a BadLine raises ValueError naming the
    file, the line and, for bad JSON, the column."""
    for lineno, value in read_lines(path, scan):
        if type(value) is BadLine:
            raise value.error(f"{path} line {lineno}")
        yield lineno, value


def read_text_lines(path: str) -> Iterator[tuple[int, str]]:
    """`read_jsonl` of a text file whose lines are their own values."""
    return read_jsonl(path, lambda line, start: (line, len(line)))


def is_iso_day(value: object) -> bool:
    """Whether value is a day written as YYYY-MM-DD."""
    try:
        return date.fromisoformat(value).isoformat() == value
    except (TypeError, ValueError):
        return False


def to_obj(record: Any) -> dict[str, Any]:
    """A dataclass record as its JSON object: its fields in declaration order,
    one level deep (json writes a tuple as a list, an int key as a string)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def field_types(cls: type) -> dict[str, Any]:
    """The resolved annotation of each field of dataclass cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_obj(cls: type[T], obj: Any, where: str) -> T:
    """Build dataclass cls from its JSON object, checked against the field
    annotations.

    An int field needs a JSON integer. A float field takes any number and
    keeps it as given. A bool is never a number. A tuple field takes a list,
    a dict[int, ...] field takes decimal keys, and a dataclass field takes an
    object, decoded the same way. A missing key takes the field's default.
    An unknown key, a missing required field or a value that does not fit
    raises ValueError("<where>: key 'k': expected ...")."""
    try:
        return _decoder(cls)(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# The exact types of the JSON values that each scalar annotation takes.
_SCALARS = {int: ({int}, "an integer"), float: ({int, float}, "a number"),
            str: ({str}, "a string"), bool: ({bool}, "a boolean"),
            type(None): ({type(None)}, "null")}


def _scalar_types(hint: Any) -> frozenset:
    """The exact types of the JSON values a scalar annotation, or a union of
    them, takes; empty for any other annotation."""
    args = typing.get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if all(arg in _SCALARS for arg in args):
        return frozenset().union(*(_SCALARS[arg][0] for arg in args))
    return frozenset()


def _kind(hint: Any) -> str:
    args = typing.get_args(hint) if isinstance(hint, UnionType) else (hint,)
    if _scalar_types(hint):
        return " or ".join(_SCALARS[arg][1] for arg in args)
    return "a list" if typing.get_origin(hint) is tuple else "a JSON object"


def _misfit(hint: Any, value: Any) -> ValueError:
    text = repr(value)
    if len(text) > 80:
        text = text[:77] + "..."
    return ValueError(f"expected {_kind(hint)}, got {text}")


def _decode_all(triples: Iterable[tuple[Any, Callable[[Any], Any], Any]],
                label: str) -> Iterator[Any]:
    """decode(value) for each (key, decode, value); a misfit names its key."""
    for key, decode, value in triples:
        try:
            yield decode(value)
        except ValueError as exc:
            raise ValueError(f"{label} {key!r}: {exc}") from None


@cache
def _decoder(hint: Any) -> Callable[[Any], Any]:
    """decode(value): the JSON value as the annotation `hint` takes it, or a
    ValueError. Built once per annotation, so decoding only checks types; a
    list or dict of scalars is checked in one pass over its value types."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    accepted = _scalar_types(hint)
    if accepted:
        def decode(value):
            if type(value) in accepted:
                return value
            raise _misfit(hint, value)
    elif origin is tuple and args[-1] is Ellipsis:
        item, item_types = _decoder(args[0]), _scalar_types(args[0])

        def decode(value):
            if type(value) is not list and type(value) is not tuple:
                raise _misfit(hint, value)
            if item_types.issuperset(map(type, value)):
                return tuple(value)
            return tuple(_decode_all(((i, item, v) for i, v in enumerate(value)), "item"))
    elif origin is tuple:
        items = tuple(map(_decoder, args))

        def decode(value):
            if type(value) not in (list, tuple) or len(value) != len(items):
                raise _misfit(hint, value)
            return tuple(_decode_all(zip(range(len(items)), items, value), "item"))
    elif origin is dict and args[0] in (str, int):
        item, item_types = _decoder(args[1]), _scalar_types(args[1])

        def decode(value):
            if type(value) is not dict:
                raise _misfit(hint, value)
            if not item_types.issuperset(map(type, value.values())):
                value = dict(zip(value, _decode_all(((k, item, v) for k, v in value.items()),
                                                    "key")))
            if args[0] is str:
                return dict(value)
            decoded = {}
            for key, item_value in value.items():
                try:
                    number = int(key)
                except ValueError:
                    number = None
                if number is None or str(number) != key:
                    raise ValueError(f"key {key!r}: expected a decimal integer")
                decoded[number] = item_value
            return decoded
    elif is_dataclass(hint):
        decode = _dataclass_decoder(hint)
    else:
        raise TypeError(f"no JSON form for the annotation {hint!r}")
    return decode


def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    hints = field_types(cls)
    init = [f for f in fields(cls) if f.init]
    decoders = {f.name: _decoder(hints[f.name]) for f in init}
    required = [f.name for f in init if f.default is MISSING and f.default_factory is MISSING]
    valid = ", ".join(map(repr, decoders))

    def decode(obj):
        if type(obj) is not dict:
            raise _misfit(cls, obj)
        kwargs = {}
        for key, value in obj.items():
            if key not in decoders:
                raise ValueError(f"key {key!r}: expected one of the keys {valid}")
            try:
                kwargs[key] = decoders[key](value)
            except ValueError as exc:
                raise ValueError(f"key {key!r}: {exc}") from None
        if len(kwargs) < len(decoders):
            for key in required:
                if key not in kwargs:
                    raise ValueError(f"key {key!r}: expected {_kind(hints[key])}, got nothing")
        return cls(**kwargs)
    return decode
