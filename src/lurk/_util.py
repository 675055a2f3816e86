"""Shared helpers: hashing, seed derivation, float formatting, the artifact
file codec (atomic writes, CSV tables, JSON), config key and value checks."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError


def fmt_float(x) -> str:
    """Shortest decimal form that round-trips exactly through float()."""
    return repr(float(x))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stage_seed(master_seed: int, label: str) -> int:
    """Derive a labeled sub-stream seed from one master seed.

    Stable across platforms and runs; distinct labels give independent
    streams without coupling stages to each other's draw counts.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def write_atomic(path, text: str) -> None:
    """Write `text` (newlines as given) to `<path>.tmp`, then move it onto
    `path`: a write that fails or is killed halfway leaves the previous file
    whole, and a failed one leaves no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(obj, path) -> str:
    """Write canonical (sorted-key) JSON atomically; returns the text written."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text)
    return text


def write_table(path, header, columns) -> None:
    """Write a CSV table atomically: the `header` row, then one row per
    position of the equal-length `columns`. Arrays are written through
    `tolist()`, so a float is the `repr` that `fmt_float` gives, an int its
    digits and None an empty field; a field holding the delimiter, a quote
    or a newline is quoted by the csv module's rules."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    write_atomic(path, text.getvalue())


def csv_field(text: str) -> str:
    """`text` as one field of a CSV row, quoted by the rules `write_table`
    follows."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text])
    return out.getvalue()


def read_table(path, text) -> tuple[dict, list[str], np.ndarray]:
    """The `text` columns of a CSV table by name (tuples of str), the names
    of its other columns, and those parsed as one float64 (rows, columns)
    array. Quoted fields follow the csv module: a doubled quote inside
    quotes is one quote, and a quoted field may hold a comma or a newline."""
    with open(path, newline="") as f:
        header = next(csv.reader(f), [])
        body = f.read()
    numeric = [j for j, name in enumerate(header) if name not in text]

    def parse(usecols, dtype):
        if not body.strip():
            return np.empty((0, len(usecols)), dtype)
        return np.loadtxt(io.StringIO(body), dtype, comments=None, delimiter=",",
                          quotechar='"', usecols=usecols, ndmin=2)

    strings = parse([header.index(name) for name in text], str)
    return ({name: tuple(strings[:, i].tolist()) for i, name in enumerate(text)},
            [header[j] for j in numeric], parse(numeric, np.float64))


def plain(obj) -> dict:
    """A dataclass as JSON-ready data: its fields, nested dataclasses as
    dicts and arrays as lists. A model's JSON form is `plain(model)`, and
    `cls(**d)` rebuilds it."""
    return dataclasses.asdict(obj, dict_factory=lambda items: {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items})


def check_keys(d: dict, allowed, what: str) -> None:
    """Raise InvalidArgumentError naming every key of `d` not in `allowed`."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InvalidArgumentError(f"unknown {what} keys: {unknown}")


def check_required(d: dict, required, what: str) -> None:
    """Raise InvalidArgumentError naming every key of `required` missing from `d`."""
    missing = [k for k in required if k not in d]
    if missing:
        raise InvalidArgumentError(f"missing {what} keys: {missing}")


def is_finite_number(x) -> bool:
    """True for a finite int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def is_int(x) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def checked(what: str, value, ok: bool, want: str):
    """`value`; InvalidArgumentError "<what> must be <want>, got <value>"
    unless `ok`."""
    if not ok:
        raise InvalidArgumentError(f"{what} must be {want}, got {value!r}")
    return value


def check_finite_fields(obj, what: str) -> None:
    """Raise InvalidArgumentError naming the first field of dataclass `obj`
    that is not a finite number, and its value."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        checked(f"{what} {f.name}", value, is_finite_number(value), "a finite number")
