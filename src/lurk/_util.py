"""Shared helpers: hashing, seed derivation, float formatting, JSON output,
config key and value checks."""

from __future__ import annotations

import dataclasses
import hashlib
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


def dump_json(obj, path) -> str:
    """Write canonical (sorted-key) JSON; returns the text written.

    The text goes to `<path>.tmp` first, which then replaces `path`, so a
    write that fails or is killed halfway leaves the previous file whole.
    """
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return text


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
