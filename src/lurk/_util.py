"""Shared helpers: hashing, seed derivation, float formatting, JSON output,
config key checks."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

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


def check_keys(d: dict, allowed, what: str) -> None:
    """Raise InvalidArgumentError naming every key of `d` not in `allowed`."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InvalidArgumentError(f"unknown {what} keys: {unknown}")
