"""Shared helpers: hashing, seed derivation, float formatting, JSON output."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


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
    """Write canonical (sorted-key) JSON; returns the text written."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)
    return text

