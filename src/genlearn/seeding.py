"""Deterministic seed splitting for reproducible experiments.

Every randomized run in this package is driven by a single 64-bit master
seed.  Sub-tasks (one trial of a game, one instance search, one oracle)
derive their own generator via ``make_rng(master, label, index)``, which
hashes ``"{master}:{label}:{index}"`` with SHA-256 and keeps the first
8 bytes.  The construction is platform independent, so parallel and
sequential runs of the same experiment see identical randomness.

SHA-256 comes from the interpreter's built-in module (``_sha2`` from
Python 3.12, ``_sha256`` before), so importing the package does not load
OpenSSL through ``hashlib``; ``hashlib`` is the fallback.
"""

from __future__ import annotations

import random
import sys

try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

__all__ = ["subseed", "make_rng"]


def subseed(master: int, label: str, index: int) -> int:
    """Derive a 64-bit child seed from (master seed, task label, index)."""
    digest = sha256(f"{master}:{label}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(master: int, label: str, index: int = 0) -> random.Random:
    """A fresh ``random.Random`` seeded from (master, label, index)."""
    return random.Random(subseed(master, label, index))
