"""Named RNG streams derived from one top-level seed.

Every entry point takes a single integer seed; everything that needs
randomness pulls a stream by name (``tree``, ``layout``, ``init``,
``batch``, ...). Streams with different names are statistically
independent, and the same (seed, name) pair always yields the same
stream, so runs are reproducible without threading RNG state through
every call.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream_key(name: str) -> int:
    # crc32 rather than hash(): hash() is salted per process.
    return zlib.crc32(name.encode("utf8"))


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for the (seed, name) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream_key(name)]))


def child_seed(seed: int, name: str) -> int:
    """A reproducible integer sub-seed for the (seed, name) pair."""
    return int(seed_stream(seed, name).integers(0, 2**63 - 1))
