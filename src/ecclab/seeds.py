"""Deterministic named substreams derived from a single master seed.

Every randomized stage draws from ``substream(seed, name)`` so that one seed
reproduces an entire run byte for byte, regardless of stage order.
"""

from __future__ import annotations

import hashlib
import random


def substream(seed, name):
    """A random.Random seeded from the first 8 bytes of sha256("seed:name")."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
