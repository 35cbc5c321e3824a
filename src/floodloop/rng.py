"""Named random substreams derived from one master seed.

Every consumer of randomness (scenario noise, demand sampling, policy
sampling, detour coins, ...) pulls its own substream by label, so toggling
one feature never perturbs the draws seen by another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

import numpy as np


def _seed_key(master: int, labels) -> bytes:
    """`master/label/...`, the bytes a child seed hashes."""
    return "/".join([str(int(master)), *map(str, labels)]).encode()


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit child seed for (master, labels). Not Python hash()."""
    return int.from_bytes(hashlib.blake2b(_seed_key(master, labels), digest_size=8).digest(), "big")


def child_seeds(master: int, *labels) -> Callable[[object], int]:
    """`last -> derive_seed(master, *labels, last)`, with the hash of the
    shared prefix taken once and copied for each `last`."""
    prefix = hashlib.blake2b(_seed_key(master, labels), digest_size=8)

    def child(last) -> int:
        h = prefix.copy()
        h.update(("/" + str(last)).encode())
        return int.from_bytes(h.digest(), "big")

    return child


def substream(master: int, *labels) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, *labels))


def pystream(master: int, *labels) -> random.Random:
    return random.Random(derive_seed(master, *labels))
