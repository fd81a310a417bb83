"""Counter-derived random substreams.

Every randomized unit of work (reference draw b, replication r, ...) gets its
own stream keyed by (root seed, index path), so results do not depend on
execution order or parallelism.  Chain code uses stdlib ``random.Random``
(fast scalar choices); vectorized simulation and the density-only reference
draws use numpy Generators.  Both are derived from the same SeedSequence tree.
"""

from __future__ import annotations

import random

import numpy as np


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def substream_seed(seed: int, *key: int) -> int:
    """The integer seed of substream (seed, *key): 128 bits of its state."""
    state = seed_sequence(seed, *key).generate_state(4)
    return int.from_bytes(state.tobytes(), "little")


def substream_random(seed: int, *key: int) -> random.Random:
    return random.Random(substream_seed(seed, *key))


def substream_generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *key))
