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


def substream_random(seed: int, *key: int) -> random.Random:
    state = seed_sequence(seed, *key).generate_state(4)
    return random.Random(int.from_bytes(state.tobytes(), "little"))


def substream_generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *key))
