"""Deterministic stream derivation for all Monte Carlo work.

Every random quantity in the package is drawn from a counter-based
Philox generator whose seed sequence is derived from one base seed plus
a tuple of labels (experiment name, drop index, table cell, ...).  Two
runs with the same base seed therefore produce identical results no
matter how the work is chunked or which streams are consumed first.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed_sequence", "substream"]


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        return int(label)
    if isinstance(label, float):
        # stable key for float labels (e.g. dBm grid points incl. -inf)
        return int.from_bytes(np.float64(label).tobytes(), "little")
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


def derive_seed_sequence(base_seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence keyed by (base_seed, labels...)."""
    entropy = (int(base_seed),) + tuple(_label_to_int(x) for x in labels)
    return np.random.SeedSequence(entropy)


def substream(base_seed: int, *labels) -> np.random.Generator:
    """Independent Philox generator for the given label path."""
    return np.random.Generator(np.random.Philox(derive_seed_sequence(base_seed, *labels)))

