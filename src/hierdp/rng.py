"""Counter-based random streams for reproducible noise generation.

Each (seed, key, replicate index) triple maps to one uniform draw
through a splitmix64-style hash. A node's key is its index in node
order (level, then id), so noise values do not depend on row order,
traversal order or chunking, and need no hash of the node's id.
"""

from __future__ import annotations

import numpy as np

_U64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps; silence the spurious overflow warnings
    with np.errstate(over="ignore"):
        z = z + _U64_GAMMA
        z = (z ^ (z >> _S30)) * _C1
        z = (z ^ (z >> _S27)) * _C2
        return z ^ (z >> _S31)


def _to_unit(out: np.ndarray) -> np.ndarray:
    """Map 64-bit words to uniforms strictly inside (-1/2, 1/2)."""
    return ((out >> _S11).astype(np.float64) + 0.5) * 2.0**-53 - 0.5


def centered_uniform_matrix(
    seed: int, keys: np.ndarray, rep_lo: int, rep_hi: int
) -> np.ndarray:
    """Matrix of uniforms, rows = replicates [rep_lo, rep_hi), columns =
    uint64 node keys. Entry (r, j) depends only on (seed, key j,
    replicate r), so any split of the replicate range yields the same
    rows. The seed is a 64-bit word, in [0, 2**64)."""
    base = _mix64_np(np.uint64(seed ^ 0x5DEECE66D))
    reps = np.arange(rep_lo, rep_hi, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = _mix64_np(keys ^ base)
        out = _mix64_np(k[None, :] + reps[:, None] * _U64_GAMMA)
    return _to_unit(out)


def standard_laplace(u):
    """Inverse-CDF transform of centered uniforms to unit-scale Laplace.

    ``u`` must lie in (-1/2, 1/2); the map is sign(u)-symmetric with
    median 0 and variance 2.
    """
    return -np.sign(u) * np.log1p(-2.0 * np.abs(u))
