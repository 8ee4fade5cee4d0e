"""Counter-based keyed random numbers.

Every stochastic quantity in this package is a pure function of an integer
key tuple.  Site potentials use ``keyed_uniform(seed, stream_id, counter)``:
the uniform attached to a counter never depends on how many other counters
were evaluated, in which order, or on how many workers did the evaluating.
Path simulations, which consume an unbounded stream of draws, use ordinary
numpy generators seeded through ``SeedSequence`` from the same kind of key.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche on uint64 arrays."""
    z = x + _U64(_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _as_u64(value) -> np.ndarray:
    if isinstance(value, int):
        value &= 0xFFFFFFFFFFFFFFFF  # a key is a 64-bit word, as in stream_generator
    arr = np.asarray(value)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False)
    raise TypeError(f"key component must be integer, got dtype {arr.dtype}")


def keyed_bits(seed, stream_id, counter) -> np.ndarray:
    """64 hashed bits for each (seed, stream_id, counter) triple.

    All three arguments broadcast; negative counters (site indices) wrap to
    uint64 two's complement, which keeps them distinct and deterministic.
    """
    with np.errstate(over="ignore"):
        k = _splitmix64(_as_u64(seed))
        k = _splitmix64(k ^ (_as_u64(stream_id) + _U64(_GAMMA)))
        return _splitmix64(k ^ (_as_u64(counter) * _U64(_GAMMA)))


def keyed_uniform(seed, stream_id, counter) -> np.ndarray:
    """Uniform draws in [0, 1), pure in the key triple.

    Uses the top 53 bits so the result is an exactly representable
    float64 on a 2**-53 lattice.
    """
    bits = keyed_bits(seed, stream_id, counter)
    return (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)


def substream(stream_id: int, index):
    """Derive a child stream id, e.g. one per geodesic site.

    Children of distinct (stream_id, index) pairs collide only with hash
    probability; the derivation is pure so re-deriving never perturbs
    sibling streams.  An int index gives an int; an integer array of
    indices gives a uint64 array of the same children.
    """
    with np.errstate(over="ignore"):
        out = _splitmix64(_as_u64(stream_id) ^ (_as_u64(index) * _U64(_MIX1)))
    return int(out) if out.ndim == 0 else out


def stream_generator(*key: int) -> np.random.Generator:
    """A PCG64 generator keyed by an integer tuple.

    Used for path simulations: each (seed, stream, batch) key owns a
    private stream, so batch results are independent of scheduling.
    """
    entropy = tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
