"""Counter-based keyed random numbers.

Every stochastic quantity in this package is a pure function of an integer
key tuple.  Site potentials use ``keyed_uniform(seed, stream_id, counter)``:
the uniform attached to a counter never depends on how many other counters
were evaluated, in which order, or on how many workers did the evaluating.
The hash has two stages: ``stream_key`` folds seed and stream into one
64-bit key, and ``mix_counters`` XORs it into each counter times the
SplitMix64 increment and runs the SplitMix64 finalizer.  ``keyed_bits`` is
their composition, and ``keyed_uniform_from_key`` takes the uniforms of a
key already derived, as the keyed rows of the line solver and the tree
walkers do once a call; a branch forest derives its key and premultiplies its
counters once, then hashes level after level in place.  A tree walker's
step uniforms follow the same contract: walker w's t-th step draws
``keyed_uniform(seed, substream(step_stream, w), t)``, so a walker's path
depends neither on how many other walkers run nor on which have stopped.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
# the finalizer's operands as 0-d arrays: a ufunc call on a scalar key costs
# about half as much with them as with numpy scalars, and it is all overhead
_FINALIZER = tuple(np.array(v, dtype=np.uint64) for v in (_GAMMA, 30, _MIX1, 27, _MIX2, 31))


def _splitmix64(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche on uint64 arrays.

    With scratch, a uint64 array of x's shape, x is mixed in place and
    returned, and scratch is overwritten by the shifted words; without it,
    a copy of x is mixed.  The arithmetic runs on arrays (0-d for a
    scalar), which wrap without overflow warnings.
    """
    if scratch is None:
        x = np.array(x, dtype=np.uint64)
        scratch = np.empty_like(x)
    gamma, shift1, mix1, shift2, mix2, shift3 = _FINALIZER
    x += gamma
    x ^= np.right_shift(x, shift1, out=scratch)
    x *= mix1
    x ^= np.right_shift(x, shift2, out=scratch)
    x *= mix2
    x ^= np.right_shift(x, shift3, out=scratch)
    return x


def _as_u64(value) -> np.ndarray:
    if isinstance(value, int):
        value &= 0xFFFFFFFFFFFFFFFF  # a key is a 64-bit word
    arr = np.asarray(value)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False)
    raise TypeError(f"key component must be integer, got dtype {arr.dtype}")


def stream_key(seed, stream_id) -> np.ndarray:
    """The hash key of each (seed, stream_id) pair (both broadcast)."""
    k = _splitmix64(_as_u64(seed))
    return _splitmix64(k ^ (_as_u64(stream_id) + _U64(_GAMMA)))


def mix_counters(key, counters_gamma, out=None, scratch=None) -> np.ndarray:
    """64 hashed bits for each stream key and counter, the counter given
    as the uint64 word counter * _GAMMA (both broadcast).  With out, a
    uint64 array of the broadcast shape (counters_gamma itself, say), the
    hash runs in place there; scratch, a second such array, then holds
    its shifted words (one is allocated if it is not given).  The hash
    runs on arrays, 0-d for scalar arguments, whose arithmetic wraps
    without overflow warnings.
    """
    out = np.asarray(np.bitwise_xor(counters_gamma, key, out=out))
    return _splitmix64(out, np.empty_like(out) if scratch is None else scratch)


def _counter_words(counter, out=None) -> np.ndarray:
    """Each integer counter as the uint64 word counter * _GAMMA that
    mix_counters takes, into out (a uint64 array of counter's shape) if it
    is given.  Negative counters (site indices) wrap to uint64 two's
    complement, which keeps them distinct and deterministic."""
    # an array product: numpy checks overflow only in scalar arithmetic
    return np.multiply(_as_u64(counter), _U64(_GAMMA), out=out)


def keyed_bits(seed, stream_id, counter) -> np.ndarray:
    """64 hashed bits for each (seed, stream_id, counter) triple:
    mix_counters(stream_key(seed, stream_id), counter * _GAMMA).  All
    three arguments broadcast."""
    return mix_counters(stream_key(seed, stream_id), _counter_words(counter))


def keyed_uniform(seed, stream_id, counter) -> np.ndarray:
    """Uniform draws in [0, 1), pure in the key triple.

    Uses the top 53 bits so the result is an exactly representable
    float64 on a 2**-53 lattice.
    """
    return keyed_uniform_from_key(stream_key(seed, stream_id), counter)


def keyed_uniform_from_key(key, counter) -> np.ndarray:
    """keyed_uniform(seed, stream_id, counter) for key = stream_key(seed,
    stream_id) (key and counter broadcast), so a caller that draws many
    counters of one set of streams derives their keys once."""
    return _uniform(mix_counters(key, _counter_words(counter)))


def _uniform(bits, out=None) -> np.ndarray:
    """The uniform in [0, 1) of each 64-bit word: its top 53 bits times
    2**-53, into out (a float64 array of bits' shape) if it is given.
    The shifted words then pass through out's own memory, so a 1-d out
    needs no temporary of bits' size."""
    if out is None:
        return np.multiply(bits >> _U64(11), 2.0**-53)
    shifted = np.right_shift(bits, _U64(11), out=out.view(np.uint64))
    np.copyto(out, shifted, casting="unsafe")  # exact: every word is below 2**53
    return np.multiply(out, 2.0**-53, out=out)


def substream(stream_id: int, index):
    """Derive a child stream id, e.g. one per geodesic site.

    Children of distinct (stream_id, index) pairs collide only with hash
    probability; the derivation is pure so re-deriving never perturbs
    sibling streams.  An int index gives an int; an integer array of
    indices gives a uint64 array of the same children.
    """
    out = _splitmix64(_as_u64(stream_id) ^ (_as_u64(index) * _U64(_MIX1)))
    return int(out) if out.ndim == 0 else out
