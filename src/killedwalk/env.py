"""Single-site potential laws and i.i.d. environments on integer windows.

A potential law assigns each site of Z a nonnegative killing weight; the
walk survives one visit to site x with probability exp(-omega(x)).  The
module covers finite-support laws (a point mass is the law of one atom)
and the exponential family, and samples product environments with
per-site counter-based keys so that widening a window or re-running in
parallel never changes a value that was already drawn.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import _uniform, keyed_uniform

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PotentialDistribution:
    """A validated single-site law for the killing potential.

    kind is "finite" (atoms) or "exponential" (rate); a point mass is the
    finite law of one atom.  Atoms are stored sorted by value with weights
    summing to one exactly after normalization.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    rate: float = 0.0
    # atom values, weights, cumulative weights, and survival_from_bits'
    # cuts and survival factors, built once per law
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _cuts: np.ndarray = field(init=False, repr=False, compare=False)
    _survival: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array([v for v, _ in self.atoms])
        weights = np.array([w for _, w in self.atoms])
        cum = np.cumsum(weights)
        # u = m 2**-53 reaches cum_j iff m >= ceil(cum_j 2**53), iff its word
        # reaches that << 11; no word reaches a cumulative weight >= 1
        cuts = np.array([math.ceil(c * 2**53) << 11 for c in cum[:-1].tolist() if c < 1.0], dtype=np.uint64)
        tables = {"_values": values, "_weights": weights, "_cum": cum, "_cuts": cuts, "_survival": np.exp(-values)}
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def is_delta_zero(self) -> bool:
        """True iff every atom of positive weight is 0 (the no-killing case)."""
        return self.kind == "finite" and all(v == 0.0 for v, w in self.atoms if w > 0.0)

    @property
    def mean(self) -> float:
        if self.kind == "finite":
            return float(sum(v * w for v, w in self.atoms))
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        if self.kind == "finite":
            m = self.mean
            return float(sum(w * (v - m) ** 2 for v, w in self.atoms))
        return 1.0 / self.rate**2

    def ppf(self, u, out=None) -> np.ndarray:
        """Inverse CDF, the common-random-number transform of uniforms.

        With out, a C-contiguous float64 array of u's shape that shares no
        memory with u (or is u, for a law not finite), the values are
        written there (an out not C-contiguous is refused); a law of at
        most two atoms then allocates nothing of u's size.  A finite law looks atoms up by comparison: u takes atom
        idx = (K-1) - sum_{j<K-1} [u < cum_j], the first atom whose
        cumulative weight exceeds u, or the last atom when none does (u =
        NaN included).
        """
        u = np.asarray(u, dtype=np.float64)
        out = np.empty_like(u) if out is None else _contiguous(out)
        if self.kind == "exponential":
            np.log1p(np.negative(u, out=out), out=out)
            return np.divide(np.negative(out, out=out), self.rate, out=out)
        return _atom_lookup(self._values, u, self._cum[:-1], out)

    def survival_from_bits(self, bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-ppf(u)) bit for bit, for u = (bits >> 11) 2**-53 the
        uniforms keyed_uniform makes of keyed_bits words, into out (a
        C-contiguous float64 array of bits' shape) if it is given.  A finite
        law counts the cuts each word reaches (ppf's atom index) and looks
        its survival factor up; an exponential law runs u, ppf and exp in
        out, allocating nothing of bits' size.
        """
        out = np.empty(bits.shape) if out is None else _contiguous(out)
        if self.kind == "exponential":
            u = _uniform(bits, out=out)
            return np.exp(np.negative(self.ppf(u, out=out), out=out), out=out)
        return _atom_lookup(self._survival, bits, self._cuts, out)

    def atom_index_from_bits(self, bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The atom index of a finite law that ppf reads for each word,
        u = (bits >> 11) 2**-53 as in survival_from_bits (which looks
        _survival up at it), into out (a C-contiguous int64 array of bits'
        shape) if it is given."""
        return _atom_index(bits, self._cuts, np.empty(bits.shape, dtype=np.int64) if out is None else _contiguous(out))

    def laplace(self, ell):
        """E[exp(-ell * omega)], in (0, 1], equal to 1 at ell = 0.

        ell may be an array (e.g. the visit counts of a transfer kernel's sites);
        a scalar argument gives a float.
        """
        ell = np.asarray(ell, dtype=np.float64)
        if np.any(ell < 0):
            raise ValueError("laplace transform argument must be >= 0")
        if self.kind == "exponential":
            phi = self.rate / (self.rate + ell)
        else:
            x = np.multiply.outer(ell, self._values)  # one (len(ell), K) buffer
            phi = np.exp(np.negative(x, out=x), out=x) @ self._weights
        return float(phi) if phi.ndim == 0 else phi


def _contiguous(out: np.ndarray) -> np.ndarray:
    """out, refused unless it is a C-contiguous array: numpy 2.4 computes
    np.negative(x, out=x) wrongly on a strided float64 or int64 view."""
    if not (isinstance(out, np.ndarray) and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous array")
    return out


def _atom_index(x: np.ndarray, cuts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """len(cuts) - #{j : x < cuts[j]} into out, an int64 array of x's
    shape: the number of the ascending cuts that x reaches (all of them for
    a NaN)."""
    if cuts.size == 0:
        out.fill(0)
        return out
    np.less(x, cuts[0], out=out)
    for c in cuts[1:]:
        out += x < c
    return np.subtract(cuts.size, out, out=out)


def _atom_lookup(table: np.ndarray, x: np.ndarray, cuts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """table[_atom_index(x, cuts)] into out."""
    if cuts.size == 0:
        out.fill(table[0])
        return out
    # the index lives in out's memory: take reads each index before it
    # writes that slot, and mode="clip" skips the "raise" mode's copy
    return np.take(table, _atom_index(x, cuts, out.view(np.int64)), mode="clip", out=out)


def make_distribution(spec) -> PotentialDistribution:
    """Build and validate a potential law from a structured description.

    Accepts a dict such as {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"kind": "exponential", "rate": 1.0} or {"kind": "point", "value": 0.3}
    (the one-atom finite law, value required), or an already-built
    PotentialDistribution (returned unchanged).
    """
    if isinstance(spec, PotentialDistribution):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "finite":
        atoms = spec.get("atoms")
        if not (isinstance(atoms, (list, tuple)) and atoms):
            raise ValueError(f"finite-support law needs a nonempty 'atoms' list, got {atoms!r}")
        vals, weights = [], []
        for i, entry in enumerate(atoms):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"atoms[{i}] must be a [value, weight] pair, got {entry!r}")
            v = _finite(entry[0], f"atoms[{i}] value")
            w = _finite(entry[1], f"atoms[{i}] weight")
            if v < 0:
                raise ValueError(f"atom value must be >= 0, got {v} (atoms[{i}])")
            if w <= 0:
                raise ValueError(f"atom weight must be > 0, got {w} (atoms[{i}])")
            vals.append(v)
            weights.append(w)
        total = sum(weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        order = np.argsort(vals, kind="stable")
        merged: dict[float, float] = {}
        for i in order:
            merged[vals[i]] = merged.get(vals[i], 0.0) + weights[i] / total
        pairs = tuple((v, w) for v, w in merged.items())
        return PotentialDistribution(kind="finite", atoms=pairs)
    if kind == "exponential":
        rate = _finite(spec.get("rate", 0.0), "rate")
        if rate <= 0:
            raise ValueError(f"exponential rate must be > 0, got {rate}")
        return PotentialDistribution(kind="exponential", rate=rate)
    if kind == "point":
        if "value" not in spec:
            raise ValueError("point law needs a 'value'")
        value = _finite(spec["value"], "value")
        if value < 0:
            raise ValueError(f"point mass value must be >= 0, got {value}")
        return PotentialDistribution(kind="finite", atoms=((value, 1.0),))
    raise ValueError(f"unknown distribution kind {kind!r}")


def _checked_int(raw, name: str, least=-math.inf, most=math.inf) -> int:
    """raw as an int: the library's one rule for an integer argument.

    raw must be an int or a numpy integer, never a bool or a float, with
    least <= raw <= most; anything else is a ValueError naming name.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)) or not least <= raw <= most:
        need = " and ".join(f"{op} {b}" for op, b in ((">=", least), ("<=", most)) if math.isfinite(b))
        raise ValueError(f"{name} must be an integer{' ' + need if need else ''}, got {raw!r}")
    return int(raw)


def _integer(raw, name: str) -> int:
    """An integer entry of an environment file, which, like the CLI, may
    write it as an integral float, by _checked_int."""
    return _checked_int(int(raw) if isinstance(raw, float) and raw.is_integer() else raw, name)


def _window(window) -> tuple[int, int]:
    """The ends (lo, hi) of a window, lo <= hi, each by _checked_int."""
    lo, hi = _checked_int(window[0], "window_lo"), _checked_int(window[1], "window_hi")
    if lo > hi:
        raise ValueError(f"window_lo must be <= window_hi, got ({lo}, {hi})")
    return lo, hi


def _number(raw, name: str) -> float:
    """float(raw), where raw is a real number (Python or numpy) and never
    a bool or a string, which float() would also read; anything else is a
    ValueError naming name."""
    if isinstance(raw, numbers.Real) and not isinstance(raw, bool):
        return float(raw)
    raise ValueError(f"{name} must be a number, got {raw!r}")


def _finite(raw, name: str) -> float:
    value = _number(raw, name)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Environment:
    """A realized window of potentials with its generating key.

    values[i] is the potential at site window_lo + i.  Regenerating with
    the same (seed, stream_id) and any window containing a site always
    reproduces the same value at that site.
    """

    window_lo: int
    window_hi: int
    values: np.ndarray = field(repr=False)
    seed: int = 0
    stream_id: int = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return (
            self.window_lo == other.window_lo
            and self.window_hi == other.window_hi
            and self.seed == other.seed
            and self.stream_id == other.stream_id
            and np.array_equal(self.values, other.values)
        )

    def __post_init__(self):
        for name in ("window_lo", "window_hi", "seed", "stream_id"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.window_hi - self.window_lo + 1,):
            raise ValueError("values length must match the window")
        nan = np.flatnonzero(np.isnan(vals))
        if nan.size:
            i = int(nan[0])
            raise ValueError(f"values[{i}] (site {self.window_lo + i}) is NaN")
        if np.any(vals < 0):
            raise ValueError("potentials must be >= 0")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def covers(self, lo: int, hi: int) -> bool:
        return self.window_lo <= lo and hi <= self.window_hi

    def value_at(self, x: int) -> float:
        if not self.window_lo <= x <= self.window_hi:
            raise ValueError(f"site {x} outside window [{self.window_lo}, {self.window_hi}]")
        return float(self.values[x - self.window_lo])

    def slice_values(self, lo: int, hi: int) -> np.ndarray:
        """Values on sites lo..hi inclusive."""
        if not self.covers(lo, hi):
            raise ValueError(
                f"window too small: need [{lo}, {hi}], have [{self.window_lo}, {self.window_hi}]"
            )
        i = lo - self.window_lo
        return self.values[i : i + (hi - lo + 1)]

    def to_dict(self) -> dict:
        return {
            "window_lo": self.window_lo,
            "window_hi": self.window_hi,
            "values": [float(v) for v in self.values],
            "seed": self.seed,
            "stream_id": self.stream_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Environment":
        """The inverse of to_dict; a missing or malformed entry raises ValueError naming it."""
        if not isinstance(d, dict) or "values" not in d:
            raise ValueError("an environment must be an object with 'values'")
        values = np.asarray(d["values"], dtype=object)  # where a bool stays a bool
        if values.ndim != 1:
            raise ValueError(f"values must be a list of numbers, got {d['values']!r}")
        return cls(
            window_lo=_integer(d.get("window_lo"), "window_lo"),
            window_hi=_integer(d.get("window_hi"), "window_hi"),
            values=[_number(v, f"values[{i}]") for i, v in enumerate(values)],
            seed=_integer(d.get("seed", 0), "seed"),
            stream_id=_integer(d.get("stream_id", 0), "stream_id"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Environment":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def sample_environment(
    dist: PotentialDistribution,
    window: tuple[int, int],
    seed: int,
    stream_id: int = 0,
) -> Environment:
    """Draw an i.i.d. environment on window = (lo, hi), inclusive.

    The value at site x is dist.ppf(keyed_uniform(seed, stream_id, x)),
    read through EnvironmentSource.slice_values: a pure function of the
    key, so extending the window is a superset operation on values.
    """
    lo, hi = _window(window)
    values = EnvironmentSource(dist, seed, stream_id).slice_values(lo, hi)
    return Environment(lo, hi, values, seed=seed, stream_id=stream_id)


def shift(env: Environment, i: int) -> Environment:
    """Translate the environment by i sites: output value at x equals
    input value at x - i."""
    return Environment(
        env.window_lo + i,
        env.window_hi + i,
        env.values.copy(),
        seed=env.seed,
        stream_id=env.stream_id,
    )


class EnvironmentSource:
    """Lazy environment backed by the keyed sampler.

    Yields values on any requested window; used by the limit solver,
    which does not know in advance how far left it must look.
    """

    def __init__(self, dist: PotentialDistribution, seed: int, stream_id: int = 0):
        self.dist = dist
        self.seed = _checked_int(seed, "seed")
        self.stream_id = _checked_int(stream_id, "stream_id")

    def slice_values(self, lo: int, hi: int) -> np.ndarray:
        """dist.ppf(keyed_uniform(seed, stream_id, x)) for the sites x = lo .. hi."""
        sites = np.arange(lo, hi + 1, dtype=np.int64)
        return self.dist.ppf(keyed_uniform(self.seed, self.stream_id, sites))

    def materialize(self, lo: int, hi: int) -> Environment:
        return sample_environment(self.dist, (lo, hi), self.seed, self.stream_id)
