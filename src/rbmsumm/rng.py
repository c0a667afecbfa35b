"""Seeded, portable pseudo-random number generator.

The generator is xorshift64* (Marsaglia xorshift with a multiplicative
output scramble), seeded through one round of splitmix64 so that any
64-bit seed, including 0, yields a valid nonzero state.  All arithmetic
is on 64-bit unsigned integers, so the stream is reproducible across
platforms and languages.

Reference stream (first three raw outputs):

    seed 42 -> 3580622183945639842, 10378725325292465923, 8967075514996744559
    seed 0  -> 8916199331640804048, 16032783972208265725, 12954103179475586193

Uniform doubles take the top 53 bits of each raw output; Gaussian
variates use the Box-Muller transform on consecutive uniforms.

Every draw reads its raw outputs, in stream order, from one buffer
that numpy fills a block of ``_CHUNK`` outputs at a time.  The xorshift
step is linear over GF(2), so ``k`` steps are one 64x64 bit matrix
``T^k``, kept as its 64 columns (Haramoto et al., "Efficient Jump Ahead
for F2-Linear Random Number Generators", 2008).  A block steps
``_LANES`` lanes of ``_STEPS`` states side by side.  Lane ``i`` starts
``i * _STEPS`` steps into the block; the starts are reached by doubling,
lanes ``[2^j, 2^(j+1))`` being ``T^(_STEPS * 2^j)`` times lanes
``[0, 2^j)``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D

# numpy < 2 promotes a uint64 array with a Python int to float64, so every
# shift amount and multiplier is an np.uint64
_U64 = np.uint64
_ONE = _U64(1)
_BITS = np.arange(64, dtype=np.uint64)
_STAR_U64 = _U64(_STAR)

# powers of two; a block of 8192 outputs is 64 KB, and 32 x 256 was the
# fastest split of it measured
_STEPS = 32  # states per lane
_LANES = 256  # lanes per block
_CHUNK = _STEPS * _LANES


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _step(x: np.ndarray) -> np.ndarray:
    """One xorshift step of every state in ``x``, in place."""
    x ^= x >> _U64(12)
    x ^= x << _U64(25)
    x ^= x >> _U64(27)
    return x


def _apply(columns: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bit matrix given by ``columns`` times every state in ``x``."""
    bits = (x[:, None] >> _BITS) & _ONE
    return np.bitwise_xor.reduce(bits * columns, axis=1)


def _lane_jumps() -> tuple[np.ndarray, ...]:
    """Columns of ``T^(_STEPS * 2^j)`` for the doubling rounds."""
    columns = _step(_ONE << _BITS)
    for _ in range(_STEPS.bit_length() - 1):
        columns = _apply(columns, columns)
    jumps = []
    for _ in range(_LANES.bit_length() - 1):
        jumps.append(columns)
        columns = _apply(columns, columns)
    return tuple(jumps)


_LANE_JUMPS = _lane_jumps()


def _block(state: int) -> tuple[np.ndarray, int]:
    """The next ``_CHUNK`` raw outputs after ``state``, and the state
    after them."""
    x = np.empty(_LANES, dtype=np.uint64)
    x[0] = _U64(state)
    for j, jump in enumerate(_LANE_JUMPS):
        x[1 << j : 2 << j] = _apply(jump, x[: 1 << j])
    states = np.empty((_STEPS, _LANES), dtype=np.uint64)
    for i in range(_STEPS):
        states[i] = _step(x)
    states = states.T.ravel()
    return states * _STAR_U64, int(states[-1])


class Xorshift64Star:
    """Deterministic RNG; one instance per training run, never shared."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        if state == 0:
            state = _STAR
        self._state = state  # after the last buffered output
        self._buffer = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._gauss_cache: float | None = None

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` raw outputs, in stream order (read-only)."""
        end = self._pos + n
        if end <= self._buffer.size:
            out = self._buffer[self._pos : end]
            self._pos = end
            return out
        parts = [self._buffer[self._pos :]]
        need = n - parts[0].size
        while need > 0:
            self._buffer, self._state = _block(self._state)
            self._pos = min(need, _CHUNK)
            parts.append(self._buffer[: self._pos])
            need -= self._pos
        return np.concatenate(parts)

    def next_uint64(self) -> int:
        return int(self._take(1)[0])

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian variate via Box-Muller; pairs are cached."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
        else:
            u1 = 1.0 - self.random()  # (0, 1], keeps log() finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return mean + std * z

    def normal_array(self, shape: tuple[int, ...], std: float = 1.0) -> np.ndarray:
        """Array of Gaussians, filled in row-major draw order."""
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.normal(0.0, std)
        return out

    def bernoulli_array(self, probs: np.ndarray) -> np.ndarray:
        """0/1 samples, one uniform per entry in row-major order."""
        p = np.asarray(probs, dtype=np.float64)
        u = (self._take(p.size) >> _U64(11)) * (2.0 ** -53)
        return (u.reshape(p.shape) < p).astype(np.float64)
