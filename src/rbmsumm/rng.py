"""Seeded, portable pseudo-random number generator.

The generator is xorshift64* (Marsaglia xorshift with a multiplicative
output scramble), seeded through one round of splitmix64 from a seed
in [0, 2^64), 0 included, into a valid nonzero state; ``TrainConfig``
rejects any other seed.  All arithmetic is on 64-bit unsigned
integers, so the stream is reproducible across platforms.

Reference stream (first three raw outputs):

    seed 42 -> 3580622183945639842, 10378725325292465923, 8967075514996744559
    seed 0  -> 8916199331640804048, 16032783972208265725, 12954103179475586193

Uniform doubles take the top 53 bits of each raw output; Gaussian
variates use the Box-Muller transform on consecutive pairs of uniforms,
and an array of them reads all its uniforms in one draw.  An array of
odd size drops the second value of its last pair, so the next draw
starts after that pair.  A Bernoulli draw of logit ``x`` is 1 where
its uniform ``u`` has ``log(u) - log1p(-u) < x``, the event ``u <
sigmoid(x)`` but for ``x`` within rounding of that logit, with no
sigmoid computed (Hinton, UTML TR 2010-003, section 3).

Every draw reads, in stream order, from one buffer that numpy fills a
block of ``_CHUNK`` outputs at a time, holding their uniforms and the
uniforms' logits.  The xorshift step is linear over GF(2), so ``k``
steps are one 64x64 bit matrix ``T^k`` (Haramoto et al., "Efficient
Jump Ahead for F2-Linear Random Number Generators", 2008).  Every such
matrix is kept in one form, 8 tables of 256 entries (16 KB), and
applied as the xor of one entry per byte of a state.  The tables of
``T^(2^i)`` are built at import by squaring, each power's columns the
previous power times its own columns.  A block steps ``_LANES`` lanes
of ``_STEPS`` states side by side, lane ``i`` starting ``i * _STEPS``
steps into the block.  A generator's state is the lane-start vector of
its next block: each block carries it forward by ``T^_CHUNK``.  Only a
generator's first block reaches its lane starts from one state, by
doubling: lanes ``[2^j, 2^(j+1))`` are ``T^(_STEPS * 2^j)`` times
lanes ``[0, 2^j)``.  That block comes at construction from a small
cache of read-only blocks and lane vectors, so generators of the same
seed build it once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D

# numpy < 2 promotes a uint64 array with a Python int to float64, so every
# shift amount and multiplier is an np.uint64
_U64 = np.uint64
_ONE = _U64(1)
_STAR_U64 = _U64(_STAR)

# powers of two; a block of 8192 outputs is 64 KB, and 1024 x 8 was the
# fastest split of it measured once lane starts were carried
_STEPS = 8  # states per lane
_LANES = 1024  # lanes per block
_CHUNK = _STEPS * _LANES

_TABLE_ROWS = np.arange(0, 8 * 256, 256)  # each byte's offset into flat byte tables


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


def _tables(columns: np.ndarray) -> np.ndarray:
    """8 byte tables of the bit matrix given by its 64 ``columns``: row
    ``k``, entry ``b``, is the matrix times the state whose byte ``k``
    is ``b`` and whose other bytes are 0."""
    tables = np.zeros((8, 256), dtype=np.uint64)
    for j, column in enumerate(columns.reshape(8, 8).T):  # bit j of each byte
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ column[:, None]
    return tables


def _times(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bit matrix of ``tables`` times every state in ``x``: the xor
    of one table entry per byte, least significant byte first."""
    octets = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(np.take(tables, octets + _TABLE_ROWS), axis=1)


def _jumps() -> list[np.ndarray]:
    """Byte tables of ``T^(_STEPS * 2^j)`` for the doubling rounds, then
    of ``T^_CHUNK``, the chain's last power; each power squares the one
    before, its columns the earlier matrix times the earlier columns."""
    columns = _step(_ONE << np.arange(64, dtype=np.uint64))  # of T
    chain = [_tables(columns)]  # of T^(2^i)
    for _ in range(_CHUNK.bit_length() - 1):
        columns = _times(chain[-1], columns)
        chain.append(_tables(columns))
    return chain[_STEPS.bit_length() - 1 :]


*_LANE_JUMPS, _CHUNK_TABLES = _jumps()


def _lanes(state: int) -> np.ndarray:
    """The lane starts of the block after ``state``, by doubling."""
    x = np.empty(_LANES, dtype=np.uint64)
    x[0] = _U64(state)
    for j, jump in enumerate(_LANE_JUMPS):
        x[1 << j : 2 << j] = _times(jump, x[: 1 << j])
    return x


def _block(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_CHUNK`` raw outputs of the block whose lanes start at
    ``lanes``, and the lane starts of the block after it."""
    x = lanes.copy()
    states = np.empty((_STEPS, _LANES), dtype=np.uint64)
    for i in range(_STEPS):
        states[i] = _step(x)
    return states.T.ravel() * _STAR_U64, _times(_CHUNK_TABLES, lanes)


def _uniform_block(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows of the uniform doubles in [0, 1) of
    ``_block(lanes)``, from the top 53 bits of each raw output, and of
    their logits; and the read-only lane starts of the block after them."""
    raw, after = _block(lanes)
    block = np.empty((2, _CHUNK))
    uniforms, logits = block
    np.multiply(raw >> _U64(11), 2.0 ** -53, out=uniforms)
    np.log1p(np.negative(uniforms, out=logits), out=logits)
    with np.errstate(divide="ignore"):  # log(0) is -inf, below every logit
        np.subtract(np.log(uniforms), logits, out=logits)
    block.flags.writeable = after.flags.writeable = False
    return block, after


# every machine of a run is seeded with the same config.seed, so each
# would otherwise rebuild the same first block; 4 blocks, with their
# lane starts, are 544 KB
@functools.lru_cache(maxsize=4)
def _first_block(state: int) -> tuple[np.ndarray, np.ndarray]:
    return _uniform_block(_lanes(state))


class Xorshift64Star:
    """Deterministic RNG; one instance per training run, never shared."""

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        if state == 0:
            state = _STAR
        # the current block's uniforms and logits, and the next block's lanes
        self._block, self._lanes = _first_block(state)
        self._pos = 0

    def _take(self, n: int, row: int = 0) -> np.ndarray:
        """The next ``n`` uniforms (row 0) or their logits (row 1), in
        stream order, not to be written."""
        end = self._pos + n
        if end <= _CHUNK:
            out = self._block[row, self._pos : end]
            self._pos = end
            return out
        parts = [self._block[row, self._pos :]]
        need = n - parts[0].size
        while need > 0:
            self._block, self._lanes = _uniform_block(self._lanes)
            self._pos = min(need, _CHUNK)
            parts.append(self._block[row, : self._pos])
            need -= self._pos
        return np.concatenate(parts)

    def normal_array(self, shape: tuple[int, ...], std: float = 1.0) -> np.ndarray:
        """Array of Gaussians by Box-Muller, filled in row-major draw
        order, two per pair of uniforms; an odd count drops the last
        pair's second value."""
        n = math.prod(shape)
        u = self._take(n + n % 2).tolist()
        z = []
        for u1, u2 in zip(u[::2], u[1::2]):
            r = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1 - u1 in (0, 1]
            z.append(r * math.cos(2.0 * math.pi * u2))
            z.append(r * math.sin(2.0 * math.pi * u2))
        # adding 0.0 turns a -0.0 into 0.0
        return 0.0 + std * np.array(z[:n], dtype=np.float64).reshape(shape)

    def bernoulli_array(self, logits: np.ndarray) -> np.ndarray:
        """0/1 samples of ``sigmoid(logits)``, one uniform per entry in
        row-major order; a logit of +inf draws 1, and -inf or NaN 0."""
        x = np.asarray(logits, dtype=np.float64)
        end = self._pos + x.size
        if end <= _CHUNK:  # _take's common case, inline: a draw is hot
            thresholds = self._block[1, self._pos : end]
            self._pos = end
        else:
            thresholds = self._take(x.size, 1)
        return np.less(thresholds.reshape(x.shape), x).astype(np.float64)
