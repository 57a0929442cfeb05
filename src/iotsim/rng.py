"""Deterministic random streams.

The parallel engine must produce identical results no matter how the world is
partitioned, so anything drawn inside the step loop is a *stateless* function
of the run seed plus the identifiers that name the decision (entity id,
timestep, message id).  Stateful ``random.Random`` streams are only used where
a single owner consumes the whole stream in a fixed order: world setup, the
fine level's destinations and the per-entity mobility walk.  A walker does
not hold its generator (2.5 KiB of Mersenne Twister state); it holds a
``ReplayStream``, its seed and the number of draws taken so far, and each leg
end rebuilds the generator, skips those draws and draws the new leg.

numpy is imported only by the array kernel, so the fine-grained instance,
which uses the scalar draws alone, does not load it; the kernel's
annotations name its arrays ``np.ndarray`` and are never evaluated.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1

# Stream tags keep draws for different purposes out of each other's way.
SETUP = 0xA0
GENERATION = 0xA1
FORWARD = 0xA2
MOBILITY = 0xA3
LEVEL1 = 0xA4
SWEEP = 0xA5


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(*keys: int) -> int:
    """Hash an arbitrary key tuple down to a 64-bit value."""
    h = 0x9E3779B97F4A7C15
    for k in keys:
        h = _splitmix64(h ^ _splitmix64(k & _MASK64))
    return h


def unit_uniform(*keys: int) -> float:
    """Uniform draw in [0, 1) fully determined by the key tuple."""
    # 53 bits is the full double mantissa; same construction as random.random.
    return (mix(*keys) >> 11) / float(1 << 53)


_U64 = ()  # _splitmix64's constants as np.uint64, built on first use


def _splitmix64_inplace(z: np.ndarray) -> np.ndarray:
    """``_splitmix64`` over a ``uint64`` array, in place.

    numpy's ``uint64`` ``+``, ``*``, ``^`` and ``>>`` wrap mod 2**64, which is
    what the masks do in the scalar version.  Every shift goes through one
    scratch buffer.
    """
    global _U64
    import numpy as np

    if not _U64:
        _U64 = tuple(
            np.uint64(c) for c in (0x9E3779B97F4A7C15, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
        )
    add, s1, m1, s2, m2, s3 = _U64
    tmp = np.empty_like(z)
    z += add
    z ^= np.right_shift(z, s1, out=tmp)
    z *= m1
    z ^= np.right_shift(z, s2, out=tmp)
    z *= m2
    z ^= np.right_shift(z, s3, out=tmp)
    return z


def unit_uniforms(head: tuple[int, ...], *columns: np.ndarray | int) -> np.ndarray:
    """``unit_uniform(*head, *row)`` for every row of ``columns``, as one array.

    Each column is an ``int64`` array with one key per row, or a plain int
    shared by every row; at least one must be an array.  The result equals
    the scalar draws bit for bit: the leading keys are hashed once as a
    Python int (so a seed of any size or sign is fine), and the rest is the
    same fold of ``mix`` done row-wise in ``uint64``.
    """
    import numpy as np

    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    h = np.full(rows, mix(*head), dtype=np.uint64)
    for col in columns:
        if isinstance(col, np.ndarray):
            # int64 -> uint64 keeps the bits, which is ``k & _MASK64``.
            h ^= _splitmix64_inplace(col.astype(np.uint64))
        else:
            h ^= np.uint64(_splitmix64(col & _MASK64))
        _splitmix64_inplace(h)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def substream(*keys: int) -> random.Random:
    """A fresh stateful stream whose seed is derived from the key tuple."""
    return random.Random(mix(*keys))


class ReplayStream:
    """A ``random.Random(seed)`` stream kept as its seed and a draw count.

    ``resume(n)`` rebuilds the generator, skips the ``draws`` already taken
    and counts the ``n`` the caller is about to take, so the caller's draws
    are exactly the ones a held generator would have given.  A draw is one
    ``random()`` (or ``uniform``): two 32-bit words, so ``getrandbits(64 *
    draws)`` skips them.  The caller drops the generator when done.
    """

    __slots__ = ("seed", "draws")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.draws = 0

    def resume(self, n: int) -> random.Random:
        gen = random.Random(self.seed)
        if self.draws:
            gen.getrandbits(64 * self.draws)
        self.draws += n
        return gen
