"""Seeded draws from the standard library's Mersenne Twister, as numpy arrays.

``Draws(seed)`` wraps ``random.Random(seed)`` and turns one bulk
``getrandbits(64 k)`` into k 64-bit words; bulk words equal the words of k
sequential ``getrandbits(64)`` calls, so every value depends on its position
in the stream alone, not on how the draws are grouped.  A word w gives the
uniform (w >> 11) 2^-53 on [0, 1); normals come from Box-Muller on pairs of
uniforms, with 1 - u inside the log so that it never sees 0.  The module
needs no ``numpy.random``, whose import costs more than the few hundred
numbers a command draws.
"""

from __future__ import annotations

import math
import random

import numpy as np


def box_muller(u):
    """Standard normals from uniforms on [0, 1) whose last axis has even
    length 2h: the first h give the radii r, the last h the angles 2 pi v,
    and the result is [r cos 2 pi v, r sin 2 pi v] along that axis."""
    h = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :h]))
    angle = (2.0 * np.pi) * u[..., h:]
    return np.concatenate([r * np.cos(angle), r * np.sin(angle)], axis=-1)


class Draws:
    """The numpy-generator methods the package uses, on ``random.Random``."""

    def __init__(self, seed):
        # random.Random seeds with |seed|: refuse the negative alias.
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self._mt = random.Random(seed)

    def random(self, size):
        """Uniforms on [0, 1) of shape ``size``, 53 bits each."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        k = math.prod(shape)
        words = np.frombuffer(
            self._mt.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8"
        )
        return ((words >> np.uint64(11)) * 2.0**-53).reshape(shape)

    def uniform(self, low, high, size):
        """Uniforms on [low, high): rounding never reaches ``high``."""
        out = low + (high - low) * self.random(size)
        return np.minimum(out, np.nextafter(high, low))

    def standard_normal(self, size):
        """Standard normals of shape ``size``, Box-Muller along the last
        axis (an odd last axis draws one uniform more and drops its normal)."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        m = shape[-1]
        return box_muller(self.random(shape[:-1] + (m + m % 2,)))[..., :m]

    def normal(self, loc, scale, size):
        return loc + scale * self.standard_normal(size)

    def integers(self, low, high):
        """One integer in [low, high)."""
        return self._mt.randrange(low, high)
