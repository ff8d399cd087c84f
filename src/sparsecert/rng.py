"""Deterministic random streams for the simulation harness.

The generator is fully specified here so that any implementation language can
reproduce the exact same instances:

* state update: s <- (s + 0x9E3779B97F4A7C15) mod 2^64, one step per draw;
* output: the splitmix64 finalizer
      z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
      z ^= z >> 27; z *= 0x94D049BB133111EB;
      z ^= z >> 31;
  applied to the updated state (all arithmetic mod 2^64);
* uniforms: u = ((bits >> 11) + 1) * 2^-53, in (0, 1];
* normals: Box-Muller pairs. A request for m normals draws q = ceil(m/2)
  uniforms u1 then q uniforms u2 and interleaves
      sqrt(-2 ln u1) cos(2 pi u2), sqrt(-2 ln u1) sin(2 pi u2),
  truncating the last value when m is odd;
* integers below m: ((bits >> 11) * m) >> 53, one draw each;
* k-subsets of range(p): partial Fisher-Yates on [0, ..., p-1], the i-th
  of k draws swapping entry i with entry i + (integer below p - i),
  returned sorted;
* signs: +1.0 when the top bit of a draw is 0, else -1.0, one draw each.

Every request takes its draws as one vectorized block of consecutive
outputs, which is the same stream as drawing them one at a time.

Per-trial seeds come from `seed_derive`, which folds the cell coordinates
into the master seed through the same finalizer, one field at a time.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_S11, _S27, _S30, _S31, _S63 = (np.uint64(b) for b in (11, 27, 30, 31, 63))


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def seed_derive(
    master_seed: int, p: int, alpha_index: int, rho_index: int, trial_index: int
) -> int:
    """Collision-resistant 64-bit stream seed for one simulation trial."""
    if min(p, alpha_index, rho_index, trial_index) < 0:
        raise ValueError("cell coordinates must be nonnegative")
    h = master_seed & _MASK
    for field in (p, alpha_index, rho_index, trial_index):
        h = _mix(h + _GAMMA + (field & _MASK))
    return h


class SplitMix64:
    """Counter-style splitmix64 stream with vectorized block draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def _block(self, m: int) -> np.ndarray:
        """The next m outputs as uint64, mixed in place."""
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        t = z >> _S30
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, _S27, out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, _S31, out=t)
        z ^= t
        self._state = (self._state + _GAMMA * m) & _MASK
        return z

    def normals(self, m: int) -> np.ndarray:
        """m standard normals via Box-Muller, from one block of 2q draws."""
        q = (m + 1) // 2
        bits = self._block(2 * q)
        bits >>= _S11
        u = bits.astype(np.float64)
        u += 1.0
        u *= 2.0**-53
        r, theta = u[:q], u[q:]  # views: u1 becomes r, u2 becomes theta
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        out = np.empty(2 * q)
        np.multiply(r, np.cos(theta), out=out[0::2])
        np.multiply(r, np.sin(theta), out=out[1::2])
        return out[:m]

    def subset(self, p: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of range(p) by partial Fisher-Yates, sorted."""
        if not 0 <= k <= p:
            raise ValueError(f"cannot draw {k} of {p} items")
        pool = list(range(p))
        for i, bits in enumerate(self._block(k).tolist()):
            j = i + (((bits >> 11) * (p - i)) >> 53)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def signs(self, m: int) -> np.ndarray:
        """m values in {+1.0, -1.0}, equiprobable (top output bit)."""
        return np.where(self._block(m) >> _S63 == 0, 1.0, -1.0)


# frozen regression constant: seed_derive(0, 0, 0, 0, 0)
SEED_DERIVE_REFERENCE = 0x2130748AAAC80268
