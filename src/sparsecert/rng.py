"""Deterministic random streams for the simulation harness.

The generator is specified here. Its integer stream, and so every uniform,
subset and sign, is exact in any implementation language; the normals go
through numpy's log, cos and sin, whose kernels numpy picks by CPU, and
their frozen bytes are those of numpy's AVX-512 log:

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

A subset or a sign request takes its draws one at a time. A normals request
of q pairs works through its pairs in blocks of at most NORMAL_BLOCK: each
block mixes the u1 counters of its pairs and their u2 counters (q further
on) in one buffer and writes its values straight into the output, so the
temporaries stay O(NORMAL_BLOCK) however large the request. Within a block
cos and sin run over the angles grouped by their 1/64 turn, and each result
goes back to its own pair: numpy's float64 cos and sin are glibc's scalar
kernels, whose range and quadrant branches mispredict on random angles and
cost about twice as much as on grouped ones. An elementwise function's
value depends on its argument alone, so grouping moves no value. The
values, their order and the state after the request are those specified
above.

Per-trial seeds come from `seed_derive`, which folds the cell coordinates
into the master seed through the same finalizer, one field at a time.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_S11, _S27, _S30, _S31, _S47 = (np.uint64(b) for b in (11, 27, 30, 31, 47))

# Box-Muller pairs per block of a normals request: a block's temporaries hold
# at most 5 * NORMAL_BLOCK 8-byte values (160 KiB) at once, whatever the
# request, so they stay in L2
NORMAL_BLOCK = 4096

# i * GAMMA for i = 1..NORMAL_BLOCK: a run of draws is these steps past the
# state before its first draw
_STEPS = np.arange(1, NORMAL_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_STEPS.flags.writeable = False


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

    def _outputs(self, n: int, starts: tuple[int, ...]) -> np.ndarray:
        """Runs of n consecutive outputs as one uint64 array: run j holds the
        draws starts[j]+1..starts[j]+n after the current state, which does
        not move. n is at most NORMAL_BLOCK."""
        z = np.empty(n * len(starts), dtype=np.uint64)
        for j, start in enumerate(starts):
            base = np.uint64((self._state + _GAMMA * start) & _MASK)
            np.add(_STEPS[:n], base, out=z[j * n : (j + 1) * n])
        t = z >> _S30
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, _S27, out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, _S31, out=t)
        z ^= t
        return z

    def _normal_block(self, out: np.ndarray, a: int, b: int, q: int) -> None:
        """Write pairs a..a+b-1 of a q-pair normals request into out[2a:2a+2b]:
        their u1 at counters a+1..a+b, their u2 at q+a+1..q+a+b. Every
        temporary is freed on return."""
        z = self._outputs(b, (a, q + a))
        z >>= _S11
        z += np.uint64(1)  # at most 2^53, so exact in float64
        # the angles in order of their 1/64 turn; each cos and sin is put back
        # in its own pair's slot, so no value moves
        order = np.argsort((z[b:] >> _S47).astype(np.uint8), kind="stable")
        f = z.view(np.float64)  # each word becomes its float in place
        # scaling by 2^-53 is exact: theta is the one rounding fl(u2 * 2 pi)
        np.multiply(z[b:], 2.0 * np.pi * 2.0**-53, out=f[b:])
        theta = f[b:][order]
        r = np.multiply(z[:b], 2.0**-53, out=f[:b])
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        trig = f[b:]  # the angles in pair order are dead once gathered
        trig[order] = np.cos(theta)
        np.multiply(r, trig, out=out[2 * a : 2 * (a + b) : 2])
        trig[order] = np.sin(theta)
        np.multiply(r, trig, out=out[2 * a + 1 : 2 * (a + b) : 2])

    def normals(self, m: int) -> np.ndarray:
        """m standard normals via Box-Muller, drawn NORMAL_BLOCK pairs at a time."""
        q = (m + 1) // 2
        out = np.empty(2 * q)
        for a in range(0, q, NORMAL_BLOCK):
            self._normal_block(out, a, min(NORMAL_BLOCK, q - a), q)
        self._state = (self._state + _GAMMA * 2 * q) & _MASK
        return out[:m]

    def subset(self, p: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of range(p) by partial Fisher-Yates, sorted."""
        if not 0 <= k <= p:
            raise ValueError(f"cannot draw {k} of {p} items")
        pool = list(range(p))
        for i in range(k):
            j = i + (((self.next_u64() >> 11) * (p - i)) >> 53)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def signs(self, m: int) -> np.ndarray:
        """m values in {+1.0, -1.0}, equiprobable (top output bit)."""
        return np.array([-1.0 if self.next_u64() >> 63 else 1.0 for _ in range(m)])
