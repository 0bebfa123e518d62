"""Portable seeded random stream: splitmix64 -> xoshiro256** -> Box-Muller.

The recipe is fixed so an independent reimplementation reproduces it exactly:

* the 64-bit seed (wrapped mod 2**64) runs through splitmix64; the first
  4*L outputs become the initial states of L xoshiro256** lanes, lane i
  taking outputs 4i..4i+3 as state words s0..s3;
* each lane emits uint64 values x_t; uniform u_t = ((x_t >> 11) + 1) * 2**-53,
  which lies in (0, 1];
* consecutive uniform pairs (u_{2k}, u_{2k+1}) feed Box-Muller:
  z_{2k} = sqrt(-2 ln u_{2k}) cos(2 pi u_{2k+1}),
  z_{2k+1} = sqrt(-2 ln u_{2k}) sin(2 pi u_{2k+1});
* synthesis's orbital route combines its n orbitals with
  z_o = x_{2o} + i x_{2o+1}, x being normal_rows(0, L, 2L) row-major with
  L = ceil(sqrt(n)): a fixed seed, so the basis does not depend on the
  caller's; near square, so the one Python loop (2L xoshiro steps, each on
  L lanes) is O(sqrt n).

The integer stream is bit-portable; the float path inherits the platform
libm's log/cos/sin rounding (identical on a fixed platform).
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` splitmix64 outputs for the given seed.

    The t-th state is seed + t * 0x9E3779B97F4A7C15 mod 2**64, so every
    output is computed at once in wrapping uint64 arithmetic."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _xoshiro_outputs(states: np.ndarray, steps: int) -> np.ndarray:
    """Run lanes in lockstep; returns (lanes, steps) uint64 outputs.

    The state words are updated in place, and step t records s1 as row t
    of a (steps, lanes) buffer; the output scrambler rotl(5 s1, 7) * 9 runs
    once over the whole buffer.  The result is that buffer's transpose, a
    view."""
    s = states.T.copy()  # rows s0, s1, s2, s3, never a view of states
    s0, s1, s2, s3 = s
    tmp = np.empty_like(s1)
    out = np.empty((steps, states.shape[0]), dtype=np.uint64)
    c17, c19, c45 = np.uint64(17), np.uint64(19), np.uint64(45)
    for row in out:
        row[...] = s1
        np.left_shift(s1, c17, out=tmp)
        s[2:4] ^= s[0:2]  # s2 ^= s0, s3 ^= s1
        s[0:2] ^= s[3:1:-1]  # s0 ^= s3, s1 ^= s2
        s2 ^= tmp
        np.left_shift(s3, c45, out=tmp)  # s3 = rotl(s3, 45)
        s3 >>= c19
        s3 |= tmp
    out *= np.uint64(5)
    tmp = out << np.uint64(7)
    out >>= np.uint64(57)
    out |= tmp
    del tmp
    out *= np.uint64(9)
    return out.T


def normal_rows(seed: int, rows: int, normals_per_row: int) -> np.ndarray:
    """(rows, normals_per_row) standard normals, one xoshiro lane per row.

    normals_per_row must be even (Box-Muller consumes uniforms in pairs).
    """
    if rows < 1 or normals_per_row < 1 or normals_per_row % 2:
        raise ValueError("need rows >= 1 and a positive even normals_per_row")
    states = _splitmix64(seed, 4 * rows).reshape(rows, 4)
    raw = _xoshiro_outputs(states, normals_per_row)
    # in place from here, one float buffer: same bytes, under half the peak
    raw >>= np.uint64(11)
    z = raw.astype(np.float64, order="C")
    del raw
    z += 1.0
    z *= 2.0**-53
    r, theta = z[:, 0::2], z[:, 1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return z
