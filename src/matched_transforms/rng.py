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
* synthesis takes z_o = x_{2o} + i x_{2o+1} for pair orbit o of n, x being
  normal_rows(seed, L, 2L) row-major with L = ceil(sqrt(n)); near square, so
  both Python loops (4L splitmix64 outputs, 2L xoshiro steps) are O(sqrt n).

The integer stream is bit-portable; the float path inherits the platform
libm's log/cos/sin rounding (identical on a fixed platform).
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` splitmix64 outputs for the given seed."""
    out = np.empty(count, dtype=np.uint64)
    state = seed & _MASK64
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out[i] = z ^ (z >> 31)
    return out


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _xoshiro_outputs(states: np.ndarray, steps: int) -> np.ndarray:
    """Run lanes in lockstep; returns (lanes, steps) uint64 outputs."""
    s0 = states[:, 0].copy()
    s1 = states[:, 1].copy()
    s2 = states[:, 2].copy()
    s3 = states[:, 3].copy()
    five, nine, c17 = np.uint64(5), np.uint64(9), np.uint64(17)
    out = np.empty((states.shape[0], steps), dtype=np.uint64)
    for t in range(steps):
        out[:, t] = _rotl(s1 * five, 7) * nine
        tmp = s1 << c17
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ tmp
        s3 = _rotl(s3, 45)
    return out


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
    z = raw.astype(np.float64)
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
