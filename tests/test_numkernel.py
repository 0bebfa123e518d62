import numpy as np
import pytest

from matched_transforms import (
    DimensionError,
    NumericError,
    herm_eig,
    random_psd,
)
from matched_transforms.numkernel import _check_hermitian
from matched_transforms.rng import _splitmix64, _xoshiro_outputs, normal_rows

from helpers import reference_splitmix64, reference_xoshiro, traced_peak


class TestHermEig:
    @pytest.mark.parametrize("m", [1, 3, 64, 129])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_symmetrized_exactly(self, m, dtype):
        # the row blocks give (a + a*) / 2 bit for bit, as one whole-matrix
        # expression does
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if dtype is np.complex128 else 0)
        a = a + a.conj().T + 1e-12 * rng.normal(size=(m, m))
        assert _check_hermitian(a).tobytes() == ((a + a.conj().T) / 2.0).tobytes()

    def test_check_peak_memory(self):
        # 16 MiB of input: the result is the one M x M temporary (the whole
        # expression held the adjoint, the difference and its modulus too)
        a = random_psd(1024, 3)
        _, peak = traced_peak(lambda: _check_hermitian(a))
        assert peak <= 1.5 * a.nbytes

    def test_diagonal(self):
        res = herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(res.values, [1.0, 2.0])
        assert abs(abs(res.vectors[1, 0]) - 1.0) < 1e-12
        assert abs(abs(res.vectors[0, 1]) - 1.0) < 1e-12

    def test_identity(self):
        res = herm_eig(np.eye(3))
        assert np.allclose(res.values, [1.0, 1.0, 1.0])
        assert np.max(np.abs(res.vectors.conj().T @ res.vectors - np.eye(3))) < 1e-10

    def test_swap_hand_values(self):
        res = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.values, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(abs(minus @ res.vectors[:, 0]) - 1.0) < 1e-12
        assert abs(abs(plus @ res.vectors[:, 1]) - 1.0) < 1e-12

    def test_values_nondecreasing_and_residual(self):
        a = random_psd(16, 3)
        res = herm_eig(a)
        assert np.all(np.diff(res.values) >= -1e-12)
        resid = a @ res.vectors - res.vectors * res.values
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("m", [2, 8, 31, 64])
    def test_reconstruction(self, m):
        a = random_psd(m, m)
        res = herm_eig(a)
        back = (res.vectors * res.values) @ res.vectors.conj().T
        assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("a", [
        random_psd(12, 5).real,
        np.array([[2, 1], [1, 2]]),  # integer entries count as real
    ], ids=["float", "int"])
    def test_real_input_gives_real_output(self, a):
        res = herm_eig(a)
        assert res.values.dtype == np.float64
        assert res.vectors.dtype == np.float64
        back = (res.vectors * res.values) @ res.vectors.T
        assert np.linalg.norm(back - a) <= 1e-12 * np.linalg.norm(a)

    def test_complex_input_stays_complex(self):
        # a complex input with zero imaginary part is not narrowed
        res = herm_eig(np.eye(3, dtype=np.complex128))
        assert res.vectors.dtype == np.complex128

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            herm_eig(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            herm_eig(np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestRandomPsd:
    def test_scalar_nonnegative(self):
        out = random_psd(1, 5)
        assert out.shape == (1, 1)
        assert out[0, 0].real >= 0.0
        assert abs(out[0, 0].imag) < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456])
    def test_psd(self, seed):
        vals = herm_eig(random_psd(8, seed)).values
        assert np.min(vals) >= -1e-12

    def test_deterministic(self):
        assert np.array_equal(random_psd(4, 7), random_psd(4, 7))

    def test_seed_sensitivity(self):
        assert not np.allclose(random_psd(4, 7), random_psd(4, 8))

    def test_hermitian(self):
        a = random_psd(6, 9)
        assert np.max(np.abs(a - a.conj().T)) < 1e-15

    @pytest.mark.parametrize("m, seed", [(1, 1), (2, 3), (7, 5), (64, 2), (300, 9)])
    def test_pairs_read_in_place(self, m, seed):
        # the Gaussian pairs are read in place as complex entries: the bytes
        # of pairing them by slicing, through the same products
        z = normal_rows(seed, m, 2 * m)
        a = (z[:, 0::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
        h = a @ a.conj().T
        h += h.conj().T
        h /= 2.0
        assert random_psd(m, seed).tobytes() == h.tobytes()


class TestNormalRows:
    def test_shape_and_determinism(self):
        a = normal_rows(3, 4, 10)
        assert a.shape == (4, 10)
        assert np.array_equal(a, normal_rows(3, 4, 10))

    def test_rows_differ(self):
        a = normal_rows(3, 2, 64)
        assert not np.allclose(a[0], a[1])

    def test_moments(self):
        a = normal_rows(11, 8, 4096)
        assert abs(np.mean(a)) < 0.02
        assert abs(np.var(a) - 1.0) < 0.05

    def test_odd_count_rejected(self):
        with pytest.raises(Exception):
            normal_rows(1, 1, 3)

    @pytest.mark.parametrize("seed, rows, count", [
        (1, 1, 2), (2, 3, 8), (3, 256, 512), (4, 1024, 2048),
    ])
    def test_bytes_follow_the_recipe(self, seed, rows, count):
        # the module docstring's recipe, written out with fresh arrays; the
        # float path rounds as the platform's log/cos/sin do, so the bytes
        # are compared on this platform rather than pinned
        raw = _xoshiro_outputs(_splitmix64(seed, 4 * rows).reshape(rows, 4), count)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
        theta = 2.0 * np.pi * u[:, 1::2]
        expected = np.empty((rows, count))
        expected[:, 0::2] = r * np.cos(theta)
        expected[:, 1::2] = r * np.sin(theta)
        assert normal_rows(seed, rows, count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, lanes, steps", [
        (0, 1, 1), (1, 3, 8), (2**64 - 1, 5, 17), (-7, 4, 33), (12345, 16, 64),
    ])
    def test_stream_matches_scalar_reference(self, seed, lanes, steps):
        # the vectorized splitmix64 and the lockstep xoshiro256** lanes
        # against the generators written one Python int at a time
        states = _splitmix64(seed, 4 * lanes)
        assert states.tolist() == reference_splitmix64(seed, 4 * lanes)
        words = states.reshape(lanes, 4).tolist()
        out = _xoshiro_outputs(states.reshape(lanes, 4), steps)
        assert out.shape == (lanes, steps)
        # the lanes' state words are the function's own: the input is unchanged
        assert states.reshape(lanes, 4).tolist() == words
        for lane in range(lanes):
            assert out[lane].tolist() == reference_xoshiro(words[lane], steps)

    def test_peak_memory(self):
        # 16 MiB of output: the raw draws are freed before the float buffer
        # is transformed in place
        _, peak = traced_peak(lambda: normal_rows(4, 1024, 2048))
        assert peak <= 48 * 2**20
