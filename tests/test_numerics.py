from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_match import numerics
from manifold_match.numerics import _fix_signs, eig_sym, symmetrize


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a + a.T) / 2


class TestEigSym:
    def test_identity(self):
        values, _ = eig_sym(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        values, vectors = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [3.0, 2.0, 1.0])
        # axis-aligned eigenvectors, sign convention makes them +e_i
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
        assert np.allclose(vectors, expected)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 6, scale=3.0)
        values, vectors = eig_sym(a.copy())
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10
        assert np.allclose(vectors.T @ vectors, np.eye(6), atol=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 8)
        values, vectors = eig_sym(a.copy())
        scale = np.linalg.norm(a)
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(a @ v - lam * v) < scale * 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        _, vectors = eig_sym(random_symmetric(rng, 9))
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(9)] > 0)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        a = random_symmetric(rng, 7)
        values1, vectors1 = eig_sym(a.copy())
        values2, vectors2 = eig_sym(a.copy())
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)

    @pytest.mark.parametrize("count", [0, 1, 4, 7])
    def test_leading_count_has_the_bits_of_the_full_call(self, count):
        rng = np.random.default_rng(31)
        a = random_symmetric(rng, 7)
        a[:, 2] = a[2, :] = 0.0  # an exact zero eigenvalue's column
        values, vectors = eig_sym(a.copy())
        top_values, top_vectors = eig_sym(a.copy(), count)
        assert top_values.tobytes() == values[:count].tobytes()
        assert top_vectors.tobytes() == vectors[:, :count].tobytes()

    def test_results_leave_the_overwritten_input(self):
        a = random_symmetric(np.random.default_rng(9), 5)
        values, vectors = eig_sym(a)
        assert not np.shares_memory(values, a)
        assert not np.shares_memory(vectors, a)

    @pytest.mark.parametrize("a", [
        np.eye(4)[:, ::2][:2], np.asfortranarray(np.arange(9.0).reshape(3, 3)),
        np.eye(3, dtype=np.float32), np.ones((2, 3)),
    ], ids=["strided", "fortran", "float32", "not-square"])
    def test_refuses_what_it_cannot_factor_in_place(self, a):
        with pytest.raises(ValueError, match="C-contiguous square float64"):
            eig_sym(a)


def numpy_eig_sym(a, count=None):
    """eig_sym's contract through np.linalg.eigh and its copies."""
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")[:count]
    return values[order], _fix_signs(vectors[:, order])


@st.composite
def symmetric_inputs(draw):
    """A square float64 matrix and a count of leading pairs: n at 0, 1, 2,
    around 64 and up to 150; spectra with repeated and zero eigenvalues;
    and an upper triangle that may not mirror the lower one."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65]), st.integers(0, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = draw(st.sampled_from(["normal", "repeated", "rank-deficient"]))
    if spectrum == "normal":
        a = rng.normal(size=(n, n))
        a = a + a.T
    else:
        levels = [0.0, 1.0, -2.0] if spectrum == "repeated" else [0.0, 0.0, 0.0, 5.0]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * rng.choice(levels, size=n)) @ q.T
    if draw(st.booleans()):
        a[np.triu_indices(n, 1)] = rng.normal(size=n * (n - 1) // 2)
    return np.ascontiguousarray(a), draw(st.one_of(st.none(), st.integers(0, n)))


class TestInPlaceFactorization:
    """eig_sym factors (a + a.T) / 2 in place through LAPACK's dsyevd, as
    np.linalg.eigh does through its copies, with the same bits."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(symmetric_inputs())
    def test_has_the_bits_and_strides_of_numpys_eigh(self, blas_threads, case):
        a, count = case
        symmetric = (a + a.T) * 0.5
        expected_values, expected_vectors = numpy_eig_sym(symmetric, count)
        values, vectors = eig_sym(a.copy(), count)
        assert values.tobytes() == expected_values.tobytes()
        assert vectors.tobytes() == expected_vectors.tobytes()
        assert vectors.shape == expected_vectors.shape
        assert vectors.strides == expected_vectors.strides
        all_values, rows = numerics._eigh_rows(a.copy())
        numpy_values, numpy_vectors = np.linalg.eigh(symmetric)
        assert all_values.tobytes() == numpy_values.tobytes()
        assert rows.T.tobytes() == numpy_vectors.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 65, 150])
    def test_fallback_gives_the_same_bits(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        values, vectors = eig_sym(a.copy(), 10)
        monkeypatch.setattr(numerics, "_dsyevd", lambda: None)
        fallback_values, fallback_vectors = eig_sym(a.copy(), 10)
        assert fallback_values.tobytes() == values.tobytes()
        assert fallback_vectors.tobytes() == vectors.tobytes()
        assert fallback_vectors.strides == vectors.strides

    def test_binding_resolves_where_numpy_ships_scipy_openblas(self):
        # Without this guard a lost binding would fall back to eigh silently.
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not any(libs.glob("libscipy_openblas64_*")):
            pytest.skip("numpy does not bundle scipy-openblas64")
        assert numerics._dsyevd() is not None

    def test_no_convergence_is_numpys_error(self):
        a = np.full((3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            np.linalg.eigh(a)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            eig_sym(a)


# Finite floats with the values where averaging is delicate: signed zeros,
# subnormals, and pairs near the top of the range whose sum overflows to inf.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-323,
                1.7976931348623157e308, -1.7976931348623157e308, 1.2e308, 1.0, -3.5]
_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_VALUES)
)


@st.composite
def blocked_squares(draw):
    """A square float array and a block height, with n at 1 and at one block
    and a half-block around every multiple."""
    rows = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.sampled_from([1, rows - 1, rows, rows + 1, 2 * rows + 1]).filter(lambda k: k >= 1))
    return rows, draw(arrays(np.float64, (n, n), elements=_ENTRIES))


def pairwise_mean(a):
    """``(a + a.T) * 0.5`` over the whole array where a mirror pair's bits
    differ; ``a`` itself where they agree."""
    bits = a.view(np.int64)
    with np.errstate(over="ignore"):
        return np.where(bits != bits.T, (a + a.T) * 0.5, a)


class TestSymmetrize:
    @settings(max_examples=200, deadline=None)
    @given(blocked_squares())
    def test_has_the_bits_of_the_whole_array_average(self, case):
        rows, a = case
        expected = pairwise_mean(a)
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
            patch.setattr(numerics, "_SYM_ROWS", rows)
            result = symmetrize(a)
        assert result is a
        assert a.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_default_block_edges(self, offset):
        n = numerics._SYM_ROWS + offset
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
        a[rng.random((n, n)) < 0.05] = -0.0
        a[0, -1], a[-1, 0] = 1.7e308, 1.6e308
        a[1, -1] = a[-1, 1] = 1.7e308
        expected = pairwise_mean(a)
        with np.errstate(over="ignore"):
            symmetrize(a)
        # A differing pair's sum overflows; an equal pair keeps its value.
        assert np.isinf(a[0, -1])
        assert a[1, -1] == a[-1, 1] == 1.7e308
        assert a.tobytes() == expected.tobytes()
