import numpy as np
import pytest

from manifold_match.errors import ValidationError
from manifold_match.numerics import eig_sym


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a + a.T) / 2


class TestEigSym:
    def test_identity(self):
        res = eig_sym(np.eye(3))
        assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        res = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.eigenvalues, [3.0, 2.0, 1.0])
        # axis-aligned eigenvectors, sign convention makes them +e_i
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
        assert np.allclose(res.eigenvectors, expected)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 6, scale=3.0)
        res = eig_sym(a)
        recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10
        assert np.allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(6), atol=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 8)
        res = eig_sym(a)
        scale = np.linalg.norm(a)
        for lam, v in zip(res.eigenvalues, res.eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * v) < scale * 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        res = eig_sym(random_symmetric(rng, 9))
        lead = np.argmax(np.abs(res.eigenvectors), axis=0)
        assert np.all(res.eigenvectors[lead, np.arange(9)] > 0)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        a = random_symmetric(rng, 7)
        r1 = eig_sym(a)
        r2 = eig_sym(a.copy())
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            eig_sym(np.zeros((2, 3)))
