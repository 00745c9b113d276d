import numpy as np

from manifold_match.numerics import eig_sym


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
        values, vectors = eig_sym(a)
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10
        assert np.allclose(vectors.T @ vectors, np.eye(6), atol=1e-12)

    def test_eigen_residual(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 8)
        values, vectors = eig_sym(a)
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
        values1, vectors1 = eig_sym(a)
        values2, vectors2 = eig_sym(a.copy())
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)
