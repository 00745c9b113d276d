import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import orthogonal_procrustes

from conftest import traced_peak
from manifold_match.corpus import synthesize_corpus
from manifold_match.dissimilarity import cosine_dissimilarity
from manifold_match.errors import ValidationError
from manifold_match.mds import MdsModel, fidelity_error, mds_fit, mds_out_of_sample, scree
from manifold_match.numerics import eig_sym


def euclidean_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def fidelity_oracle(embedding, delta):
    # brute-force double loop over unordered pairs
    n = delta.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += (np.linalg.norm(embedding[i] - embedding[j]) - delta[i, j]) ** 2
    return total / (n * (n - 1) / 2)


@pytest.fixture(scope="module")
def hop_block():
    """A 900 x 900 uint8 geodesic view, as a run keeps its graph views."""
    return synthesize_corpus(31, 900, 2, 5, 0.8).view("domain0", "graph", 32, 30)


class TestMdsFit:
    def test_two_points(self):
        model = mds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
        coords = model.embedding.ravel()
        assert np.allclose(np.sort(coords), [-1.0, 1.0])
        assert model.effective_dim == 1

    def test_collinear_points_effective_dim(self):
        delta = np.abs(np.subtract.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
        model = mds_fit(delta, 2)
        assert model.effective_dim == 1
        coords = model.embedding[:, 0]
        target = np.array([-1.0, 0.0, 1.0])
        assert np.allclose(coords, target, atol=1e-9) or np.allclose(
            coords, -target, atol=1e-9
        )

    def test_euclidean_distances_recovered(self):
        rng = np.random.default_rng(51)
        points = rng.normal(size=(20, 5))
        delta = euclidean_distances(points)
        model = mds_fit(delta, 5)
        assert np.allclose(euclidean_distances(model.embedding), delta, atol=1e-8)

    def test_exact_recovery_invariant(self):
        rng = np.random.default_rng(52)
        points = rng.normal(size=(30, 4))
        delta = euclidean_distances(points)
        for p in (4, 10):
            model = mds_fit(delta, p)
            assert fidelity_error(model.embedding, delta) < 1e-10

    def test_columns_centered(self):
        rng = np.random.default_rng(53)
        delta = euclidean_distances(rng.normal(size=(15, 3)))
        model = mds_fit(delta, 3)
        assert np.allclose(model.embedding.mean(axis=0), 0.0, atol=1e-9)

    def test_gram_identity(self):
        rng = np.random.default_rng(54)
        delta = euclidean_distances(rng.normal(size=(12, 3)))
        model = mds_fit(delta, 3)
        sq = delta * delta
        gram = -0.5 * (
            sq - sq.mean(axis=1, keepdims=True) - sq.mean(axis=0, keepdims=True) + sq.mean()
        )
        assert (
            np.linalg.norm(model.embedding @ model.embedding.T - gram)
            / np.linalg.norm(gram)
            < 1e-8
        )

    def test_monotone_fidelity(self):
        # For Euclidean dissimilarities, truncated embeddings underestimate
        # distances, so extra positive-eigenvalue dimensions only help. (Not
        # true for non-Euclidean input, where distances overshoot.)
        rng = np.random.default_rng(55)
        delta = euclidean_distances(rng.normal(size=(18, 6)))
        errors = [
            fidelity_error(mds_fit(delta, p).embedding, delta) for p in (1, 3, 5, 8)
        ]
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-12

    def test_negative_eigenvalues_dropped(self):
        # triangle-violating dissimilarity: spectrum has a negative eigenvalue
        delta = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.5], [1.0, 2.5, 0.0]])
        model = mds_fit(delta, 2)
        assert model.effective_dim == 1
        assert np.all(model.eigenvalues > 0)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(56)
        delta = euclidean_distances(rng.normal(size=(10, 4)))
        model = mds_fit(delta, 4)
        assert np.all(np.diff(model.eigenvalues) <= 0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        rank=st.integers(1, 6),
        extra=st.integers(0, 3),
        log_scale=st.floats(-3.0, 3.0),
        euclidean=st.booleans(),
    )
    def test_embedding_is_its_own_thin_svd_property(
        self, seed, n, rank, extra, log_scale, euclidean
    ):
        # The alignment whitens an MDS fit without an SVD because its
        # embedding V sqrt(L) has centered, mutually orthogonal columns with
        # norms sqrt(L). City-block distances are non-Euclidean; asking for
        # more dimensions than the rank leaves the effective dimension short.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, rank)) * 10.0**log_scale
        if euclidean:
            delta = euclidean_distances(points)
        else:
            delta = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
        p = min(rank + extra, n - 1)
        model = mds_fit(delta, p)
        x, values = model.embedding, model.eigenvalues
        assert model.effective_dim == values.size <= p
        if euclidean:
            assert model.effective_dim <= rank
        top = values[0]
        assert np.max(np.abs(x.sum(axis=0))) <= 1e-8 * np.sqrt(n * top)
        assert np.max(np.abs(x.T @ x - np.diag(values))) <= 1e-9 * top
        assert np.max(np.abs(np.linalg.norm(x, axis=0) - np.sqrt(values))) <= 1e-9 * np.sqrt(top)

    def test_model_converts_to_its_embedding(self):
        rng = np.random.default_rng(57)
        model = mds_fit(euclidean_distances(rng.normal(size=(8, 2))), 2)
        assert np.asarray(model) is model.embedding
        assert np.shape(model) == (8, 2)

    def test_fit_arrays_are_read_only(self):
        # A fit can be kept and shared as mds_fit returns it.
        rng = np.random.default_rng(58)
        model = mds_fit(euclidean_distances(rng.normal(size=(8, 2))), 2)
        for array in (model.embedding, model.eigenvalues, model.row_means):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(model)[0, 0] = 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_gram_has_the_bits_of_the_expression(self, seed):
        rng = np.random.default_rng(seed)
        delta = np.abs(rng.normal(size=(40, 40)))
        delta = delta + delta.T
        np.fill_diagonal(delta, 0.0)
        squared = delta * delta
        row_means = squared.mean(axis=1)
        grand_mean = float(squared.mean())
        gram = -0.5 * (squared - row_means[:, None] - row_means[None, :] + grand_mean)
        values, vectors = eig_sym(0.5 * (gram + gram.T))
        keep = int(np.sum(values > values[0] * 1e-10))
        model = mds_fit(delta, 39)
        assert model.effective_dim == keep
        assert np.array_equal(model.embedding, vectors[:, :keep] * np.sqrt(values[:keep]))
        assert np.array_equal(model.row_means, row_means)
        assert model.grand_mean == grand_mean

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64], ids=["uint8", "float"])
    def test_whole_working_set_below_three_and_a_quarter_gram_matrices(self, hop_block, dtype):
        # The Gram matrix, squared straight from the block, centred,
        # symmetrised and factored in place, beside LAPACK's workspace of
        # about 2n^2 floats, which numpy allocates and tracemalloc traces:
        # 3.03n^2. Through np.linalg.eigh, its copy of the matrix, its
        # vectors and the workspace held about 4.9n^2, of which 2.2n^2 was
        # traced.
        delta = hop_block[:500, :500].astype(dtype)
        n = delta.shape[0]
        mds_fit(delta, 100)
        peak, _ = traced_peak(lambda: mds_fit(delta, 100))
        assert peak < 3.25 * n * n * 8

    def test_p_out_of_range(self):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            mds_fit(delta, 0)
        with pytest.raises(ValidationError):
            mds_fit(delta, 2)


class TestOutOfSample:
    def test_training_rows_reproduced(self):
        rng = np.random.default_rng(61)
        delta = euclidean_distances(rng.normal(size=(20, 5)))
        model = mds_fit(delta, 5)
        recovered = mds_out_of_sample(model, delta)
        assert np.max(np.abs(recovered - model.embedding)) < 1e-6

    def test_training_rows_reproduced_non_euclidean(self):
        rng = np.random.default_rng(62)
        f = rng.normal(size=(16, 4))
        delta = cosine_dissimilarity(f)
        model = mds_fit(delta, 6)
        recovered = mds_out_of_sample(model, delta)
        assert np.max(np.abs(recovered - model.embedding)) < 1e-6

    def test_heldout_point_matches_procrustes_alignment(self):
        rng = np.random.default_rng(63)
        points = rng.normal(size=(21, 5))
        delta = euclidean_distances(points)
        model = mds_fit(delta[:20, :20], 5)
        new_coord = mds_out_of_sample(model, delta[20, :20])

        centered = points[:20] - points[:20].mean(axis=0)
        rotation, _ = orthogonal_procrustes(model.embedding, centered)
        expected = points[20] - points[:20].mean(axis=0)
        assert np.allclose(new_coord @ rotation, expected, atol=1e-6)

    def test_equidistant_point_gram_consistency(self):
        # all-equal dissimilarities: only assert finiteness and b_i = <y, x_i>
        rng = np.random.default_rng(64)
        delta = euclidean_distances(rng.normal(size=(12, 3)))
        model = mds_fit(delta, 3)
        d_new = np.full(12, 2.0)
        coord = mds_out_of_sample(model, d_new)
        assert np.all(np.isfinite(coord))
        sq = d_new**2
        b = -0.5 * (sq - model.row_means - sq.mean() + model.grand_mean)
        # X y equals b projected onto the retained eigenspace
        basis = model.embedding / np.sqrt(model.eigenvalues)
        assert np.allclose(model.embedding @ coord, basis @ (basis.T @ b), atol=1e-8)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(65)
        points = rng.normal(size=(15, 4))
        delta = euclidean_distances(points)
        model = mds_fit(delta[:10, :10], 4)
        rows = delta[10:, :10]
        batch = mds_out_of_sample(model, rows)
        singles = np.array([mds_out_of_sample(model, r) for r in rows])
        # matmul accumulation order differs between shapes; equality is
        # only up to rounding
        assert batch.shape == singles.shape
        assert np.allclose(batch, singles, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        rank=st.integers(1, 6),
        extra=st.integers(0, 3),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_training_rows_reproduced_property(self, seed, n, rank, extra, log_scale):
        # Random Euclidean configurations of any rank and scale; asking for
        # more dimensions than the rank keeps only the positive spectrum.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, rank + extra))
        delta = euclidean_distances(points * 10.0**log_scale)
        model = mds_fit(delta, min(rank + extra, n - 1))
        recovered = mds_out_of_sample(model, delta)
        scale = np.max(np.abs(model.embedding))
        assert np.max(np.abs(recovered - model.embedding)) <= 1e-6 * scale

    def test_wrong_length_rejected(self):
        model = mds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
        with pytest.raises(ValidationError):
            mds_out_of_sample(model, np.ones(3))

    def test_negative_rejected(self):
        model = mds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
        with pytest.raises(ValidationError):
            mds_out_of_sample(model, np.array([-1.0, 1.0]))


    @pytest.mark.parametrize("dtype", [np.uint8, np.float64], ids=["uint8", "float"])
    def test_holds_one_float_array_of_the_new_rows(self, hop_block, dtype):
        # The squared rows are centred and scaled in place: one (m, n) float
        # array, beside the (m, p) coordinates and the fixed-size buffers
        # numpy casts narrow inputs through.
        model = mds_fit(hop_block[:600, :600], 10)
        rows = hop_block[600:, :600].astype(dtype)
        m, n = rows.shape
        peak, _ = traced_peak(lambda: mds_out_of_sample(model, rows))
        assert peak < 1.25 * m * n * 8


def whole_array_mds_fit(delta, p):
    """mds_fit as whole-array expressions: a float cast, a squared copy, a
    transposed copy to symmetrise, and every eigenpair sorted and
    sign-fixed."""
    d = np.asarray(delta, dtype=float)
    gram = d * d
    row_means = gram.mean(axis=1)
    grand_mean = float(gram.mean())
    gram -= row_means[:, None]
    gram -= row_means[None, :]
    gram += grand_mean
    gram *= -0.5
    gram += gram.T
    gram *= 0.5
    values, vectors = np.linalg.eigh(gram)
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    signs = np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    cutoff = max(float(values[0]), 0.0) * 1e-10
    keep = min(p, int(np.sum(values > cutoff)))
    return MdsModel(vectors[:, :keep] * np.sqrt(values[:keep]), values[:keep].copy(),
                    row_means, grand_mean)


def whole_array_out_of_sample(model, delta_new):
    rows = np.atleast_2d(np.asarray(delta_new, dtype=float))
    squared = rows * rows
    b = -0.5 * (
        squared
        - model.row_means[None, :]
        - squared.mean(axis=1, keepdims=True)
        + model.grand_mean
    )
    return (b @ model.embedding) / model.eigenvalues


@st.composite
def dissimilarity_blocks(draw):
    """A symmetric zero-diagonal training block, new rows to it, and a
    dimension, as hop counts (uint8, uint16) or cosine-range floats; n
    reaches past symmetrize's first row block."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.float64]))
    n = draw(st.integers(2, 80))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.float64:
        upper = 2.0 * rng.random((n, n))
        rows = 2.0 * rng.random((m, n))
    else:
        top = int(np.iinfo(dtype).max)
        upper = rng.integers(1, top, size=(n, n), endpoint=True)
        rows = rng.integers(0, top, size=(m, n), endpoint=True).astype(dtype)
    delta = np.triu(upper, 1)
    delta = (delta + delta.T).astype(dtype)
    return delta, rows, draw(st.integers(1, n - 1))


class TestBitsOfTheWholeArrayFormulas:
    @settings(max_examples=60, deadline=None)
    @given(dissimilarity_blocks())
    def test_fit_and_out_of_sample(self, case):
        delta, rows, p = case
        model = mds_fit(delta, p)
        expected = whole_array_mds_fit(delta, p)
        for name in ("embedding", "eigenvalues", "row_means"):
            assert getattr(model, name).tobytes() == getattr(expected, name).tobytes()
        assert model.grand_mean == expected.grand_mean
        coords = mds_out_of_sample(model, rows)
        assert coords.tobytes() == whole_array_out_of_sample(expected, rows).tobytes()
        single = whole_array_out_of_sample(expected, rows[0])[0]
        assert mds_out_of_sample(model, rows[0]).tobytes() == single.tobytes()


class TestFidelityError:
    def test_exact_embedding_zero(self):
        rng = np.random.default_rng(71)
        points = rng.normal(size=(10, 3))
        assert fidelity_error(points, euclidean_distances(points)) < 1e-25

    def test_single_pair_arithmetic(self):
        embedding = np.array([[0.0], [1.0]])
        delta = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert fidelity_error(embedding, delta) == pytest.approx(4.0)

    @pytest.mark.parametrize("n, p", [(6, 3), (2, 4), (9, 1), (40, 5)])
    def test_matches_brute_force_oracle(self, n, p):
        rng = np.random.default_rng(72)
        embedding = rng.normal(size=(n, p))
        delta = euclidean_distances(rng.normal(size=(n, 2)))
        assert fidelity_error(embedding, delta) == pytest.approx(
            fidelity_oracle(embedding, delta), abs=1e-12
        )

    def test_matches_difference_tensor_formula(self):
        # The n x n x p difference-tensor formula.
        rng = np.random.default_rng(73)
        embedding = rng.normal(size=(30, 7))
        delta = euclidean_distances(rng.normal(size=(30, 4)))
        iu = np.triu_indices(30, k=1)
        gaps = euclidean_distances(embedding)[iu] - delta[iu]
        expected = float(np.mean(gaps * gaps))
        assert fidelity_error(embedding, delta) == pytest.approx(expected, rel=1e-12)

    def test_working_set_about_one_pair_vector(self):
        # The n(n-1)/2 gaps and their squares, with one row's differences
        # at a time: about n^2 floats, and no (n^2, p) temporary.
        n, p = 829, 100
        rng = np.random.default_rng(74)
        embedding = rng.normal(size=(n, p))
        delta = euclidean_distances(rng.normal(size=(n, 3)))
        peak, _ = traced_peak(lambda: fidelity_error(embedding, delta))
        assert peak < 1.5 * n * n * 8

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity_error(np.zeros((3, 2)), np.zeros((4, 4)))


class TestScree:
    def test_sqrt_of_eigenvalues(self):
        model = MdsModel(
            embedding=np.zeros((3, 2)),
            eigenvalues=np.array([4.0, 1.0]),
            row_means=np.zeros(3),
            grand_mean=0.0,
        )
        assert np.allclose(scree(model), [2.0, 1.0])

    def test_two_point_model(self):
        model = mds_fit(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
        assert np.allclose(scree(model), [np.sqrt(2.0)])

    def test_length_is_effective_dim(self):
        rng = np.random.default_rng(73)
        delta = euclidean_distances(rng.normal(size=(9, 2)))
        model = mds_fit(delta, 5)
        assert scree(model).shape == (model.effective_dim,)
