import numpy as np
import pytest
import scipy.linalg

from manifold_match.align import (
    AlignmentMaps,
    cca_fit,
    commensurability_error,
    gcca_fit,
    load_alignment,
    project,
    save_alignment,
)
from manifold_match.errors import ConditioningError, FormatError, ValidationError


def centered(rng, n, p, scale=1.0):
    x = scale * rng.normal(size=(n, p))
    return x - x.mean(axis=0)


def whitened_svd_correlations(x1, x2, d):
    # Independent CCA oracle: singular values of C11^-1/2 C12 C22^-1/2.
    x1 = x1 - x1.mean(axis=0)
    x2 = x2 - x2.mean(axis=0)
    c11 = x1.T @ x1
    c22 = x2.T @ x2
    c12 = x1.T @ x2
    w1 = np.linalg.inv(scipy.linalg.sqrtm(c11).real)
    w2 = np.linalg.inv(scipy.linalg.sqrtm(c22).real)
    sigma = scipy.linalg.svd(w1 @ c12 @ w2, compute_uv=False)
    return sigma[:d]


def pencil_blocks(views, ridge=0.0):
    widths = [x.shape[1] for x in views]
    offsets = np.cumsum([0] + widths)
    total = offsets[-1]
    cross = np.zeros((total, total))
    diag = np.zeros((total, total))
    for g, xg in enumerate(views):
        sg = slice(offsets[g], offsets[g + 1])
        diag[sg, sg] = xg.T @ xg
        for h in range(g + 1, len(views)):
            sh = slice(offsets[h], offsets[h + 1])
            block = xg.T @ views[h]
            cross[sg, sh] = block
            cross[sh, sg] = block.T
    return cross, diag + ridge * np.eye(total)


def eq11_energies(views, maps):
    xs = [x - x.mean(axis=0) for x in views]
    energy = np.zeros(maps.d)
    for x, u in zip(xs, maps.projections):
        z = x @ u
        energy += (z * z).sum(axis=0)
    return energy / len(xs)


class TestCcaFit:
    def test_identical_views_unit_correlations(self):
        rng = np.random.default_rng(81)
        x = centered(rng, 10, 3)
        maps = cca_fit(x, x, 2, ridge=0.0)
        assert np.allclose(maps.correlations, 1.0, atol=1e-10)

    def test_invertible_linear_image_unit_correlations(self):
        rng = np.random.default_rng(82)
        x1 = centered(rng, 12, 4)
        m = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        maps = cca_fit(x1, x1 @ m, 3, ridge=0.0)
        assert np.allclose(maps.correlations, 1.0, atol=1e-8)

    def test_correlations_invariant_to_linear_reparametrization(self):
        rng = np.random.default_rng(83)
        x1 = centered(rng, 15, 4)
        x2 = centered(rng, 15, 3)
        m = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        rho_a = cca_fit(x1, x2, 3, ridge=0.0).correlations
        rho_b = cca_fit(x1 @ m, x2, 3, ridge=0.0).correlations
        assert np.allclose(rho_a, rho_b, atol=1e-8)

    def test_matches_whitened_svd_oracle(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            x1 = centered(rng, 10, 3)
            x2 = centered(rng, 10, 3)
            maps = cca_fit(x1, x2, 3, ridge=0.0)
            assert np.allclose(
                maps.correlations, whitened_svd_correlations(x1, x2, 3), atol=1e-8
            )

    def test_eq11_normalization(self):
        rng = np.random.default_rng(85)
        x1 = centered(rng, 14, 4)
        x2 = centered(rng, 14, 5)
        maps = cca_fit(x1, x2, 3)
        assert np.allclose(eq11_energies([x1, x2], maps), 1.0, atol=1e-8)

    def test_projected_dimensions_decorrelated(self):
        rng = np.random.default_rng(86)
        x1 = centered(rng, 16, 4)
        x2 = centered(rng, 16, 4)
        maps = cca_fit(x1, x2, 4)
        z1 = x1 @ maps.projections[0]
        z2 = x2 @ maps.projections[1]
        gram = z1.T @ z1 + z2.T @ z2
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-6

    def test_training_correlation_replay(self):
        rng = np.random.default_rng(87)
        x1 = centered(rng, 12, 3)
        x2 = centered(rng, 12, 3)
        maps = cca_fit(x1, x2, 2, ridge=0.0)
        z1 = project(maps, 0, x1)
        z2 = project(maps, 1, x2)
        for col in range(2):
            rho = (z1[:, col] @ z2[:, col]) / (
                np.linalg.norm(z1[:, col]) * np.linalg.norm(z2[:, col])
            )
            assert rho == pytest.approx(maps.correlations[col], abs=1e-10)

    def test_d_too_large(self):
        rng = np.random.default_rng(88)
        with pytest.raises(ValidationError):
            cca_fit(centered(rng, 10, 3), centered(rng, 10, 4), 4)

    def test_row_count_mismatch(self):
        rng = np.random.default_rng(89)
        with pytest.raises(ValidationError):
            cca_fit(centered(rng, 10, 3), centered(rng, 11, 3), 2)

    def test_conditioning_error_on_zero_views(self):
        with pytest.raises(ConditioningError):
            cca_fit(np.zeros((8, 2)), np.zeros((8, 2)), 1, ridge=0.0)


class TestGccaFit:
    def test_identical_three_views(self):
        rng = np.random.default_rng(91)
        x = centered(rng, 12, 3)
        maps = gcca_fit([x, x, x], 3, ridge=0.0)
        assert np.allclose(maps.correlations, 1.0, atol=1e-8)

    def test_two_views_match_cca_spectrum(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            x1 = centered(rng, 12, 4)
            x2 = centered(rng, 12, 3)
            rho_g = gcca_fit([x1, x2], 3, ridge=0.0).correlations
            rho_c = cca_fit(x1, x2, 3, ridge=0.0).correlations
            assert np.allclose(rho_g, rho_c, atol=1e-8)

    def test_matches_dense_generalized_eig_oracle(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            views = [centered(rng, 14, p) for p in (3, 4, 3)]
            maps = gcca_fit(views, 3, ridge=0.0)
            cross, diag = pencil_blocks(views)
            eigenvalues = np.sort(
                scipy.linalg.eigh(cross, diag, eigvals_only=True)
            )[::-1]
            # objective eigenvalue lambda maps to rho = lambda / (K - 1)
            assert np.allclose(maps.correlations, eigenvalues[:3] / 2.0, atol=1e-8)

    def test_eq11_normalization(self):
        rng = np.random.default_rng(94)
        views = [centered(rng, 15, p) for p in (4, 3, 5)]
        maps = gcca_fit(views, 3)
        assert np.allclose(eq11_energies(views, maps), 1.0, atol=1e-8)

    def test_correlations_sorted_and_bounded(self):
        rng = np.random.default_rng(95)
        views = [centered(rng, 20, p) for p in (4, 4, 4)]
        maps = gcca_fit(views, 4)
        assert np.all(np.abs(maps.correlations) <= 1.0 + 1e-9)
        assert np.all(np.diff(maps.correlations) <= 1e-9)

    def test_requires_two_views(self):
        rng = np.random.default_rng(96)
        with pytest.raises(ValidationError):
            gcca_fit([centered(rng, 10, 3)], 2)


class TestProject:
    def test_identity_map(self):
        rng = np.random.default_rng(101)
        x = centered(rng, 9, 3)
        maps = AlignmentMaps(
            projections=(np.eye(3), np.eye(3)),
            correlations=np.array([1.0, 1.0, 1.0]),
            method="cca",
            ridge=0.0,
        )
        assert np.array_equal(project(maps, 0, x), x)

    def test_zero_row_maps_to_zero(self):
        rng = np.random.default_rng(102)
        x1 = centered(rng, 10, 3)
        x2 = centered(rng, 10, 3)
        maps = cca_fit(x1, x2, 2)
        out = project(maps, 0, np.zeros((1, 3)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(103)
        maps = cca_fit(centered(rng, 10, 3), centered(rng, 10, 4), 2)
        with pytest.raises(ValidationError):
            project(maps, 1, np.zeros((2, 3)))

    def test_view_index_range(self):
        rng = np.random.default_rng(104)
        maps = cca_fit(centered(rng, 10, 3), centered(rng, 10, 3), 2)
        with pytest.raises(ValidationError):
            project(maps, 2, np.zeros((2, 3)))


class TestCommensurabilityError:
    def test_equal_projections(self):
        rng = np.random.default_rng(111)
        a = rng.normal(size=(6, 3))
        assert commensurability_error(a, a) == 0.0

    def test_single_pair_arithmetic(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 0.0]])
        assert commensurability_error(a, b) == pytest.approx(9.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(112)
        a = rng.normal(size=(8, 4))
        b = rng.normal(size=(8, 4))
        oracle = sum(
            np.linalg.norm(a[i] - b[i]) ** 2 for i in range(8)
        ) / 8
        assert commensurability_error(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            commensurability_error(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_decreases_with_alignment_quality(self):
        # noisier second view -> larger matched-pair error after alignment
        rng = np.random.default_rng(113)
        x = centered(rng, 40, 3)
        errors = []
        for noise in (0.01, 0.3, 1.5):
            y = x + noise * rng.normal(size=x.shape)
            maps = cca_fit(x, y, 2)
            errors.append(
                commensurability_error(project(maps, 0, x), project(maps, 1, y))
            )
        assert errors[0] < errors[1] < errors[2]

    def test_tracks_leading_correlation_over_noise_grid(self):
        # over a noise grid of synthetic corpora, higher leading correlation
        # goes with lower matched-pair error (negative rank correlation)
        from manifold_match.corpus import synthesize_corpus
        from manifold_match.dissimilarity import cosine_dissimilarity
        from manifold_match.mds import mds_fit

        rhos, errors = [], []
        for noise in (0.0, 0.3, 0.6, 1.0, 1.5, 2.5):
            corpus = synthesize_corpus(21, 80, 2, 4, noise)
            views = [
                mds_fit(cosine_dissimilarity(d.features), 4).embedding
                for d in corpus.domains
            ]
            d = min(3, min(v.shape[1] for v in views))
            maps = cca_fit(views[0], views[1], d)
            rhos.append(maps.correlations[0])
            errors.append(
                commensurability_error(
                    project(maps, 0, views[0] - views[0].mean(axis=0)),
                    project(maps, 1, views[1] - views[1].mean(axis=0)),
                )
            )
        rho_ranks = np.argsort(np.argsort(rhos))
        err_ranks = np.argsort(np.argsort(errors))
        spearman = np.corrcoef(rho_ranks, err_ranks)[0, 1]
        assert spearman < 0.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(121)
        views = [centered(rng, 12, p) for p in (3, 4, 3)]
        maps = gcca_fit(views, 2)
        save_alignment(maps, tmp_path / "maps")
        back = load_alignment(tmp_path / "maps")
        assert back.method == maps.method
        assert back.K == maps.K and back.d == maps.d
        assert back.ridge == maps.ridge
        assert np.array_equal(back.correlations, maps.correlations)
        for u1, u2 in zip(back.projections, maps.projections):
            assert np.array_equal(u1, u2)

    @pytest.mark.parametrize(
        "meta",
        ["{", '{"method": "gcca", "d": 2, "ridge": 0.0}', '{"K": 3, "d": 2, "ridge": 0.0}'],
        ids=["truncated", "missing_K", "missing_method"],
    )
    def test_malformed_meta_is_format_error(self, tmp_path, meta):
        rng = np.random.default_rng(122)
        save_alignment(gcca_fit([centered(rng, 12, 3) for _ in range(3)], 2), tmp_path)
        (tmp_path / "meta.json").write_text(meta)
        with pytest.raises(FormatError, match="meta.json"):
            load_alignment(tmp_path)

    def test_correlation_order_validated(self):
        with pytest.raises(ValidationError):
            AlignmentMaps(
                projections=(np.eye(2), np.eye(2)),
                correlations=np.array([0.5, 0.9]),
                method="cca",
                ridge=0.0,
            )

    def test_correlation_range_validated(self):
        with pytest.raises(ValidationError):
            AlignmentMaps(
                projections=(np.eye(2), np.eye(2)),
                correlations=np.array([1.5, 0.9]),
                method="cca",
                ridge=0.0,
            )
