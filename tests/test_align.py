import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from manifold_match.align import (
    AlignmentMaps,
    cca_fit,
    commensurability_error,
    gcca_fit,
    load_alignment,
    project,
    save_alignment,
)
from manifold_match.cli import main
from manifold_match.corpus import synthesize_corpus
from manifold_match.dissimilarity import cosine_dissimilarity, graph_geodesic
from manifold_match.errors import ConditioningError, FormatError, ValidationError
from manifold_match.experiment import ExperimentConfig, ViewSpec, run_experiment
from manifold_match.formats import write_matrix
from manifold_match.mds import MdsModel, mds_fit


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

    @pytest.mark.parametrize("ridge", [1e-3, 1.0])
    def test_training_correlation_replay_with_ridge(self, ridge):
        # The ridge makes the two views' projected energies unequal; the
        # reported value is still the cosine of the projected views.
        rng = np.random.default_rng(87)
        x1 = centered(rng, 12, 3)
        x2 = centered(rng, 12, 3)
        maps = cca_fit(x1, x2, 2, ridge=ridge)
        z1 = project(maps, 0, x1)
        z2 = project(maps, 1, x2)
        norms1 = np.linalg.norm(z1, axis=0)
        norms2 = np.linalg.norm(z2, axis=0)
        assert not np.allclose(norms1, norms2, rtol=1e-6)
        rho = (z1 * z2).sum(axis=0) / (norms1 * norms2)
        assert np.allclose(rho, maps.correlations, atol=1e-10)

    def test_d_too_large(self):
        rng = np.random.default_rng(88)
        with pytest.raises(ValidationError):
            cca_fit(centered(rng, 10, 3), centered(rng, 10, 4), 4)

    def test_d_above_rows_less_one(self):
        # Three rows are narrower than their width of 4: d = 3 needs a fourth.
        rng = np.random.default_rng(90)
        message = r"^shared dimension d must be an integer in \[1, 2\], got 3$"
        with pytest.raises(ValidationError, match=message):
            cca_fit(centered(rng, 3, 4), centered(rng, 3, 4), 3)

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


@st.composite
def latent_views_and_maps(draw):
    # Two or three views of one latent signal, whose columns have distinct
    # strengths so the canonical correlations are usually well separated,
    # plus a well-conditioned invertible map per view (condition <= e^2).
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 30))
    widths = draw(st.lists(st.integers(3, 5), min_size=2, max_size=3))
    latent = rng.normal(size=(n, 3)) * [3.0, 1.5, 0.7]
    views, maps = [], []
    for p in widths:
        x = latent @ rng.normal(size=(3, p)) + 0.5 * rng.normal(size=(n, p))
        views.append(x - x.mean(axis=0))
        q1, _ = np.linalg.qr(rng.normal(size=(p, p)))
        q2, _ = np.linalg.qr(rng.normal(size=(p, p)))
        maps.append(q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, size=p))) @ q2)
    return views, maps


class TestSharedSolver:
    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_ridge(self, ridge):
        rng = np.random.default_rng(97)
        x1, x2 = centered(rng, 10, 3), centered(rng, 10, 3)
        with pytest.raises(ValidationError, match="ridge"):
            cca_fit(x1, x2, 2, ridge=ridge)
        with pytest.raises(ValidationError, match="ridge"):
            gcca_fit([x1, x2, x1], 2, ridge=ridge)

    @pytest.mark.parametrize("fit", [
        lambda d: cca_fit(np.empty((0, 3)), np.empty((0, 3)), d),
        lambda d: gcca_fit([np.empty((0, 3))] * 3, d),
    ], ids=["cca", "gcca"])
    def test_views_without_rows_are_refused_before_centring(self, fit):
        # Centring them first warned twice (a mean of no rows, then 0/0),
        # which the suite's warnings-as-errors turns into a failure.
        message = r"^shared dimension d must be an integer in \[1, -1\], got 1$"
        with pytest.raises(ValidationError, match=message):
            fit(1)

    def test_duplicated_column_leaves_correlations_unchanged(self):
        # An exactly rank-deficient view at ridge 0: its zero singular value
        # is dropped, so the fit equals the one on the full-rank view.
        rng = np.random.default_rng(98)
        for _ in range(10):
            x1, x2, x3 = (centered(rng, 14, p) for p in (3, 4, 3))
            dup = np.hstack([x2, x2[:, :1]])
            assert np.allclose(
                cca_fit(x1, dup, 3, ridge=0.0).correlations,
                cca_fit(x1, x2, 3, ridge=0.0).correlations,
                atol=1e-8,
            )
            assert np.allclose(
                gcca_fit([x1, dup, x3], 3, ridge=0.0).correlations,
                gcca_fit([x1, x2, x3], 3, ridge=0.0).correlations,
                atol=1e-8,
            )

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_rank_below_shared_dimension_is_conditioning_error(self, ridge):
        # Two rank-1 views of width 3 share one correlated direction; the
        # second of d = 2 dimensions would be anticorrelated.
        rng = np.random.default_rng(100)
        a = rng.standard_normal(12)
        b = a + 0.5 * rng.standard_normal(12)
        x1 = np.outer(a - a.mean(), rng.standard_normal(3))
        x2 = np.outer(b - b.mean(), rng.standard_normal(3))
        with pytest.raises(ConditioningError, match="shared dimension 2"):
            cca_fit(x1, x2, 2, ridge=ridge)
        with pytest.raises(ConditioningError, match="shared dimension 2"):
            gcca_fit([x1, x2], 2, ridge=ridge)
        assert cca_fit(x1, x2, 1, ridge=ridge).correlations[0] > 0.5

    @pytest.mark.parametrize("ridge", [1e-3, 1.0])
    def test_ridge_solves_loaded_pencil(self, ridge):
        # Each stacked map column is an eigenvector of the dense pencil
        # (cross, diag + ridge*I), for one of its d leading eigenvalues.
        rng = np.random.default_rng(99)
        for _ in range(10):
            views = [centered(rng, 14, p) for p in (3, 4, 3)]
            maps = gcca_fit(views, 3, ridge=ridge)
            cross, loaded = pencil_blocks(views, ridge)
            leading = np.sort(scipy.linalg.eigh(cross, loaded, eigvals_only=True))[::-1][:3]
            quotients = []
            for u in np.vstack(maps.projections).T:
                quotient = (u @ cross @ u) / (u @ loaded @ u)
                lam = leading[np.argmin(np.abs(leading - quotient))]
                residual = np.linalg.norm(cross @ u - lam * (loaded @ u))
                scale = np.linalg.norm(cross @ u) + abs(lam) * np.linalg.norm(loaded @ u)
                assert residual <= 1e-8 * scale
                quotients.append(quotient)
            assert np.allclose(np.sort(quotients)[::-1], leading, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(latent_views_and_maps())
    def test_invariant_to_invertible_linear_map_per_view(self, case):
        views, maps = case
        moved = [x @ m for x, m in zip(views, maps)]
        fits = [
            lambda vs, d: cca_fit(vs[0], vs[1], d, ridge=0.0),
            lambda vs, d: gcca_fit(vs, d, ridge=0.0),
        ]
        for fit in fits:
            # Coordinates are only determined where the spectrum is separated.
            spectrum = fit(views, 3).correlations
            assume(np.all(np.diff(-spectrum) > 1e-2))
            before, after = fit(views, 2), fit(moved, 2)
            assert np.allclose(before.correlations, after.correlations, atol=1e-8)
            for g in range(after.K):
                z = project(before, g, views[g])
                z_moved = project(after, g, moved[g])
                signs = np.sign((z * z_moved).sum(axis=0))
                assert np.allclose(z_moved * signs, z, atol=1e-6)


@st.composite
def mds_views(draw):
    # MDS fits of two or three views of one latent signal of rank 1 to 4.
    # City-block distances are non-Euclidean; a noiseless view's effective
    # dimension falls short of a request above the latent rank; views wider
    # together than n - 1 make the stacked system rank-deficient; and views
    # drowned in noise share correlations near zero.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 24))
    rank = draw(st.integers(1, 4))
    latent = rng.normal(size=(n, rank)) * np.array([3.0, 1.5, 0.7, 0.3])[:rank]
    models = []
    for _ in range(draw(st.integers(2, 3))):
        width = draw(st.integers(1, 5))
        noise = draw(st.sampled_from([0.0, 0.3, 30.0]))
        points = latent @ rng.normal(size=(rank, width)) + noise * rng.normal(size=(n, width))
        diff = points[:, None, :] - points[None, :, :]
        if draw(st.booleans()):
            delta = np.sqrt((diff * diff).sum(axis=-1))
        else:
            delta = np.abs(diff).sum(axis=-1)
        models.append(mds_fit(delta, draw(st.integers(1, min(width + 3, n - 1)))))
    d = draw(st.integers(1, min(m.effective_dim for m in models)))
    return models, d


def fit(method, views, d, ridge):
    if method == "cca":
        return cca_fit(views[0], views[1], d, ridge=ridge)
    return gcca_fit(views, d, ridge=ridge)


def wider_spectrum(method, views, d, ridge):
    """Correlations of the fit one dimension wider, where there is one."""
    try:
        return fit(method, views, d + 1, ridge).correlations
    except (ConditioningError, ValidationError):
        return fit(method, views, d, ridge).correlations


def assert_same_fit(factored, plain, spectrum):
    assert np.allclose(factored.correlations, plain.correlations, rtol=0.0, atol=1e-9)
    # A map is determined only where its correlation is apart from its
    # neighbours' in the spectrum; past its end the gap is unknown.
    gaps = -np.diff(spectrum)
    apart = np.minimum(np.append(np.inf, gaps), np.append(gaps, 0.0))[: plain.d] > 1e-3
    for l in np.flatnonzero(apart):
        u = np.concatenate([m[:, l] for m in plain.projections])
        v = np.concatenate([m[:, l] for m in factored.projections])
        assert np.linalg.norm(v - u) <= 1e-8 * np.linalg.norm(u)


class TestFactoredWhitening:
    @settings(max_examples=150, deadline=None)
    @given(
        mds_views(),
        st.sampled_from(["cca", "gcca"]),
        st.sampled_from([None, 0.0, 1e-3, 1.0]),
    )
    def test_mds_fits_align_as_their_embeddings(self, case, method, ridge):
        models, d = case
        if method == "cca":
            d = min(d, models[0].effective_dim, models[1].effective_dim)
        # The embeddings take the SVD path, the MDS fits the factored one.
        views = [m.embedding for m in models]
        try:
            plain = fit(method, views, d, ridge)
        except ConditioningError:
            # Too few positively correlated dimensions: both paths refuse.
            with pytest.raises(ConditioningError):
                fit(method, models, d, ridge)
            return
        spectrum = wider_spectrum(method, views, d, ridge)
        assert_same_fit(fit(method, models, d, ridge), plain, spectrum)

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["cca", "gcca"]),
        st.sampled_from([None, 0.0, 1e-3]),
    )
    def test_text_view_beside_wide_graph_views(self, seed, method, ridge):
        # The shape of the largest benchmark fit: two geodesic views about
        # 175 wide and a cosine view about 6 wide, at d = 6.
        corpus = synthesize_corpus(seed, 324, 2, 5, 0.8)
        n = corpus.n_total
        graph = [graph_geodesic(domain.edges, n) for domain in corpus.domains]
        models = [mds_fit(delta, 175) for delta in graph]
        models.append(mds_fit(cosine_dissimilarity(corpus.domains[1].features), 175))
        if method == "cca":
            models = [models[2], models[0]]
        d = min(6, *(m.effective_dim for m in models))
        views = [m.embedding for m in models]
        plain = fit(method, views, d, ridge)
        spectrum = wider_spectrum(method, views, d, ridge)
        assert_same_fit(fit(method, models, d, ridge), plain, spectrum)

    def test_working_set_of_the_largest_benchmark_fit(self):
        # The 3-view fit of an S = 90 % replicate on 360 relation objects:
        # MDS at 200 dimensions gives views about 174, 173 and 6 wide. Kept
        # until the end of the fit, the stacked bases, their Gram matrix and
        # the shrink diagonal held 5.2 MB; one of them at a time, 3.4 MB.
        # Since the 353 x 353 Gram matrix is factored in place, beside
        # LAPACK's workspace of about 2 MB that numpy allocates, the bound
        # covers the whole working set: 3.97 MB traced at the factorization.
        # np.linalg.eigh's copy of the matrix, its vectors and its workspace
        # made that step about 6.4 MB, of which 3.4 MB was traced. A dense
        # diagonal back-map per view (an identity's kept columns over w)
        # added 0.48 MB, 4.44 MB in all, where a row scaling does.
        corpus = synthesize_corpus(0, 324, 2, 5, 0.8)
        n = corpus.n_total
        deltas = [graph_geodesic(domain.edges, n) for domain in corpus.domains]
        deltas.append(cosine_dissimilarity(corpus.domains[1].features))
        models = [mds_fit(delta, 200) for delta in deltas]
        assert [m.effective_dim for m in models] == [174, 173, 6]
        gcca_fit(models, 6)
        peak, _ = traced_peak(lambda: gcca_fit(models, 6))
        assert peak < 4.2e6


class TestWhiteningScope:
    """An experiment aligns MDS fits without an SVD; arrays keep it."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @pytest.mark.parametrize("method", ["cca", "gcca"])
    def test_experiment_makes_no_svd(self, svd_calls, method):
        config = ExperimentConfig(
            views=(
                ViewSpec("GE", "domain0", "graph"),
                ViewSpec("GF", "domain1", "graph"),
                ViewSpec("TF", "domain1", "text"),
            ),
            combinations=("GF->GE", "TF->GE"),
            relation_classes=(0, 2, 4),
            classifier_classes=(1, 3),
            method=method,
            shared_dim=2,
            kappa=3,
            replicates=2,
            seed=5,
            schedule=((0.5, 6), (1.0, 6)),
            feature="synthetic",
        )
        run_experiment(config, corpus=synthesize_corpus(31, 120, 2, 5, 0.8))
        assert svd_calls == []

    def test_arrays_keep_the_svd(self, svd_calls):
        rng = np.random.default_rng(131)
        views = [centered(rng, 12, p) for p in (3, 4, 3)]
        cca_fit(views[0], views[1], 2)
        assert svd_calls == [(12, 3), (12, 4)]
        svd_calls.clear()
        gcca_fit(views, 2)
        assert svd_calls == [(12, 3), (12, 4), (12, 3)]

    def test_hand_built_models_keep_the_svd(self, svd_calls):
        # Only mds_fit's models are known to have orthogonal columns; a
        # general embedding in an MdsModel aligns as the array does.
        rng = np.random.default_rng(133)
        x1, x2 = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        models = [MdsModel(x, np.ones(3), np.zeros(20), 0.0) for x in (x1, x2)]
        plain = cca_fit(x1, x2, 2)
        svd_calls.clear()
        built = cca_fit(*models, 2)
        assert svd_calls == [(20, 3), (20, 3)]
        assert np.array_equal(built.correlations, plain.correlations)
        for u, v in zip(built.projections, plain.projections):
            assert np.array_equal(u, v)

    def test_align_command_keeps_the_svd(self, svd_calls, tmp_path):
        rng = np.random.default_rng(132)
        paths = [tmp_path / f"e{k}.tsv" for k in range(3)]
        for path in paths:
            write_matrix(rng.normal(size=(10, 3)), path)
        argv = ["align", *map(str, paths), "--method", "gcca", "--dim", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(svd_calls) == 3


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
        from manifold_match.mds import MdsModel, mds_fit

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

    @pytest.mark.parametrize("field, value", [
        ("K", 2.7),
        ("K", "2"),
        ("K", True),
        ("method", 5),
        ("method", ["cca"]),
        ("method", "pls"),
        ("ridge", "1e-3"),
        ("ridge", True),
        ("d", None),
        ("d", "2"),
        ("d", ...),
    ], ids=["K-float", "K-string", "K-bool", "method-int", "method-list", "method-unknown",
            "ridge-string", "ridge-bool", "d-null", "d-string", "d-missing"])
    def test_meta_field_of_another_type_names_file_and_field(self, tmp_path, field, value):
        # Nothing is coerced: K 2.7 would read two of three views, true one.
        # A value of ... stands for the field deleted.
        rng = np.random.default_rng(123)
        save_alignment(gcca_fit([centered(rng, 12, 3) for _ in range(3)], 2), tmp_path)
        path = tmp_path / "meta.json"
        meta = {**json.loads(path.read_text()), field: value}
        path.write_text(json.dumps({key: v for key, v in meta.items() if v is not ...}))
        with pytest.raises(FormatError, match=f"meta.json: missing or malformed field '{field}'"):
            load_alignment(tmp_path)

    @pytest.mark.parametrize("projections, correlations, method", [
        ((np.eye(2), np.ones((3, 5))), [0.9, 0.5], "gcca"),
        ((np.eye(2),), [0.9, 0.5], "gcca"),
        ((), [], "gcca"),
        ((np.ones(2), np.ones(2)), [0.9], "gcca"),
        ((np.ones((2, 0)), np.ones((2, 0))), [], "gcca"),
        ((np.eye(2), np.eye(2), np.eye(2)), [0.9, 0.5], "cca"),
        ((np.eye(2), np.eye(2)), [0.9, 0.5, 0.1], "gcca"),
        ((np.eye(2), np.eye(2)), [0.9], "cca"),
    ], ids=["widths-differ", "one-view", "no-views", "one-dimensional", "no-columns",
            "cca-of-three", "correlations-too-many", "correlations-too-few"])
    def test_maps_that_disagree_with_themselves_rejected(self, projections, correlations, method):
        with pytest.raises(ValidationError, match="projections|correlations"):
            AlignmentMaps(projections, np.array(correlations), method, 0.0)

    @pytest.mark.parametrize("edit", [
        lambda out: write_matrix(np.array([[0.9], [0.5], [0.1]]), out / "correlations.tsv"),
        lambda out: write_matrix(np.ones((3, 3)), out / "U_2.tsv"),
        lambda out: (out / "meta.json").write_text(
            json.dumps({**json.loads((out / "meta.json").read_text()), "K": 0})),
        lambda out: (out / "meta.json").write_text(
            json.dumps({**json.loads((out / "meta.json").read_text()), "d": 3})),
    ], ids=["three-correlations-for-d-2", "U_2-wider", "K-0", "d-3-for-d-2"])
    def test_maps_that_disagree_are_a_format_error_naming_the_directory(self, tmp_path, edit):
        rng = np.random.default_rng(124)
        out = tmp_path / "maps"
        save_alignment(cca_fit(centered(rng, 12, 3), centered(rng, 12, 3), 2), out)
        edit(out)
        with pytest.raises(FormatError, match=f"^{out}: "):
            load_alignment(out)

    @pytest.mark.parametrize("name, what", [
        ("U_1.tsv", "view 0 projections"), ("U_2.tsv", "view 1 projections"),
        ("correlations.tsv", "correlations"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_maps_holding_non_finite_values_are_a_format_error(self, tmp_path, name, what, value):
        # The text no longer matches its twin, so it is parsed.
        rng = np.random.default_rng(125)
        out = tmp_path / "maps"
        save_alignment(cca_fit(centered(rng, 12, 3), centered(rng, 12, 3), 2), out)
        path = out / name
        path.write_text(re.sub(r"^[^\t\n]+", value, path.read_text()))
        with pytest.raises(FormatError, match=f"^{out}: {what} contain non-finite entries$"):
            load_alignment(out)

    def test_two_column_correlations_file_names_it(self, tmp_path):
        rng = np.random.default_rng(126)
        save_alignment(cca_fit(centered(rng, 12, 3), centered(rng, 12, 3), 2), tmp_path)
        write_matrix(np.array([[0.9, 0.9], [0.5, 0.5]]), tmp_path / "correlations.tsv")
        message = f"^{tmp_path / 'correlations.tsv'}: expected one value per line$"
        with pytest.raises(FormatError, match=message):
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
