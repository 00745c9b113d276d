import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manifold_match import classify
from manifold_match.classify import (
    LabeledEmbedding,
    average_views,
    knn_predict,
    loo_cross_view_accuracy,
)
from manifold_match.errors import IntegrityError, ValidationError


def oracle_predict(points, labels, query, kappa):
    # Brute-force full sort; assumes no distance or vote ties.
    dist = np.linalg.norm(points - query, axis=1)
    nearest = labels[np.argsort(dist)[:kappa]]
    values, counts = np.unique(nearest, return_counts=True)
    assert counts.max() > kappa // 2, "oracle needs a strict majority"
    return int(values[np.argmax(counts)])


def vote_oracle(labels, distances):
    # Majority vote; ties broken by smallest mean distance among the tied
    # classes, then by smallest class id.
    classes, counts = np.unique(labels, return_counts=True)
    top = counts.max()
    tied = classes[counts == top]
    if tied.size == 1:
        return int(tied[0])
    best = None
    for cls in tied:
        mean_dist = float(distances[labels == cls].mean())
        key = (mean_dist, int(cls))
        if best is None or key < best:
            best = key
    return best[1]


def left_to_right_norm(diffs):
    # Euclidean norm over the last axis, the squares added one coordinate at
    # a time, left to right.
    total = np.zeros(diffs.shape[:-1])
    for k in range(diffs.shape[-1]):
        total += diffs[..., k] * diffs[..., k]
    return np.sqrt(total)


def knn_oracle(train, query, kappa, leave_out=None):
    # One query at a time: full distance row, stable sort, per-query vote.
    # The distances sum as the kernel's do, so a near-tie at the rounding
    # level cannot split them.
    distances = left_to_right_norm(train.points - query)
    if leave_out is not None:
        distances[leave_out] = np.inf
    nearest = np.argsort(distances, kind="stable")[:kappa]
    return vote_oracle(train.labels[nearest], distances[nearest])


def two_blob_embedding(rng, per_class=20, spread=0.3, gap=10.0, d=3):
    a = rng.normal(scale=spread, size=(per_class, d))
    b = rng.normal(scale=spread, size=(per_class, d))
    b[:, 0] += gap
    points = np.vstack([a, b])
    labels = np.array([0] * per_class + [1] * per_class)
    return LabeledEmbedding(points, labels, "blobs")


class TestKnnPredict:
    def test_single_training_point(self):
        train = LabeledEmbedding(np.array([[1.0, 2.0]]), np.array([3]), "t")
        assert knn_predict(train, np.array([9.0, 9.0]), 1) == 3

    def test_exact_match_wins_at_kappa_one(self):
        train = LabeledEmbedding(
            np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), np.array([0, 1, 2]), "t"
        )
        assert knn_predict(train, np.array([5.0, 0.0]), 1) == 1

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(131)
        train = two_blob_embedding(rng, per_class=15, spread=2.0, gap=1.5)
        for _ in range(100):
            query = rng.normal(scale=2.0, size=3)
            query[0] += rng.uniform(0, 1.5)
            assert knn_predict(train, query, 5) == oracle_predict(
                train.points, train.labels, query, 5
            )

    def test_invariant_under_rigid_motion(self):
        rng = np.random.default_rng(133)
        train = two_blob_embedding(rng, per_class=10)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = LabeledEmbedding(train.points @ rotation + shift, train.labels, "t")
        for _ in range(50):
            query = rng.normal(size=3) * 3
            assert knn_predict(train, query, 5) == knn_predict(
                moved, query @ rotation + shift, 5
            )

    def test_vote_tie_broken_by_mean_distance(self):
        # kappa=4, two votes each; class 1's neighbors are closer on average
        train = LabeledEmbedding(
            np.array([[1.0], [5.0], [2.0], [3.0]]),
            np.array([0, 0, 1, 1]),
            "t",
        )
        assert knn_predict(train, np.array([0.0]), 4) == 1

    def test_vote_tie_equal_distance_smallest_class(self):
        train = LabeledEmbedding(
            np.array([[1.0], [-1.0]]), np.array([7, 2]), "t"
        )
        assert knn_predict(train, np.array([0.0]), 2) == 2

    def test_vote_tie_means_add_in_distance_order(self):
        # Both classes' distances sum to 4.6 when added in distance order;
        # numpy's pairwise sum over a zero-padded row of 8 would not tie.
        train = LabeledEmbedding(
            np.array([[0.4], [0.5], [0.8], [1.0], [1.0], [1.8], [1.8], [1.9]]),
            np.array([0, 0, 1, 1, 1, 1, 0, 0]),
            "t",
        )
        query = np.array([0.0])
        assert knn_predict(train, query, 8) == knn_oracle(train, query, 8) == 0

    def test_majority_wins_when_distances_overflow(self):
        train = LabeledEmbedding(np.array([[1e160], [1e160], [1e160]]), np.array([2, 7, 7]), "t")
        with np.errstate(over="ignore"):
            assert knn_predict(train, np.array([-1e160]), 3) == 7

    def test_zero_width_points_take_the_first_rows(self):
        # With no coordinates every distance is 0, so the neighbors are the
        # first kappa rows and a vote tie goes to the smallest class id.
        train = LabeledEmbedding(np.zeros((4, 0)), np.array([1, 0, 0, 1]), "t")
        assert [knn_predict(train, np.zeros(0), k) for k in (1, 2, 3, 4)] == [1, 0, 0, 0]

    def test_kappa_validation(self):
        train = LabeledEmbedding(np.zeros((3, 2)), np.array([0, 1, 0]), "t")
        with pytest.raises(ValidationError):
            knn_predict(train, np.zeros(2), 0)
        with pytest.raises(ValidationError):
            knn_predict(train, np.zeros(2), 4)

    def test_query_shape_validation(self):
        train = LabeledEmbedding(np.zeros((3, 2)), np.array([0, 1, 0]), "t")
        with pytest.raises(ValidationError):
            knn_predict(train, np.zeros(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        train = LabeledEmbedding(np.eye(2), np.array([0, 1]), "t")
        with pytest.raises(ValidationError, match="non-finite"):
            knn_predict(train, np.array([bad, 0.0]), 1)

    def test_non_integer_kappa_rejected(self):
        train = LabeledEmbedding(np.zeros((3, 2)), np.array([0, 1, 0]), "t")
        with pytest.raises(ValidationError, match="kappa"):
            knn_predict(train, np.zeros(2), 1.5)

    def test_bool_kappa_rejected(self):
        # True is an Integral; like the config, the kernel does not take it
        # for the integer 1.
        train = LabeledEmbedding(np.zeros((3, 3)), np.array([0, 1, 0]), "t")
        with pytest.raises(ValidationError, match="kappa"):
            knn_predict(train, np.zeros(3), True)


class TestLooCrossViewAccuracy:
    def test_separable_same_view_perfect(self):
        rng = np.random.default_rng(141)
        view = two_blob_embedding(rng)
        assert loo_cross_view_accuracy(view, view, 5) == 1.0

    def test_permuted_labels_near_class_prior(self):
        rng = np.random.default_rng(142)
        view = two_blob_embedding(rng, per_class=200)
        permuted_labels = view.labels[rng.permutation(len(view))]
        noisy = LabeledEmbedding(view.points, permuted_labels, "null")
        accuracy = loo_cross_view_accuracy(noisy, noisy, 5)
        # three binomial sigmas around the 0.5 prior for m = 400
        assert abs(accuracy - 0.5) <= 3 * np.sqrt(0.25 / 400)

    def test_six_point_hand_computed(self):
        # 1-D, labels 0,0,0,1,1,1, kappa=3. Only index 3 is misclassified:
        # its neighbors are 2 (label 0), 4 (label 1), 1 (label 0).
        view = LabeledEmbedding(
            np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]),
            np.array([0, 0, 0, 1, 1, 1]),
            "hand",
        )
        assert loo_cross_view_accuracy(view, view, 3) == pytest.approx(5.0 / 6.0)

    def test_matches_per_query_knn_predict(self):
        rng = np.random.default_rng(143)
        train = two_blob_embedding(rng, per_class=12, spread=2.0, gap=1.0)
        test = LabeledEmbedding(
            train.points + 0.1 * rng.normal(size=train.points.shape),
            train.labels,
            "other",
        )
        correct = 0
        for i in range(len(train)):
            keep = np.arange(len(train)) != i
            reduced = LabeledEmbedding(train.points[keep], train.labels[keep], "t")
            if knn_predict(reduced, test.points[i], 5) == test.labels[i]:
                correct += 1
        assert loo_cross_view_accuracy(train, test, 5) == pytest.approx(
            correct / len(train)
        )

    def test_exact_error_fraction(self):
        rng = np.random.default_rng(144)
        view = two_blob_embedding(rng, per_class=16)
        accuracy = loo_cross_view_accuracy(view, view, 5)
        assert accuracy == pytest.approx(1.0 - round((1.0 - accuracy) * 32) / 32)

    def test_zero_width_points_take_the_first_other_rows(self):
        # Query i's neighbors are the first kappa rows other than i: at
        # kappa 2, rows 1 and 2 tie their vote and pick class 0, row 0 sees
        # two 0s and row 3 a tie.
        view = LabeledEmbedding(np.zeros((4, 0)), np.array([1, 0, 0, 1]), "t")
        assert [loo_cross_view_accuracy(view, view, k) for k in (1, 2, 3)] == [
            0.25, 0.5, 0.0,
        ]

    def test_peak_memory_stays_far_below_an_m_squared_p_temporary(self):
        # At paper scale an (m, m, p) array of differences would take
        # 553 * 553 * 15 * 8 bytes = 36.7 MB.
        rng = np.random.default_rng(149)
        m, p = 553, 15
        train = LabeledEmbedding(rng.normal(size=(m, p)), rng.integers(0, 2, size=m), "a")
        test = LabeledEmbedding(train.points + rng.normal(size=(m, p)), train.labels, "b")
        tracemalloc.start()
        try:
            loo_cross_view_accuracy(train, test, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(145)
        a = two_blob_embedding(rng)
        b = LabeledEmbedding(a.points, a.labels[::-1].copy(), "b")
        with pytest.raises(IntegrityError):
            loo_cross_view_accuracy(a, b, 5)

    def test_kappa_upper_bound_is_m_minus_one(self):
        rng = np.random.default_rng(146)
        view = two_blob_embedding(rng, per_class=3)
        loo_cross_view_accuracy(view, view, 5)  # m-1 = 5 is allowed
        with pytest.raises(ValidationError):
            loo_cross_view_accuracy(view, view, 6)

    def test_non_integer_kappa_rejected(self):
        rng = np.random.default_rng(147)
        view = two_blob_embedding(rng, per_class=3)
        with pytest.raises(ValidationError, match="kappa"):
            loo_cross_view_accuracy(view, view, 1.5)

    def test_bool_kappa_rejected(self):
        rng = np.random.default_rng(148)
        view = two_blob_embedding(rng, per_class=3)
        with pytest.raises(ValidationError, match="kappa"):
            loo_cross_view_accuracy(view, view, True)


def grid_embedding(rng, m, p, tag):
    # Integer and half-integer coordinates in a small box: duplicate points,
    # many equal distances and many tied votes.
    points = rng.integers(0, 4, size=(m, p)) / rng.choice([1.0, 2.0])
    return LabeledEmbedding(points, rng.choice([0, 3, 7, 1000], size=m), tag)


class TestKernelMatchesPerQueryOracle:
    # The kernel must reproduce the per-query loop bit for bit, ties
    # included, whatever the block size.
    @pytest.mark.parametrize("block_floats", [1, 1000, classify._BLOCK_FLOATS])
    def test_tie_heavy_grid(self, monkeypatch, block_floats):
        monkeypatch.setattr(classify, "_BLOCK_FLOATS", block_floats)
        rng = np.random.default_rng(161)
        for p in (1, 2, 3, 9):
            train = grid_embedding(rng, 40, p, "train")
            other = grid_embedding(rng, 40, p, "other")
            test = LabeledEmbedding(other.points, train.labels, "test")
            for kappa in range(1, 16):
                for view in (train, test):
                    expected = [
                        knn_oracle(train, view.points[i], kappa, leave_out=i)
                        for i in range(len(train))
                    ]
                    predicted = classify._knn(
                        train.points, train.labels, view.points, kappa, True
                    )
                    assert predicted.tolist() == expected
                    assert loo_cross_view_accuracy(train, view, kappa) == (
                        np.count_nonzero(np.array(expected) == train.labels) / len(train)
                    )
                for query in other.points:
                    assert knn_predict(train, query, kappa) == knn_oracle(
                        train, query, kappa
                    )


@st.composite
def kernel_cases(draw):
    # A training view and one query per training row: continuous
    # coordinates; a small integer grid, whose equal distances straddle the
    # kappa-th neighbor; or rows scaled to 1e160, whose squared differences
    # overflow to inf distances.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 24))
    p = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["continuous", "grid", "overflow"]))
    if kind == "continuous":
        points, queries = rng.normal(size=(2, m, p))
    elif kind == "grid":
        points, queries = rng.integers(0, 3, size=(2, m, p)).astype(float)
    else:
        points, queries = rng.normal(size=(2, m, p)) * rng.choice([1.0, 1e160], size=(2, m, 1))
    labels = rng.integers(0, draw(st.integers(1, 4)), size=m)
    return LabeledEmbedding(points, labels, kind), queries


def spy_on_full_sort(monkeypatch):
    """Record the row count of each block the kernel sorts whole."""
    rows = []
    full_sort = classify._stable_prefix

    def spy(dist, kappa):
        rows.append(dist.shape[0])
        return full_sort(dist, kappa)

    monkeypatch.setattr(classify, "_stable_prefix", spy)
    return rows


class TestPartialSelection:
    # The kernel selects by partition and sorts a row whole only when a tie
    # straddles its kappa-th distance; the result must be the stable full
    # sort's, query by query, for every kappa and block size.
    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(), st.sampled_from([1, 1000, classify._BLOCK_FLOATS]))
    def test_kernel_matches_oracle_for_every_kappa(self, case, block_floats):
        train, queries = case
        m = len(train)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(classify, "_BLOCK_FLOATS", block_floats)
            distances = np.linalg.norm(train.points - queries[:, None, :], axis=2)
            for kappa in range(1, m + 1):
                # The neighbors themselves, in order: their distances add up
                # in that order for the vote's tie-break.
                assert np.array_equal(
                    classify._nearest(distances, kappa),
                    classify._stable_prefix(distances, kappa),
                )
                predicted = classify._knn(train.points, train.labels, queries, kappa, False)
                assert predicted.tolist() == [knn_oracle(train, q, kappa) for q in queries]
                if kappa < m:
                    predicted = classify._knn(train.points, train.labels, queries, kappa, True)
                    assert predicted.tolist() == [
                        knn_oracle(train, q, kappa, leave_out=i) for i, q in enumerate(queries)
                    ]
            assert [knn_predict(train, q, m) for q in queries] == [
                knn_oracle(train, q, m) for q in queries
            ]

    def test_only_rows_with_a_straddling_tie_are_sorted_whole(self, monkeypatch):
        rng = np.random.default_rng(171)
        train = grid_embedding(rng, 40, 2, "train")
        kappa = 5
        distances = np.linalg.norm(train.points - train.points[:, None, :], axis=2)
        np.fill_diagonal(distances, np.inf)
        ordered = np.sort(distances, axis=1)
        straddling = np.count_nonzero(ordered[:, kappa - 1] == ordered[:, kappa])
        assert 0 < straddling < len(train)
        sorted_rows = spy_on_full_sort(monkeypatch)
        predicted = classify._knn(train.points, train.labels, train.points, kappa, True)
        assert sum(sorted_rows) == straddling
        assert predicted.tolist() == [
            knn_oracle(train, q, kappa, leave_out=i) for i, q in enumerate(train.points)
        ]

    def test_continuous_rows_are_never_sorted_whole(self, monkeypatch):
        rng = np.random.default_rng(172)
        train = two_blob_embedding(rng, per_class=20, spread=2.0, gap=1.0)
        sorted_rows = spy_on_full_sort(monkeypatch)
        loo_cross_view_accuracy(train, train, 5)
        assert sorted_rows == []


def laid_out(a, layout):
    # The same values in C order, Fortran order, or as a strided view.
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        wide[::2, ::3] = a
        return wide[::2, ::3]
    return a


@st.composite
def distance_cases(draw):
    # Columns scaled from 1e-3 to 1e5, so that adding the squares in any
    # other order than left to right changes the bits.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([*range(21), 63, 64, 65, 127, 128, 129, 130, 136, 200]))
    m = draw(st.integers(1, 12))
    scale = 10.0 ** rng.uniform(-3, 5, size=p)
    points = rng.normal(size=(m, p)) * scale
    queries = rng.normal(size=(draw(st.integers(1, 12)), p)) * scale
    layouts = st.sampled_from(["c", "fortran", "strided"])
    return points, queries, laid_out(points, draw(layouts)), laid_out(queries, draw(layouts))


class TestDistanceBlock:
    # The kernel's distances have the bits of the squared differences added
    # one coordinate at a time, left to right, for every p and whatever the
    # layout of its inputs.
    @settings(max_examples=150, deadline=None)
    @given(distance_cases(), st.sampled_from([1, 1000, classify._BLOCK_FLOATS]))
    def test_distances_sum_squares_left_to_right(self, case, block_floats):
        points, queries, points_in, queries_in = case
        expected = left_to_right_norm(points - queries[:, None, :])
        blocks = []
        nearest = classify._nearest

        def spy(dist, kappa):
            blocks.append(dist.copy())
            return nearest(dist, kappa)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "_BLOCK_FLOATS", block_floats)
            mp.setattr(classify, "_nearest", spy)
            classify._knn(points_in, np.zeros(len(points), dtype=np.int64), queries_in, 1, False)
        got = np.vstack(blocks)
        assert got.tobytes() == expected.tobytes()


@st.composite
def labeled_points(draw):
    # Continuous coordinates, a few classes and any kappa up to m - 1; even
    # kappa gives tied votes.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 40))
    p = draw(st.integers(1, 4))
    kappa = draw(st.integers(1, min(12, m - 1)))
    labels = rng.integers(0, draw(st.integers(1, 4)), size=m)
    return rng.normal(size=(m, p)), labels, kappa, rng


def no_tie_at_kappa(distances, kappa):
    ordered = np.sort(distances, axis=-1)
    return np.all(ordered[..., kappa - 1] < ordered[..., kappa])


class TestRowOrderInvariance:
    @settings(max_examples=100, deadline=None)
    @given(labeled_points())
    def test_knn_predict_invariant_to_training_row_order(self, case):
        points, labels, kappa, rng = case
        query = rng.normal(size=points.shape[1])
        assume(no_tie_at_kappa(np.linalg.norm(points - query, axis=1), kappa))
        perm = rng.permutation(len(points))
        train = LabeledEmbedding(points, labels, "t")
        shuffled = LabeledEmbedding(points[perm], labels[perm], "t")
        assert knn_predict(train, query, kappa) == knn_predict(shuffled, query, kappa)

    @settings(max_examples=100, deadline=None)
    @given(labeled_points())
    def test_loo_invariant_to_one_row_order_for_both_views(self, case):
        points, labels, kappa, rng = case
        test_points = points + 0.3 * rng.normal(size=points.shape)
        distances = np.linalg.norm(points - test_points[:, None, :], axis=2)
        np.fill_diagonal(distances, np.inf)
        assume(no_tie_at_kappa(distances, kappa))
        perm = rng.permutation(len(points))
        train = LabeledEmbedding(points, labels, "a")
        test = LabeledEmbedding(test_points, labels, "b")
        accuracy = loo_cross_view_accuracy(train, test, kappa)
        assert accuracy == loo_cross_view_accuracy(
            LabeledEmbedding(points[perm], labels[perm], "a"),
            LabeledEmbedding(test_points[perm], labels[perm], "b"),
            kappa,
        )


class TestAverageViews:
    def test_average_with_self_is_identity(self):
        rng = np.random.default_rng(151)
        a = two_blob_embedding(rng)
        out = average_views(a, a)
        assert np.array_equal(out.points, a.points)
        assert np.array_equal(out.labels, a.labels)

    def test_average_with_negation_is_zero(self):
        rng = np.random.default_rng(152)
        a = two_blob_embedding(rng)
        b = LabeledEmbedding(-a.points, a.labels, "neg")
        assert np.all(average_views(a, b).points == 0.0)

    def test_pointwise_mean(self):
        rng = np.random.default_rng(153)
        a = two_blob_embedding(rng)
        b = LabeledEmbedding(rng.normal(size=a.points.shape), a.labels, "b")
        out = average_views(a, b, view_tag="ab")
        assert np.array_equal(out.points, 0.5 * (a.points + b.points))
        assert out.view_tag == "ab"

    def test_default_tag_concatenates(self):
        rng = np.random.default_rng(154)
        a = two_blob_embedding(rng)
        b = LabeledEmbedding(a.points, a.labels, "X")
        assert average_views(a, b).view_tag == "blobsX"

    def test_mismatch_rejected(self):
        rng = np.random.default_rng(155)
        a = two_blob_embedding(rng)
        b = LabeledEmbedding(a.points[:, :2], a.labels, "b")
        with pytest.raises(IntegrityError):
            average_views(a, b)


class TestLabeledEmbedding:
    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValidationError):
            LabeledEmbedding(np.zeros((2, 2)), np.array([0.5, 1.0]), "t")

    def test_rejects_length_mismatch(self):
        with pytest.raises(IntegrityError):
            LabeledEmbedding(np.zeros((3, 2)), np.array([0, 1]), "t")

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            LabeledEmbedding(np.array([[np.nan, 0.0]]), np.array([0]), "t")
