import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from conftest import traced_peak
from manifold_match import dissimilarity
from manifold_match.corpus import synthesize_corpus
from manifold_match.dissimilarity import (
    as_dissimilarity,
    cosine_dissimilarity,
    frobenius_prescale,
    graph_geodesic,
    load_dissimilarity_tsv,
    save_dissimilarity_tsv,
)
from manifold_match.errors import FormatError, ValidationError


def floyd_warshall_capped(edges, n, cap, max_hops):
    # Independent all-pairs shortest-path oracle.
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    out = np.where(dist <= max_hops, dist, float(cap))
    np.fill_diagonal(out, 0.0)
    return out


class TestGraphGeodesic:
    def test_path_graph(self):
        dm = graph_geodesic([(0, 1), (1, 2)], 3, cap=6)
        assert np.array_equal(dm, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_disconnected_pairs_capped(self):
        dm = graph_geodesic(np.empty((0, 2)), 2, cap=6)
        assert np.array_equal(dm, [[0, 6], [6, 0]])

    def test_beyond_max_hops_capped(self):
        # path of length 5: endpoints are 5 hops apart -> capped to 6
        edges = [(i, i + 1) for i in range(5)]
        dm = graph_geodesic(edges, 6, cap=6, max_hops=4)
        assert dm[0, 5] == 6
        assert dm[0, 4] == 4

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(21)
        n = 12
        for _ in range(10):
            iu = np.triu_indices(n, k=1)
            mask = rng.random(iu[0].size) < 0.18
            edges = np.column_stack([iu[0][mask], iu[1][mask]])
            dm = graph_geodesic(edges, n, cap=6, max_hops=4)
            assert np.array_equal(dm, floyd_warshall_capped(edges, n, 6, 4))

    def test_entry_set_under_capping(self):
        rng = np.random.default_rng(22)
        iu = np.triu_indices(20, k=1)
        mask = rng.random(iu[0].size) < 0.1
        edges = np.column_stack([iu[0][mask], iu[1][mask]])
        dm = graph_geodesic(edges, 20, cap=6, max_hops=4)
        assert set(np.unique(dm)) <= {0.0, 1.0, 2.0, 3.0, 4.0, 6.0}

    def test_triangle_inequality_on_uncapped_entries(self):
        rng = np.random.default_rng(23)
        n = 15
        iu = np.triu_indices(n, k=1)
        mask = rng.random(iu[0].size) < 0.25
        edges = np.column_stack([iu[0][mask], iu[1][mask]])
        v = graph_geodesic(edges, n, cap=6, max_hops=4)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if v[i, j] < 6 and v[i, k] < 6 and v[k, j] < 6:
                        assert v[i, j] <= v[i, k] + v[k, j]

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            graph_geodesic([(0, 3)], 3, cap=6)

    def test_cap_must_exceed_max_hops(self):
        with pytest.raises(ValidationError):
            graph_geodesic([(0, 1)], 2, cap=4, max_hops=4)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 193])
    def test_matches_floyd_warshall_across_word_boundaries(self, n):
        # Sources are packed 64 to a word; vertices at the word edges are
        # isolated, the rest form a sparse graph with long shortest paths.
        rng = np.random.default_rng(n)
        iu = np.triu_indices(n, k=1)
        mask = rng.random(iu[0].size) < 1.5 / n
        edges = np.column_stack([iu[0][mask], iu[1][mask]])
        # The degree sort moves isolated vertices to the last rows, so the
        # first and last vertices are isolated too.
        isolated = [v for v in (0, 63, 64, 127, 128, 191, 192, n - 1) if v < n]
        edges = edges[~np.isin(edges, isolated).any(axis=1)]
        for max_hops in (4, n - 1):
            dm = graph_geodesic(edges, n, cap=max_hops + 2, max_hops=max_hops)
            assert dm.dtype == np.uint8
            assert np.array_equal(
                dm, floyd_warshall_capped(edges, n, max_hops + 2, max_hops)
            )
            for v in isolated:
                assert np.all(np.delete(dm[v], v) == max_hops + 2)

    @pytest.mark.parametrize("max_hops", [350, 400, 1000])
    def test_long_path_beyond_255_hops(self, max_hops):
        # A hop counter one byte wide would wrap past 255.
        n = 400
        edges = [(i, i + 1) for i in range(n - 1)]
        dm = graph_geodesic(edges, n, cap=max_hops + 1, max_hops=max_hops)
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        assert np.array_equal(dm, np.where(gap <= max_hops, gap, max_hops + 1))
        assert dm[0, 300] == 300
        assert dm[0, 399] == (max_hops + 1 if max_hops < 399 else 399)

    @pytest.mark.parametrize("max_hops", [250, 310])
    def test_broom_matches_dijkstra(self, max_hops):
        # A hub of degree 1001 (1000 leaves and a path) gathers most of its
        # neighbours in the tail; the path is 300 hops, 301 from a leaf.
        leaves, length = 1000, 300
        n = 1 + leaves + length
        edges = [(0, leaf) for leaf in range(1, leaves + 1)]
        edges += [(v, v + 1) for v in [0, *range(leaves + 1, n - 1)]]
        assert_matches_dijkstra(edges, n, max_hops + 1, max_hops)

    def test_hubs_of_equal_degree(self):
        # Three hubs of degree 20 in a triangle, and ties among their leaves,
        # some of which are chained: the degree sort breaks every tie by label.
        n = 64
        edges = [(0, 1), (1, 2), (2, 0)]
        edges += [(hub, 3 + 19 * hub + k) for hub in range(3) for k in range(18)]
        edges += [(v, v + 1) for v in range(3, n - 2, 4)]
        degree = np.bincount(np.ravel(edges), minlength=n)
        assert list(degree[:3]) == [20, 20, 20]
        for max_hops in (2, 5, n - 1):
            dm = graph_geodesic(edges, n, cap=max_hops + 1, max_hops=max_hops)
            assert np.array_equal(dm, floyd_warshall_capped(edges, n, max_hops + 1, max_hops))

    @pytest.mark.parametrize("n", [2, 70])
    def test_complete_graph(self, n):
        iu = np.triu_indices(n, k=1)
        dm = graph_geodesic(np.column_stack(iu), n, cap=32, max_hops=30)
        assert dm.dtype == np.uint8
        assert np.array_equal(dm, 1 - np.eye(n, dtype=np.uint8))

    @pytest.mark.parametrize("edges", [[], [(0, 0)]], ids=["no-edge", "self-loop"])
    def test_single_vertex(self, edges):
        dm = graph_geodesic(edges, 1, cap=300, max_hops=4)
        assert dm.dtype == np.uint16 and dm.tolist() == [[0]]


def assert_matches_dijkstra(edges, n, cap, max_hops):
    # scipy's hop-limited search is the oracle: cast to float, the hop counts
    # have its bits.
    e = np.asarray(edges)
    graph = csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    expected = dijkstra(graph, directed=False, unweighted=True, limit=max_hops)
    expected[np.isinf(expected)] = cap
    dm = graph_geodesic(e, n, cap=cap, max_hops=max_hops)
    assert dm.dtype == np.min_scalar_type(cap)
    assert np.array_equal(dm.astype(float).view(np.uint64), expected.view(np.uint64))


@pytest.fixture(scope="module")
def geometric_edges():
    return synthesize_corpus(31, 1382, 2, 5, 0.8).domains[0].edges


@pytest.mark.parametrize("cap, max_hops", [(32, 30), (6, 4)])
def test_matches_dijkstra_on_geometric_graph(geometric_edges, cap, max_hops):
    # The hop-limited scipy search that graph_geodesic replaced is the oracle.
    assert_matches_dijkstra(geometric_edges, 1382, cap, max_hops)


def test_working_set_at_paper_scale(geometric_edges):
    # A guard: bitsets, bit planes, one unpacked plane and the one-byte
    # result, below the 4.3 n^2 bytes the per-hop count once took.
    n = 1382
    peak, dm = traced_peak(lambda: graph_geodesic(geometric_edges, n, cap=32, max_hops=30))
    assert dm.shape == (n, n)
    assert peak < 4.35 * n * n


@st.composite
def small_graphs(draw):
    """Random graph as (edges, n, cap, max_hops) with self-loops, duplicates
    and isolated vertices allowed and either orientation of each edge."""
    # A hub joined to up to 2n drawn vertices reaches past the neighbour
    # slots graph_geodesic gathers one by one.
    hub = draw(st.booleans())
    n = draw(st.integers(1, 40 if hub else 14))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if hub:
        centre = draw(vertex)
        edges += [(centre, v) for v in draw(st.lists(vertex, max_size=2 * n))]
    max_hops = draw(st.integers(1, n))
    # Caps past 255 take the wider unsigned types, up to uint64 at 2**53.
    cap = max_hops + draw(st.integers(1, 3) | st.sampled_from([255, 2**16, 2**53 - n]))
    return np.array(edges, dtype=int).reshape(-1, 2), n, cap, max_hops


class TestGraphGeodesicProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_symmetric_zero_diagonal_and_entry_set(self, graph):
        # Exact, not within a tolerance: nothing downstream re-symmetrises.
        edges, n, cap, max_hops = graph
        v = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 0.0)
        assert set(np.unique(v)) <= set(range(max_hops + 1)) | {cap}
        assert not v.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_matches_floyd_warshall_oracle(self, graph):
        edges, n, cap, max_hops = graph
        dm = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        assert np.array_equal(dm, floyd_warshall_capped(edges, n, cap, max_hops))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_invariant_to_edge_order_orientation_and_duplicates(self, graph, rnd):
        edges, n, cap, max_hops = graph
        expected = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        rows = [tuple(e) if rnd.random() < 0.5 else tuple(e[::-1]) for e in edges]
        rows = rows + rnd.sample(rows, len(rows) // 2)
        rnd.shuffle(rows)
        varied = np.array(rows, dtype=int).reshape(-1, 2)
        assert np.array_equal(
            graph_geodesic(varied, n, cap=cap, max_hops=max_hops), expected
        )

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_narrow_dtype_holds_the_float_result(self, graph):
        # The result takes the narrowest unsigned type that holds cap, and
        # cast to float it has the bits of the float oracle.
        edges, n, cap, max_hops = graph
        narrow = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        assert narrow.dtype == np.min_scalar_type(cap)
        assert not narrow.flags.writeable
        expected = floyd_warshall_capped(edges, n, cap, max_hops)
        assert np.array_equal(narrow.astype(float).view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(1, 3))
    def test_any_slot_count_matches_floyd_warshall(self, graph, slots):
        # Fewer slots gathered one by one send most neighbours to the tail.
        edges, n, cap, max_hops = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dissimilarity, "_SLOTS", slots)
            dm = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        assert np.array_equal(dm, floyd_warshall_capped(edges, n, cap, max_hops))


@pytest.mark.parametrize("cap", [2**53 + 1, 6.0, True], ids=["above-2**53", "float", "bool"])
def test_cap_that_is_not_an_integer_up_to_2_53_rejected(cap):
    with pytest.raises(ValidationError, match="cap must be an integer no larger than 2"):
        graph_geodesic([(0, 1)], 3, cap=cap, max_hops=1)


@pytest.mark.parametrize("max_hops", [2.5, 2.0, True, "2"],
                         ids=["fraction", "float", "bool", "string"])
def test_max_hops_that_is_not_an_integer_rejected(max_hops):
    with pytest.raises(ValidationError, match="max_hops must be an integer"):
        graph_geodesic([(0, 1)], 3, cap=6, max_hops=max_hops)


def test_numpy_integer_max_hops_accepted():
    dm = graph_geodesic([(0, 1), (1, 2)], 3, cap=6, max_hops=np.int64(1))
    assert np.array_equal(dm, [[0, 1, 6], [1, 0, 1], [6, 1, 0]])


@pytest.mark.parametrize("cap, dtype", [
    (np.int64(6), np.uint8),
    (300, np.uint16),
    # The largest cap: every uint64 up to 2**53 casts to float exactly.
    (2**53, np.uint64),
], ids=["numpy-int-6", "300", "2**53"])
def test_cap_sets_the_narrowest_unsigned_type(cap, dtype):
    dm = graph_geodesic([(0, 1)], 3, cap=cap, max_hops=1)
    assert dm.dtype == dtype
    assert np.array_equal(dm.astype(float), [[0, 1, cap], [1, 0, cap], [cap, cap, 0]])


@st.composite
def feature_rows(draw):
    """A feature matrix with no zero row; small integers give exactly
    parallel and antipodal rows, other floats the general case."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 5))
    entry = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-3),
    )
    rows = draw(st.lists(
        st.lists(entry, min_size=width, max_size=width).filter(any),
        min_size=n, max_size=n,
    ))
    return np.array(rows)


class TestCosineDissimilarityProperties:
    # Exact symmetry comes from numpy's syrk product, which BLAS may split
    # over threads: checked at one thread and at the default count.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(feature_rows())
    def test_exactly_symmetric_zero_diagonal_in_range_and_read_only(self, blas_threads, features):
        d = cosine_dissimilarity(features)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d.min() >= 0.0 and d.max() <= 2.0
        assert not d.flags.writeable


    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.uint8, np.uint16, np.float64]),
        st.integers(1, 80),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_has_the_bits_of_the_whole_array_formula(self, dtype, n, width, seed):
        # Term counts or real rows.
        rng = np.random.default_rng(seed)
        if dtype == np.float64:
            features = rng.normal(size=(n, width))
        else:
            features = rng.integers(0, np.iinfo(dtype).max, size=(n, width), endpoint=True)
            features[:, 0] |= 1
            features = features.astype(dtype)
        f = np.asarray(features, dtype=float)
        unit = f / np.linalg.norm(f, axis=1)[:, None]
        similarity = unit @ unit.T
        np.fill_diagonal(similarity, 1.0)
        d = 1.0 - similarity
        np.clip(d, 0.0, 2.0, out=d)
        expected = 0.5 * (d + d.T)
        assert cosine_dissimilarity(features).tobytes() == expected.tobytes()


class TestCosineDissimilarity:
    def test_working_set_about_one_matrix(self):
        # The product of the unit rows is made the result in place.
        n = 1000
        features = np.random.default_rng(34).normal(size=(n, 6))
        peak, d = traced_peak(lambda: cosine_dissimilarity(features))
        assert d.shape == (n, n)
        assert peak < 1.25 * n * n * 8

    def test_orthogonal_rows(self):
        dm = cosine_dissimilarity([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(dm, [[0.0, 1.0], [1.0, 0.0]])

    def test_parallel_rows(self):
        dm = cosine_dissimilarity([[1.0, 1.0], [2.0, 2.0]])
        assert dm[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_rows(self):
        dm = cosine_dissimilarity([[1.0, 0.0], [-1.0, 0.0]])
        assert dm[0, 1] == pytest.approx(2.0)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(31)
        dm = cosine_dissimilarity(rng.normal(size=(7, 4)))
        assert np.all(np.diag(dm) == 0.0)

    def test_range(self):
        rng = np.random.default_rng(32)
        dm = cosine_dissimilarity(rng.normal(size=(30, 3)))
        assert dm.min() >= 0.0
        assert dm.max() <= 2.0

    def test_invariant_to_positive_row_rescaling(self):
        rng = np.random.default_rng(33)
        f = rng.normal(size=(8, 5))
        scales = rng.uniform(0.1, 10.0, size=8)
        d1 = cosine_dissimilarity(f)
        d2 = cosine_dissimilarity(f * scales[:, None])
        assert np.allclose(d1, d2, atol=1e-12)

    def test_zero_row_named_in_error(self):
        with pytest.raises(ValidationError, match="row 1"):
            cosine_dissimilarity([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


class TestFrobeniusPrescale:
    # frobenius_prescale returns the factor |reference|_F / |target|_F.
    def test_identity_case(self):
        dm = cosine_dissimilarity(np.random.default_rng(41).normal(size=(5, 3)))
        assert frobenius_prescale(dm, dm) == pytest.approx(1.0, rel=1e-12)

    def test_scale_cancellation(self):
        ref = cosine_dissimilarity(np.random.default_rng(42).normal(size=(5, 3)))
        factor = frobenius_prescale(2.0 * ref, ref)
        assert type(factor) is float
        assert factor == pytest.approx(0.5, rel=1e-12)

    def test_norm_matches_reference(self):
        rng = np.random.default_rng(43)
        a = cosine_dissimilarity(rng.normal(size=(5, 4)))
        b = graph_geodesic([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        factor = frobenius_prescale(a, b)
        assert factor == np.linalg.norm(b) / np.linalg.norm(a)
        assert np.linalg.norm(a * factor) == pytest.approx(np.linalg.norm(b), rel=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(44)
        a = cosine_dissimilarity(rng.normal(size=(6, 3)))
        b = cosine_dissimilarity(rng.normal(size=(6, 3)))
        once = a * frobenius_prescale(a, b)
        assert frobenius_prescale(once, b) == pytest.approx(1.0, rel=1e-12)

    def test_zero_norm_target_rejected(self):
        zero = np.zeros((3, 3))
        ref = cosine_dissimilarity(np.random.default_rng(45).normal(size=(3, 2)))
        with pytest.raises(ValidationError, match="zero Frobenius norm"):
            frobenius_prescale(zero, ref)


def whole_array_checked(v):
    # The check as one expression over the whole array, before it went
    # block by block.
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValidationError(f"dissimilarity matrix must be square, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("dissimilarity matrix contains non-finite entries")
    if v.size:
        if np.max(v - v.T) > 1e-12:
            raise ValidationError("dissimilarity matrix is not symmetric within 1e-12")
        if np.max(np.abs(np.diag(v))) > 1e-12:
            raise ValidationError("dissimilarity matrix has a nonzero diagonal")
        if v.min() < -1e-12:
            raise ValidationError("dissimilarity matrix has negative entries")
    pattern = v.view(np.int64)
    differ = pattern != pattern.T
    np.add(v, v.T, out=v, where=differ)
    np.multiply(v, 0.5, out=v, where=differ)
    np.fill_diagonal(v, 0.0)
    np.clip(v, 0.0, None, out=v)
    return v


@st.composite
def near_symmetric(draw):
    """A square matrix whose mirror pairs are equal, a bit apart, -0.0 and
    0.0, subnormal or near the largest double, with one drawn fault."""
    n = draw(st.sampled_from([1, 63, 64, 65, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array([0.0, -0.0, 5e-324, 2.5e-320, 1.0, 3.0, 1e308, 1.7e308])
    a = np.where(rng.random((n, n)) < 0.5, rng.choice(palette, (n, n)), rng.uniform(0, 9, (n, n)))
    i, j = np.triu_indices(n, k=1)
    a[j, i] = a[i, j]
    # A pair a bit apart within the tolerance, on either side of the diagonal.
    pick = rng.random(i.size)
    near = (pick < 0.3) & (a[i, j] < 10.0)
    side = rng.random(i.size) < 0.5
    a[j, i] = np.where(near & side, np.nextafter(a[i, j], np.inf), a[j, i])
    a[i, j] = np.where(near & ~side, np.nextafter(a[j, i], np.inf), a[i, j])
    a[j, i] = np.where((pick > 0.9) & (a[i, j] == 0.0), -0.0, a[j, i])
    a[np.diag_indices(n)] = rng.choice([0.0, -0.0], n)
    fault = draw(st.sampled_from(["none", "asymmetric", "diagonal", "negative"]))
    # The corner pairs lie in different row blocks once n passes one block.
    k, m = (n - 1, 0) if draw(st.booleans()) else (0, n - 1)
    if fault == "asymmetric" and n > 1:
        a[k, m] += 1e-6
    elif fault == "diagonal":
        a[k, k] = 1e-6
    elif fault == "negative" and n > 1:
        a[k, m] = a[m, k] = -1e-3
    return a


class TestAsDissimilarity:
    @settings(max_examples=100, deadline=None)
    @given(near_symmetric())
    def test_has_the_bits_and_errors_of_the_whole_array_formula(self, a):
        def outcome(check):
            try:
                with np.errstate(over="ignore"):
                    return check(a.copy()).tobytes()
            except ValidationError as exc:
                return str(exc)

        assert outcome(as_dissimilarity) == outcome(whole_array_checked)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            as_dissimilarity(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            as_dissimilarity(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="negative"):
            as_dissimilarity(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize(
        "values", [np.zeros((2, 3)), np.zeros(3), [[0.0, np.nan], [np.nan, 0.0]]]
    )
    def test_rejects_non_square_or_non_finite(self, values):
        with pytest.raises(ValidationError, match="square|non-finite"):
            as_dissimilarity(values)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    def test_unsigned_matrix_keeps_its_type(self, dtype):
        raw = np.array([[0, 3], [3, 0]], dtype=dtype)
        dm = as_dissimilarity(raw)
        assert dm.dtype == dtype and np.array_equal(dm, raw)
        assert not dm.flags.writeable and not np.shares_memory(dm, raw)
        assert as_dissimilarity(raw.astype(np.int64)).dtype == np.float64

    @pytest.mark.parametrize("values, message", [
        ([[0, 1], [2, 0]], "not symmetric within 0"),
        ([[0, 2], [1, 0]], "not symmetric within 0"),
        ([[1, 1], [1, 0]], "nonzero diagonal"),
    ], ids=["upper-below-lower", "upper-above-lower", "diagonal"])
    def test_unsigned_matrix_checked_exactly(self, values, message):
        # An unsigned difference wraps, so both orders of a pair are tried.
        with pytest.raises(ValidationError, match=message):
            as_dissimilarity(np.array(values, dtype=np.uint8))

    def test_unsigned_asymmetry_past_the_first_block_is_found(self):
        hops = np.array(graph_geodesic(synthesize_corpus(2, 300, 2, 5, 0.5).domains[0].edges,
                                       300, cap=6, max_hops=4))
        assert as_dissimilarity(hops).dtype == np.uint8
        hops[250, 10] ^= 1
        with pytest.raises(ValidationError, match="symmetric"):
            as_dissimilarity(hops)

    def test_input_array_left_unchanged(self):
        raw = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        before = raw.copy()
        dm = as_dissimilarity(raw)
        assert np.array_equal(raw, before) and raw.flags.writeable
        assert dm[0, 1] == dm[1, 0]

    def test_largest_finite_values_do_not_overflow(self):
        # 1e308 + 1e308 is inf: an equal mirror pair is kept, not averaged.
        dm = as_dissimilarity([[0.0, 1e308], [1e308, 0.0]])
        assert dm.tolist() == [[0.0, 1e308], [1e308, 0.0]]

    def test_only_mirror_pairs_that_differ_are_averaged(self):
        dm = as_dissimilarity([[0.0, -0.0, 5e-324], [0.0, 0.0, 1.0], [5e-324, 1.0 + 2e-16, 0.0]])
        assert not np.signbit(dm).any()  # -0.0 averaged with 0.0
        assert dm[0, 2] == dm[2, 0] == 5e-324  # halved first, it would round to 0
        assert dm[1, 2] == dm[2, 1] == (1.0 + (1.0 + 2e-16)) * 0.5

    def test_values_read_only(self):
        dm = as_dissimilarity(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dm[0, 1] = 3.0

    def test_tsv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(46)
        dm = cosine_dissimilarity(rng.normal(size=(6, 3)))
        path = tmp_path / "dissim_text.tsv"
        save_dissimilarity_tsv(dm, path)
        back = load_dissimilarity_tsv(path)
        assert np.array_equal(back, dm)
        assert not back.flags.writeable

    def test_tsv_load_checks_the_array_it_read_in_place(self, tmp_path):
        # The array read from the file (here from its twin) is checked and
        # made exact without a copy: it, the n^2 byte finiteness mask and
        # one row block of the symmetry check.
        hops = np.random.default_rng(46).integers(0, 7, size=(1000, 1000)).astype(float)
        hops = np.maximum(hops, hops.T)
        np.fill_diagonal(hops, 0.0)
        path = tmp_path / "dissim_graph.tsv"
        save_dissimilarity_tsv(hops, path)
        peak, back = traced_peak(lambda: load_dissimilarity_tsv(path))
        assert np.array_equal(back, hops)
        assert peak < 1.25 * hops.nbytes

    def test_tsv_load_checks_hop_counts_as_read(self, tmp_path):
        # Hop counts read from their twin as bytes are checked exactly as
        # they are: the array and one row block of the symmetry check.
        n = 1000
        hops = graph_geodesic(synthesize_corpus(3, n, 2, 5, 0.8).domains[0].edges, n, 6, 4)
        path = tmp_path / "dissim_graph.tsv"
        save_dissimilarity_tsv(hops, path)
        peak, back = traced_peak(lambda: load_dissimilarity_tsv(path))
        assert back.dtype == np.uint8 and np.array_equal(back, hops)
        assert not back.flags.writeable
        assert peak < 1.5 * hops.nbytes

    def test_tsv_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\n1.0\tnot_a_number\n")
        with pytest.raises(FormatError, match="bad.tsv:2"):
            load_dissimilarity_tsv(path)

    def test_tsv_failed_check_names_file(self, tmp_path):
        path = tmp_path / "skew.tsv"
        path.write_text("0.0\t1.0\n2.0\t0.0\n")
        with pytest.raises(ValidationError, match="skew.tsv: .*symmetric"):
            load_dissimilarity_tsv(path)
