import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_match.dissimilarity import (
    DissimilarityMatrix,
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
        assert np.array_equal(dm.values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert dm.kind == "graph"
        assert dm.cap == 6

    def test_disconnected_pairs_capped(self):
        dm = graph_geodesic(np.empty((0, 2)), 2, cap=6)
        assert np.array_equal(dm.values, [[0, 6], [6, 0]])

    def test_beyond_max_hops_capped(self):
        # path of length 5: endpoints are 5 hops apart -> capped to 6
        edges = [(i, i + 1) for i in range(5)]
        dm = graph_geodesic(edges, 6, cap=6, max_hops=4)
        assert dm.values[0, 5] == 6
        assert dm.values[0, 4] == 4

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(21)
        n = 12
        for _ in range(10):
            iu = np.triu_indices(n, k=1)
            mask = rng.random(iu[0].size) < 0.18
            edges = np.column_stack([iu[0][mask], iu[1][mask]])
            dm = graph_geodesic(edges, n, cap=6, max_hops=4)
            assert np.array_equal(dm.values, floyd_warshall_capped(edges, n, 6, 4))

    def test_entry_set_under_capping(self):
        rng = np.random.default_rng(22)
        iu = np.triu_indices(20, k=1)
        mask = rng.random(iu[0].size) < 0.1
        edges = np.column_stack([iu[0][mask], iu[1][mask]])
        dm = graph_geodesic(edges, 20, cap=6, max_hops=4)
        assert set(np.unique(dm.values)) <= {0.0, 1.0, 2.0, 3.0, 4.0, 6.0}

    def test_triangle_inequality_on_uncapped_entries(self):
        rng = np.random.default_rng(23)
        n = 15
        iu = np.triu_indices(n, k=1)
        mask = rng.random(iu[0].size) < 0.25
        edges = np.column_stack([iu[0][mask], iu[1][mask]])
        v = graph_geodesic(edges, n, cap=6, max_hops=4).values
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


@st.composite
def small_graphs(draw):
    """Random graph as (edges, n, cap, max_hops) with self-loops, duplicates
    and isolated vertices allowed and either orientation of each edge."""
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    max_hops = draw(st.integers(1, n))
    cap = max_hops + draw(st.integers(1, 3))
    return np.array(edges, dtype=int).reshape(-1, 2), n, cap, max_hops


class TestGraphGeodesicProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_symmetric_zero_diagonal_and_entry_set(self, graph):
        edges, n, cap, max_hops = graph
        v = graph_geodesic(edges, n, cap=cap, max_hops=max_hops).values
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 0.0)
        assert set(np.unique(v)) <= set(range(max_hops + 1)) | {cap}

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_matches_floyd_warshall_oracle(self, graph):
        edges, n, cap, max_hops = graph
        dm = graph_geodesic(edges, n, cap=cap, max_hops=max_hops)
        assert np.array_equal(dm.values, floyd_warshall_capped(edges, n, cap, max_hops))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_invariant_to_edge_order_orientation_and_duplicates(self, graph, rnd):
        edges, n, cap, max_hops = graph
        expected = graph_geodesic(edges, n, cap=cap, max_hops=max_hops).values
        rows = [tuple(e) if rnd.random() < 0.5 else tuple(e[::-1]) for e in edges]
        rows = rows + rnd.sample(rows, len(rows) // 2)
        rnd.shuffle(rows)
        varied = np.array(rows, dtype=int).reshape(-1, 2)
        assert np.array_equal(
            graph_geodesic(varied, n, cap=cap, max_hops=max_hops).values, expected
        )


class TestCosineDissimilarity:
    def test_orthogonal_rows(self):
        dm = cosine_dissimilarity([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(dm.values, [[0.0, 1.0], [1.0, 0.0]])
        assert dm.kind == "text"

    def test_parallel_rows(self):
        dm = cosine_dissimilarity([[1.0, 1.0], [2.0, 2.0]])
        assert dm.values[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_rows(self):
        dm = cosine_dissimilarity([[1.0, 0.0], [-1.0, 0.0]])
        assert dm.values[0, 1] == pytest.approx(2.0)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(31)
        dm = cosine_dissimilarity(rng.normal(size=(7, 4)))
        assert np.all(np.diag(dm.values) == 0.0)

    def test_range(self):
        rng = np.random.default_rng(32)
        dm = cosine_dissimilarity(rng.normal(size=(30, 3)))
        assert dm.values.min() >= 0.0
        assert dm.values.max() <= 2.0

    def test_invariant_to_positive_row_rescaling(self):
        rng = np.random.default_rng(33)
        f = rng.normal(size=(8, 5))
        scales = rng.uniform(0.1, 10.0, size=8)
        d1 = cosine_dissimilarity(f).values
        d2 = cosine_dissimilarity(f * scales[:, None]).values
        assert np.allclose(d1, d2, atol=1e-12)

    def test_zero_row_named_in_error(self):
        with pytest.raises(ValidationError, match="row 1"):
            cosine_dissimilarity([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


class TestFrobeniusPrescale:
    def test_identity_case(self):
        dm = cosine_dissimilarity(np.random.default_rng(41).normal(size=(5, 3)))
        out = frobenius_prescale(dm, dm)
        assert np.allclose(out.values, dm.values, rtol=1e-12)

    def test_scale_cancellation(self):
        ref = cosine_dissimilarity(np.random.default_rng(42).normal(size=(5, 3)))
        target = DissimilarityMatrix(2.0 * ref.values, "text")
        out = frobenius_prescale(target, ref)
        assert np.allclose(out.values, ref.values, rtol=1e-12)

    def test_norm_matches_reference(self):
        rng = np.random.default_rng(43)
        a = cosine_dissimilarity(rng.normal(size=(5, 4)))
        b = graph_geodesic([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        out = frobenius_prescale(a, b)
        assert np.linalg.norm(out.values) == pytest.approx(
            np.linalg.norm(b.values), rel=1e-12
        )
        assert out.kind == a.kind
        assert out.values.shape == a.values.shape

    def test_idempotent(self):
        rng = np.random.default_rng(44)
        a = cosine_dissimilarity(rng.normal(size=(6, 3)))
        b = cosine_dissimilarity(rng.normal(size=(6, 3)))
        once = frobenius_prescale(a, b)
        twice = frobenius_prescale(once, b)
        assert np.allclose(once.values, twice.values, rtol=1e-12)

    def test_zero_norm_target_rejected(self):
        zero = DissimilarityMatrix(np.zeros((3, 3)), "text")
        ref = cosine_dissimilarity(np.random.default_rng(45).normal(size=(3, 2)))
        with pytest.raises(ValidationError):
            frobenius_prescale(zero, ref)


class TestDissimilarityMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            DissimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), "text")

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            DissimilarityMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]), "text")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="negative"):
            DissimilarityMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), "text")

    def test_rejects_bad_object_index(self):
        with pytest.raises(ValidationError):
            DissimilarityMatrix(np.zeros((2, 2)), "text", object_index=("a",))

    def test_input_array_left_unchanged(self):
        raw = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        before = raw.copy()
        dm = DissimilarityMatrix(raw, "text")
        assert np.array_equal(raw, before) and raw.flags.writeable
        assert dm.values[0, 1] == dm.values[1, 0]

    def test_values_read_only(self):
        dm = DissimilarityMatrix(np.zeros((2, 2)), "text")
        with pytest.raises(ValueError):
            dm.values[0, 1] = 3.0

    def test_tsv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(46)
        dm = cosine_dissimilarity(rng.normal(size=(6, 3)))
        path = tmp_path / "dissim_text.tsv"
        save_dissimilarity_tsv(dm, path)
        back = load_dissimilarity_tsv(path, "text")
        assert np.array_equal(back.values, dm.values)

    def test_tsv_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\n1.0\tnot_a_number\n")
        with pytest.raises(FormatError, match="bad.tsv:2"):
            load_dissimilarity_tsv(path, "text")
