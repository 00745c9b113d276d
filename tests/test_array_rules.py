"""Every function that takes a matrix of reals or an edge list keeps one rule.

A matrix argument passes ``numerics._real_matrix`` (a 2-D, finite array of
integers or floats, square where asked, with the row and column counts
another argument fixes), an edge list ``dissimilarity._edge_list`` (an
(E, 2) array of integers in [0, n)). Each public function below is handed
one bad array in place of a good one, and must refuse it with a
``ValidationError`` naming the argument, an ``IntegrityError`` where only
its size disagrees.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import manifold_match
from manifold_match import (
    AlignmentMaps,
    DomainData,
    LabeledCorpus,
    LabeledEmbedding,
    average_views,
    cca_fit,
    commensurability_error,
    cosine_dissimilarity,
    fidelity_error,
    gcca_fit,
    graph_geodesic,
    knn_predict,
    load_corpus,
    loo_cross_view_accuracy,
    mds_fit,
    mds_out_of_sample,
    project,
    save_corpus,
)
from manifold_match.corpus import register_dissimilarity
from manifold_match.dissimilarity import as_dissimilarity
from manifold_match.errors import IntegrityError, ValidationError

SRC = Path(manifold_match.__file__).parent

RNG = np.random.default_rng(3)
POINTS = RNG.normal(size=(6, 3))
DELTA = np.sqrt(((POINTS[:, None] - POINTS[None]) ** 2).sum(axis=2))
MODEL = mds_fit(DELTA, 2)
MAPS = cca_fit(POINTS, POINTS @ RNG.normal(size=(3, 3)), 2)
LABELS = np.array([0, 1, 0, 1, 0, 1])
TRAIN = LabeledEmbedding(POINTS, LABELS, "t")
IDS = tuple("abcdef")

# name: (call with the argument replaced, the good argument, the name its
# error gives, whether it must be square)
MATRIX_SITES = {
    "mds_fit": (lambda x: mds_fit(x, 2), DELTA, "dissimilarities", True),
    "mds_out_of_sample": (lambda x: mds_out_of_sample(MODEL, x), DELTA[:2],
                          "new dissimilarities", False),
    "fidelity_error-embedding": (lambda x: fidelity_error(x, DELTA), POINTS,
                                 "embedding coordinates", False),
    "fidelity_error-delta": (lambda x: fidelity_error(POINTS, x), DELTA, "dissimilarities", True),
    "cca_fit": (lambda x: cca_fit(x, POINTS, 2), POINTS, "view 0 coordinates", False),
    "gcca_fit": (lambda x: gcca_fit([POINTS, POINTS, x], 2), POINTS, "view 2 coordinates", False),
    "project": (lambda x: project(MAPS, 0, x), POINTS, "points", False),
    "commensurability_error": (lambda x: commensurability_error(x, POINTS), POINTS,
                               "proj_a coordinates", False),
    "LabeledEmbedding": (lambda x: LabeledEmbedding(x, LABELS), POINTS, "points", False),
    "as_dissimilarity": (as_dissimilarity, DELTA, "dissimilarities", True),
    "cosine_dissimilarity": (cosine_dissimilarity, POINTS, "features", False),
    "LabeledCorpus-features": (
        lambda x: LabeledCorpus(IDS, LABELS, (DomainData("d", features=x),)),
        POINTS, "domain 'd' features", False),
}


def nan(x):
    x = x.astype(float)
    x[0, 1] = x[1, 0] = np.nan
    return x


BAD_MATRICES = {
    "complex": lambda x: x.astype(complex),
    "string": lambda x: x.astype(str),
    "bool": lambda x: x > 0,
    "object": lambda x: x.astype(object),
    "1-D": lambda x: x[0],
    "3-D": lambda x: x[None],
    "nan": nan,
    "inf": lambda x: np.where(np.isnan(nan(x)), np.inf, x),
    "non-square": lambda x: x[:, :-1],
}


# Cases another test already makes: test_corpus.py's features of strings
# and complex numbers.
COVERED = {("LabeledCorpus-features", "complex"), ("LabeledCorpus-features", "string")}


def matrix_cases():
    for site, (call, good, what, square) in MATRIX_SITES.items():
        for bad, make in BAD_MATRICES.items():
            if bad == "non-square" and not square or (site, bad) in COVERED:
                continue
            if bad == "1-D" and site == "mds_out_of_sample":
                continue  # one row of dissimilarities is an input it takes
            yield pytest.param(call, make(good), what, id=f"{site}-{bad}")


@pytest.mark.parametrize("call, bad, what", matrix_cases())
def test_a_bad_matrix_is_refused_naming_the_argument(call, bad, what):
    with pytest.raises(ValidationError, match=re.escape(what)):
        call(bad)


@pytest.mark.parametrize("query", [
    np.array([1 + 1j, 0, 0]), np.array(["1", "0", "0"]), np.array([True, False, True]),
    np.array([np.nan, 0, 0]), np.array([np.inf, 0, 0]),
], ids=["complex", "string", "bool", "nan", "inf"])
def test_a_bad_query_is_refused_naming_it(query):
    with pytest.raises(ValidationError, match="query coordinates"):
        knn_predict(TRAIN, query, 1)


# name: (call with a matrix or labels of a size that another argument or
# structure fixes otherwise, the message its error gives).
SIZE_SITES = {
    "project": (lambda: project(MAPS, 0, POINTS[:, :2]),
                r"points have shape \(6, 2\), expected \(\*, 3\)"),
    "commensurability_error": (lambda: commensurability_error(POINTS, POINTS[:5]),
                               r"proj_b coordinates have shape \(5, 3\), expected \(6, 3\)"),
    "cca_fit": (lambda: cca_fit(POINTS, POINTS[:5], 2),
                r"view 1 coordinates have shape \(5, 3\), expected \(6, \*\)"),
    "gcca_fit": (lambda: gcca_fit([POINTS, POINTS, POINTS[:4]], 2),
                 r"view 2 coordinates have shape \(4, 3\), expected \(6, \*\)"),
    "mds_out_of_sample": (lambda: mds_out_of_sample(MODEL, DELTA[:2, :5]),
                          r"new dissimilarities have shape \(2, 5\), expected \(\*, 6\)"),
    "fidelity_error": (lambda: fidelity_error(POINTS[:5], DELTA),
                       r"dissimilarities have shape \(6, 6\), expected \(5, 5\)"),
    "LabeledCorpus-features": (
        lambda: LabeledCorpus(IDS, LABELS, (DomainData("d", features=POINTS[:5]),)),
        r"domain 'd' features have shape \(5, 3\), expected \(6, \*\)"),
    "LabeledCorpus-labels": (lambda: LabeledCorpus(IDS, LABELS[:5], (DomainData("d"),)),
                             r"labels have shape \(5,\), expected \(6,\)"),
    "LabeledCorpus-dissimilarities": (
        lambda: LabeledCorpus(
            IDS, LABELS, (DomainData("d", dissimilarities={"g": DELTA[:5, :5]}),)),
        r"domain 'd' g dissimilarities have shape \(5, 5\), expected \(6, 6\)"),
    "LabeledEmbedding": (lambda: LabeledEmbedding(POINTS, LABELS[:5]),
                         r"labels have shape \(5,\), expected \(6,\)"),
    "loo_cross_view_accuracy": (
        lambda: loo_cross_view_accuracy(TRAIN, LabeledEmbedding(POINTS[:, :2], LABELS), 1),
        r"the second view's points have shape \(6, 2\), expected \(6, 3\)"),
    "average_views": (lambda: average_views(TRAIN, LabeledEmbedding(POINTS[:5], LABELS[:5])),
                      r"the second view's points have shape \(5, 3\), expected \(6, 3\)"),
    "knn_predict": (lambda: knn_predict(TRAIN, POINTS[0, :2], 1),
                    r"query coordinates have shape \(1, 2\), expected \(\*, 3\)"),
    "AlignmentMaps": (lambda: AlignmentMaps(MAPS.projections, np.array([0.9]), "cca", 0.0),
                      r"correlations have shape \(1, 1\), expected \(1, 2\)"),
}


@pytest.mark.parametrize("call, message", SIZE_SITES.values(), ids=SIZE_SITES.keys())
def test_a_matrix_of_another_size_is_refused_naming_it(call, message):
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        call()


def test_a_registered_matrix_of_another_size_is_refused_naming_its_file(tmp_path):
    save_corpus(LabeledCorpus(IDS, LABELS, (DomainData("d", features=POINTS),)), tmp_path)
    path = register_dissimilarity(tmp_path, "d", "text", DELTA[:5, :5])
    with pytest.raises(IntegrityError, match=re.escape(
            f"{path}: dissimilarities have shape (5, 5), expected (6, 6)")):
        load_corpus(tmp_path).view("d", "text", 6, 4)


@pytest.mark.parametrize("call, high", [
    (lambda d: cca_fit(POINTS, POINTS[:, :2], d), 2),
    (lambda d: gcca_fit([POINTS[:3], POINTS[:3], POINTS[:3]], d), 2),
], ids=["narrowest-width", "rows-less-one"])
def test_the_shared_dimension_is_bounded_by_the_views(call, high):
    call(high)
    with pytest.raises(ValidationError,
                       match=rf"^shared dimension d must be an integer in \[1, {high}\], "):
        call(high + 1)


# test_corpus.py makes these cases of LabeledCorpus's edges, and
# test_dissimilarity.py graph_geodesic's of an endpoint past n.
BAD_EDGES = {
    "float": [[0, 1.5], [1, 2]],
    "negative": [[0, 1], [-1, 2]],
    "bool": [[True, False]],
    "complex": [[0, 1j]],
    "string": [["0", "1"]],
    "three-columns": [[0, 1, 2]],
    "1-D": [0, 1],
    "3-D": [[[0, 1]]],
}


@pytest.mark.parametrize("edges", BAD_EDGES.values(), ids=BAD_EDGES.keys())
def test_a_bad_edge_list_is_refused_naming_it(edges):
    # A float endpoint is not truncated to the edge it rounds down to.
    with pytest.raises(ValidationError, match="^edges "):
        graph_geodesic(edges, 6, cap=6, max_hops=4)


@pytest.mark.parametrize("edges", [[], [[]], np.empty((0, 3)), np.array([], dtype=str)],
                         ids=["list", "nested", "zero-by-three", "string"])
def test_an_empty_edge_list_is_no_edges(edges, tmp_path):
    assert np.array_equal(graph_geodesic(edges, 2, cap=6, max_hops=4), [[0, 6], [6, 0]])
    corpus = LabeledCorpus(("a", "b"), np.array([0, 1]), (DomainData("d", edges=edges),))
    assert np.array_equal(corpus.view("d", "graph", 6, 4), [[0, 6], [6, 0]])
    manifold_match.save_corpus(corpus, tmp_path)
    assert manifold_match.load_corpus(tmp_path).domain("d").edges.shape == (0, 2)


def finiteness_checks():
    """``(module, innermost enclosing function)`` of each use of
    ``np.isfinite`` in the package, ``None`` for one outside any function."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_finiteness_is_checked_by_the_two_rules_alone():
    # A new copy of the matrix rule or of the real rule would add a call of
    # np.isfinite elsewhere; a site calls the rule instead.
    assert sorted(set(finiteness_checks())) == [("numerics", "_nonnegative"),
                                                 ("numerics", "_real_matrix")]
