"""Every function that takes a count, a dimension or an index keeps one rule.

Such an argument passes ``numerics._integer``: a Python or numpy integer, not
a bool, within the bounds the function sets. Each public function below is
handed a wrong value in place of a good one, and must refuse it with a
``ValidationError`` naming the argument; a numpy integer must give what the
same Python int gives.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import manifold_match
from manifold_match import (
    AlignmentMaps,
    LabeledCorpus,
    LabeledEmbedding,
    MdsModel,
    cca_fit,
    gcca_fit,
    graph_geodesic,
    knn_predict,
    loo_cross_view_accuracy,
    mds_fit,
    project,
    synthesize_corpus,
)
from manifold_match.errors import ValidationError

SRC = Path(manifold_match.__file__).parent

RNG = np.random.default_rng(11)
POINTS = RNG.normal(size=(6, 3))
OTHER = POINTS @ RNG.normal(size=(3, 3)) + 0.1 * RNG.normal(size=(6, 3))
DELTA = np.sqrt(((POINTS[:, None] - POINTS[None]) ** 2).sum(axis=2))
MAPS = cca_fit(POINTS, OTHER, 2)
TRAIN = LabeledEmbedding(POINTS, np.array([0, 1, 0, 1, 0, 1]), "t")

# name: (call with the integer replaced, a value it takes, the name its
# error gives, the least value it takes, the greatest value the rule itself
# bounds, or None)
SITES = {
    "mds_fit": (lambda p: mds_fit(DELTA, p), 2, "target dimension p", 1, 5),
    "cca_fit": (lambda d: cca_fit(POINTS, OTHER, d), 2, "shared dimension d", 1, None),
    "gcca_fit": (lambda d: gcca_fit([POINTS, OTHER, POINTS], d), 2, "shared dimension d", 1,
                 None),
    "project": (lambda k: project(MAPS, k, POINTS), 1, "view_index", 0, 1),
    "knn_predict": (lambda k: knn_predict(TRAIN, POINTS[0], k), 3, "kappa", 1, 6),
    "loo_cross_view_accuracy": (lambda k: loo_cross_view_accuracy(TRAIN, TRAIN, k), 3, "kappa",
                                1, 5),
    "graph_geodesic-n": (lambda n: graph_geodesic([], n), 3, "vertex count n", 1, None),
    "graph_geodesic-cap": (lambda c: graph_geodesic([(0, 1)], 3, cap=c, max_hops=1), 6, "cap",
                           2, 2**53),
    "graph_geodesic-max_hops": (lambda h: graph_geodesic([(0, 1)], 3, cap=6, max_hops=h), 2,
                                "max_hops", 1, None),
    "synthesize_corpus-seed": (lambda s: synthesize_corpus(s, 12, 2, 3, 0.1), 4, "seed", 0, None),
    "synthesize_corpus-n_objects": (lambda n: synthesize_corpus(0, n, 2, 3, 0.1), 12,
                                    "n_objects", 3, None),
    "synthesize_corpus-k_domains": (lambda k: synthesize_corpus(0, 12, k, 3, 0.1), 2,
                                    "k_domains", 2, None),
    "synthesize_corpus-n_classes": (lambda c: synthesize_corpus(0, 12, 2, c, 0.1), 3,
                                    "n_classes", 2, None),
}

# Values of another type than an integer, each refused at every site.
NOT_INTEGERS = {
    "fraction": 2.5,
    "integral-float": 2.0,
    "numpy-float": np.float64(2.0),
    "true": True,
    "false": False,
    "numpy-bool": np.bool_(True),
    "string": "2",
    "none": None,
    "list": [2],
}


def cases():
    for site, (call, good, what, low, high) in SITES.items():
        bad = {**NOT_INTEGERS, "below": low - 1}
        if high is not None:
            bad["above"] = high + 1
        for name, value in bad.items():
            yield pytest.param(call, value, what, id=f"{site}-{name}")


@pytest.mark.parametrize("call, value, what", cases())
def test_a_wrong_integer_is_refused_naming_the_argument(call, value, what):
    with pytest.raises(ValidationError, match=f"^{re.escape(what)} must be an integer "):
        call(value)


def content(result):
    """The arrays a result holds, to compare the results of two calls."""
    if isinstance(result, MdsModel):
        return [result.embedding, result.eigenvalues]
    if isinstance(result, AlignmentMaps):
        return [*result.projections, result.correlations]
    if isinstance(result, LabeledCorpus):
        return [result.labels, *(a for d in result.domains for a in (d.features, d.edges))]
    return [np.asarray(result)]


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_gives_what_the_int_gives(site, kind):
    call, good = SITES[site][:2]
    expected, got = content(call(good)), content(call(kind(good)))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", [[1, 2], np.random.default_rng(0), np.random.SeedSequence(1)],
                         ids=["list", "generator", "seed-sequence"])
def test_a_seed_numpy_takes_that_is_not_an_integer_is_refused(seed):
    # numpy's default_rng takes each of these; a corpus's seed is one integer.
    with pytest.raises(ValidationError, match="^seed must be an integer of at least 0"):
        synthesize_corpus(seed, 12, 2, 3, 0.1)


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf"), -float("inf")])
def test_noise_must_be_finite_and_nonnegative(noise):
    with pytest.raises(ValidationError, match="^noise must be finite and nonnegative"):
        synthesize_corpus(0, 12, 2, 3, noise)


def integer_checks():
    """``(module, innermost enclosing function)`` of each test of a value's
    type as an integer in the package: an import or use of
    ``numbers.Integral``, or an ``isinstance`` call naming ``np.integer`` or
    ``bool``."""
    found = []

    def names(node):
        items = node.elts if isinstance(node, ast.Tuple) else [node]
        return {ast.unparse(item) for item in items}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if (isinstance(node, ast.Name) and node.id == "Integral"
                or isinstance(node, ast.alias) and node.name == "Integral"
                or isinstance(node, ast.Attribute) and node.attr == "Integral"
                or isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                and len(node.args) == 2 and names(node.args[1]) & {"np.integer", "bool"}):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_integers_are_checked_by_the_one_rule_alone():
    # A new copy of the integer rule would test a type in another function;
    # a site calls numerics._integer instead.
    assert sorted(set(integer_checks())) == [("numerics", "_integer")]
