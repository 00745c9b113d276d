"""Every real scalar argument keeps one rule.

A ridge or a noise level passes ``numerics._nonnegative``: one Python or
numpy real, not a bool, finite and nonnegative, returned as a float. Each
site below is handed a wrong value in place of a good one and must refuse it
with a ``ValidationError`` naming the argument; a config or an alignment's
``meta.json`` first takes only JSON's exact number types.
"""

import json

import numpy as np
import pytest

from manifold_match import (
    AlignmentMaps,
    ExperimentConfig,
    cca_fit,
    gcca_fit,
    load_alignment,
    save_alignment,
    synthesize_corpus,
)
from manifold_match.errors import ConfigError, FormatError, ValidationError

RNG = np.random.default_rng(17)
POINTS = RNG.normal(size=(8, 3))
OTHER = POINTS @ RNG.normal(size=(3, 3)) + 0.1 * RNG.normal(size=(8, 3))
EYES = (np.eye(2), np.eye(2))
RHO = np.array([0.9, 0.5])

# name: (call with the real replaced, the name its error gives, whether
# None is a value it takes: the default ridge)
SITES = {
    "cca_fit": (lambda r: cca_fit(POINTS, OTHER, 2, ridge=r), "ridge", True),
    "gcca_fit": (lambda r: gcca_fit([POINTS, OTHER, POINTS], 2, ridge=r), "ridge", True),
    "AlignmentMaps": (lambda r: AlignmentMaps(EYES, RHO, "cca", r), "ridge", False),
    "synthesize_corpus": (lambda v: synthesize_corpus(0, 12, 2, 3, v), "noise", False),
}

NOT_NONNEGATIVE = {
    "negative": -0.5,
    "nan": float("nan"),
    "inf": float("inf"),
    "minus-inf": -float("inf"),
    "numpy-negative": np.float32(-1.0),
    "numpy-nan": np.float64("nan"),
    "string": "0.1",
    "letter": "a",
    "true": True,
    "numpy-bool": np.bool_(True),
    "complex": 1j,
    "list": [0.1],
    "int-beyond-float": 10**400,
    "none": None,
}


def cases():
    for site, (call, what, takes_none) in SITES.items():
        for name, value in NOT_NONNEGATIVE.items():
            if not (name == "none" and takes_none):
                yield pytest.param(call, value, what, id=f"{site}-{name}")


@pytest.mark.parametrize("call, value, what", cases())
def test_a_wrong_real_is_refused_naming_the_argument(call, value, what):
    with pytest.raises(ValidationError, match=f"^{what} must be finite and nonnegative, got "):
        call(value)


@pytest.mark.parametrize("value", [0, 0.25, np.float32(0.25), np.int64(1), np.uint8(0)],
                         ids=["int", "float", "numpy-float", "numpy-int", "numpy-uint"])
def test_a_nonnegative_real_is_taken_as_a_float(value):
    maps = AlignmentMaps(EYES, RHO, "cca", value)
    assert type(maps.ridge) is float and maps.ridge == float(value)
    assert cca_fit(POINTS, OTHER, 2, ridge=value).ridge == float(value)
    synthesize_corpus(0, 12, 2, 3, value)


def test_noise_true_is_not_taken_as_one():
    # A bool was multiplied in as 1.0.
    with pytest.raises(ValidationError, match="^noise must be finite and nonnegative, got True$"):
        synthesize_corpus(0, 12, 2, 3, True)


def raw_config(**overrides):
    return {
        "relation_classes": [0], "classifier_classes": [1],
        "views": [{"tag": "A", "domain": "d0", "kind": "graph"},
                  {"tag": "B", "domain": "d1", "kind": "graph"}],
        "combinations": ["A->B"], **overrides,
    }


@pytest.mark.parametrize("ridge", [-1, -0.5, float("nan"), float("inf"), "0.1", True, [0.1],
                                   np.float64(0.1)],
                         ids=["negative-int", "negative", "nan", "inf", "string", "true", "list",
                              "numpy-float"])
def test_a_config_refuses_a_wrong_ridge(ridge):
    # JSON's exact types first, from Python too: no numpy float, as for integers.
    with pytest.raises(ConfigError, match="malformed field 'ridge'"):
        ExperimentConfig.from_dict(raw_config(ridge=ridge), source="inline")
    with pytest.raises(ConfigError, match="malformed field 'ridge'"):
        ExperimentConfig(**{**ExperimentConfig.from_dict(raw_config()).__dict__, "ridge": ridge})


@pytest.mark.parametrize("ridge", [-1, -0.5, float("nan"), float("inf"), -float("inf")],
                         ids=["negative-int", "negative", "nan", "inf", "minus-inf"])
def test_an_alignment_meta_json_refuses_a_wrong_ridge(tmp_path, ridge):
    # json.load reads NaN and Infinity; the maps they would load are refused
    # as the writer would refuse them.
    save_alignment(cca_fit(POINTS, OTHER, 2), tmp_path)
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "ridge": ridge}))
    message = "meta.json: missing or malformed field 'ridge': ridge must be finite and nonnegative"
    with pytest.raises(FormatError, match=message):
        load_alignment(tmp_path)


def test_maps_with_an_unknown_method_are_refused():
    # save_alignment wrote such maps, which load_alignment then refused.
    with pytest.raises(ValidationError, match="^method must be 'cca' or 'gcca', got 'zzz'$"):
        AlignmentMaps(EYES, RHO, "zzz", 0.0)
    with pytest.raises(ValidationError, match="^method must be 'cca' or 'gcca', got 5$"):
        AlignmentMaps(EYES, RHO, 5, 0.0)


@pytest.mark.parametrize("method", ["cca", "gcca"])
@pytest.mark.parametrize("ridge", [0, 0.5, np.float32(0.25)], ids=["int", "float", "numpy"])
def test_maps_that_are_built_load_back(tmp_path, method, ridge):
    maps = AlignmentMaps(EYES, RHO, method, ridge)
    save_alignment(maps, tmp_path)
    back = load_alignment(tmp_path)
    assert (back.method, back.ridge) == (method, float(ridge))
