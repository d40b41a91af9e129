"""The CLI contract under malformed input: ``toricgh gh`` exits 0 or 2.

Exit 1 means a check failed, and a traceback means the input boundary
let something through.  Inputs are drawn small (numbers below 5, a few
tokens, a few points), so a well-formed draw still runs in milliseconds:
truncated and garbled recipes from the recipe grammar, and polytope/v1
and lattice/v1 JSON with wrong types, shapes and values, as documents
and as truncated text.
"""

import json
import os
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from toricgh.cli import main

WORDS = ["cube", "simplex", "cross", "cyclic", "pyramid", "bipyramid", "prism",
         "point", "segment", "empty", "cub", "x"]
TOKENS = st.one_of(
    st.sampled_from(WORDS + ["(", ")", ",", "-", "/"]),
    st.integers(0, 4).map(str),
    st.builds(lambda w, k: f"{w}{k}", st.sampled_from(["cube", "simplex", "cross"]),
              st.integers(0, 4)),
)
# no two digits in a row: every number in a recipe stays below 5
RECIPES = st.lists(TOKENS, min_size=1, max_size=9).map("".join).filter(
    lambda r: not re.search(r"\d\d", r))
VALID = ["cube3", "cyclic(6,4)", "prism(pyramid(simplex2))", "bipyramid(cross3)"]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.sampled_from([0.5, -1.0, 3.5, 1e300]),
    st.sampled_from(["1/2", "0", "x", "", "1/0", "nan", "inf"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["a", "dim"]), inner, max_size=2),
    max_leaves=20,
)
COORD = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-1", "3", "x", "1e400"]),
                  st.sampled_from([0.5, 2.0]), st.none())
POINTS = st.lists(st.lists(COORD, min_size=0, max_size=4), max_size=8)
POLYTOPES = st.fixed_dictionaries({"vertices": st.one_of(POINTS, JSON)})
FACETS = st.lists(st.lists(st.integers(-1, 6), max_size=5), max_size=8)
LATTICES = st.fixed_dictionaries(
    {"facets": st.one_of(FACETS, JSON)},
    optional={"dim": st.one_of(st.integers(-2, 4), JSON),
              "n_vertices": st.one_of(st.integers(-1, 7), JSON)},
)
GOOD_DOCS = [
    {"vertices": [[0, 0], [1, 0], [0, 1]]},
    {"dim": 2, "n_vertices": 4, "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
]


def _gh(text):
    """Exit code of ``toricgh gh text``; any other exception fails the test."""
    try:
        return main(["gh", text])
    except SystemExit as e:     # argparse: a recipe that starts with "-"
        return e.code


def _gh_file(content):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        return _gh(path)
    finally:
        os.unlink(path)


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(RECIPES)
def test_garbled_recipes_exit_0_or_2(recipe):
    assert _gh(recipe) in (0, 2)


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_truncated_recipes_exit_0_or_2(recipe, data):
    cut = data.draw(st.integers(0, len(recipe)))
    assert _gh(recipe[:cut]) in (0, 2)


@FUZZ
@given(st.one_of(POLYTOPES, LATTICES, JSON))
@example(doc={"vertices": [["1/0"]]})
def test_malformed_documents_exit_0_or_2(doc):
    assert _gh_file(json.dumps(doc)) in (0, 2)


@FUZZ
@given(st.sampled_from(GOOD_DOCS), st.data())
def test_truncated_documents_exit_0_or_2(doc, data):
    text = json.dumps(doc)
    cut = data.draw(st.integers(0, len(text)))
    assert _gh_file(text[:cut]) in (0, 2)
