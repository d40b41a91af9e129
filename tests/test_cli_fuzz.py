"""The CLI contract under malformed input: ``toricgh gh`` exits 0 or 2.

Exit 1 means a check failed, and a traceback means the input boundary
let something through.  Inputs are drawn small (numbers below 5, a few
tokens, a few points), so a well-formed draw still runs in milliseconds:
truncated and garbled recipes from the recipe grammar, and polytope/v1
and lattice/v1 JSON with wrong types, shapes and values, as documents
and as truncated text.  The coordinate commands (``shell``,
``rigidity``, ``localize`` and the geometric ``verify`` suites) may
also exit 1 on such documents, but never with a traceback.  Well-formed
recipes of the grammar, some of them out of its bounds (cube0,
cyclic(3,5), prism(empty)), are refused alike by ``gh``, ``flags`` and
``shell``: when they are parsed, before any output.
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
# bases up to d = 4, cyclic(n, d) with n <= 8 (d >= n included), and at
# most two operations over them
BASES = st.one_of(
    st.sampled_from(["empty", "point", "segment"]),
    st.builds("{}{}".format, st.sampled_from(["simplex", "cube", "cross"]), st.integers(0, 4)),
    st.builds("cyclic({},{})".format, st.integers(0, 8), st.integers(0, 8)),
)
GRAMMAR = st.builds(
    lambda ops, base: "".join(f"{op}(" for op in ops) + base + ")" * len(ops),
    st.lists(st.sampled_from(["pyramid", "bipyramid", "prism"]), max_size=2),
    BASES,
)

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


# equally long integer rows: many draws are polytopes the commands run on
INTEGER_POINTS = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=8))
GEOMETRIC_COMMANDS = [("shell",), ("rigidity",), ("localize",),
                      ("verify", "shelling"), ("verify", "rigidity"), ("verify", "localization")]


def _exit(*argv):
    """Exit code of ``toricgh argv``; any other exception fails the test."""
    try:
        return main(list(argv))
    except SystemExit as e:     # argparse: a recipe that starts with "-"
        return e.code


def _on_file(content, *command):
    """Exit code of ``toricgh command FILE``, FILE holding ``content``."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        return _exit(*command, path)
    finally:
        os.unlink(path)


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(RECIPES)
def test_garbled_recipes_exit_0_or_2(recipe):
    assert _exit("gh", recipe) in (0, 2)


@settings(FUZZ, max_examples=80)
@given(GRAMMAR)
@example(recipe="cyclic(3,5)")
@example(recipe="prism(empty)")
@example(recipe="pyramid(bipyramid(point))")
def test_grammar_recipes_are_refused_alike(recipe):
    # gh, flags and shell read the same entry: a recipe gh refuses is
    # refused by the others, and shell may refuse more (no coordinates)
    codes = [_exit(command, recipe) for command in ("gh", "flags", "shell")]
    assert set(codes) <= {0, 1, 2}
    if codes[0] == 2:
        assert codes == [2, 2, 2]


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_truncated_recipes_exit_0_or_2(recipe, data):
    cut = data.draw(st.integers(0, len(recipe)))
    assert _exit("gh", recipe[:cut]) in (0, 2)


@FUZZ
@given(st.one_of(POLYTOPES, LATTICES, JSON))
@example(doc={"vertices": [["1/0"]]})
@example(doc={"dim": True, "n_vertices": 2, "facets": [[0], [1]]})
def test_malformed_documents_exit_0_or_2(doc):
    assert _on_file(json.dumps(doc), "gh") in (0, 2)


@FUZZ
@given(st.sampled_from(GOOD_DOCS), st.data())
def test_truncated_documents_exit_0_or_2(doc, data):
    text = json.dumps(doc)
    cut = data.draw(st.integers(0, len(text)))
    assert _on_file(text[:cut], "gh") in (0, 2)


@FUZZ
@given(st.sampled_from(GEOMETRIC_COMMANDS),
       st.one_of(st.fixed_dictionaries({"vertices": INTEGER_POINTS}), POLYTOPES, LATTICES, JSON))
@example(command=("verify", "shelling"), doc=GOOD_DOCS[1])
@example(command=("rigidity",), doc={"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
def test_geometric_commands_on_documents_exit_0_1_or_2(command, doc):
    assert _on_file(json.dumps(doc), *command) in (0, 1, 2)
