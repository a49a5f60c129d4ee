"""Malformed documents and arguments end in a documented exit code.

Hypothesis feeds ``cli.main`` space and cycle documents derived from a valid
octahedron pair by one or two random corruptions (bad JSON or bytes, wrong
types, missing keys, out-of-range vertex ids, NaN/inf and negative numbers),
together with random option values.  Every run must return 0, 2, 3, 4 or 5
and print at most one line to stderr, never a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fillbound.chains import chain_from_simplices
from fillbound.cli import main
from fillbound.fileio import chain_to_dict, space_to_dict
from fillbound.shapes import capped_prism, octahedron

OCTA = octahedron(1.0)
OCTA_DOC = space_to_dict(OCTA)
EQUATOR_DOC = chain_to_dict(OCTA, chain_from_simplices(
    OCTA.complex, 1, [((0, 2), 1), ((2, 1), 1), ((1, 3), 1), ((3, 0), 1)]))
CAPPED = capped_prism(6, 2, 1.0)
CAPPED_DOC = space_to_dict(CAPPED)
RING_DOC = chain_to_dict(CAPPED, chain_from_simplices(
    CAPPED.complex, 1, [((7 + i, 7 + (i + 1) % 6), 1) for i in range(6)]))

EXIT_CODES = {0, 2, 3, 4, 5}

numbers = st.sampled_from([
    0, 1, 2, 5, -1, -7, 10 ** 30, -(10 ** 30), 10 ** 400,
    0.5, -0.5, 1e-300, 1e300, -1e308, float("nan"), float("inf"), float("-inf"),
])
scalars = st.none() | st.booleans() | numbers | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _corrupt(draw, doc):
    """Replace, delete or retype one field somewhere inside a JSON document."""
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "replace", "delete", "append"]))
    if action == "delete":
        del parent[key]
    elif action == "append" and isinstance(parent[key], list):
        parent[key].append(draw(json_values))
    else:
        parent[key] = draw(json_values)
    return doc


@st.composite
def documents(draw, valid):
    """Text of a document: valid, corrupted in place, or not JSON at all."""
    kind = draw(st.sampled_from(["corrupt", "corrupt", "valid", "valid", "text", "bytes"]))
    if kind == "text":
        text = json.dumps(valid)
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    doc = json.loads(json.dumps(valid))
    if kind == "corrupt":
        for _ in range(draw(st.integers(1, 2))):
            doc = _corrupt(draw, doc)
    return json.dumps(doc).encode()


float_args = st.sampled_from([
    "0.8", "1.2", "0", "-1", "1e-300", "1e300", "1e308", "nan", "inf", "-inf", "abc", "", "2",
])
int_args = st.sampled_from(["0", "1", "3", "-2", "x", "1.5"])


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["fill", "fill", "hf1", "bfrt-check"]))
    if command == "bfrt-check":
        argv = [command]
        for opt in ("--trials", "--m-max", "--n-max", "--max-entry", "--seed"):
            if draw(st.booleans()):
                argv += [opt, draw(int_args)]
        return argv, None, None
    space, cycle = draw(st.sampled_from([(OCTA_DOC, EQUATOR_DOC), (CAPPED_DOC, RING_DOC)]))
    argv = [command, "--space", "space.json", "--out", "out.json"]
    if command == "fill":
        argv += ["--cycle", "cycle.json", "--radius", draw(float_args)]
    else:
        argv += ["--l-max", draw(float_args)]
        for opt in ("--steps", "--cycle-budget"):
            if draw(st.booleans()):
                argv += [opt, draw(int_args | st.just("40"))]
    if draw(st.integers(0, 3)) == 0:
        argv += [draw(st.sampled_from(["--bogus", "--seed", "--radius"]))]
    return argv, draw(documents(space)), draw(documents(cycle))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=invocations())
def test_malformed_input_exits_cleanly(case):
    argv, space_bytes, cycle_bytes = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if space_bytes is not None:
                with open("space.json", "wb") as handle:
                    handle.write(space_bytes)
                with open("cycle.json", "wb") as handle:
                    handle.write(cycle_bytes)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    text = err.getvalue()
    assert code in EXIT_CODES, (code, text)
    assert "Traceback" not in text
    assert text.count("\n") <= 1, text
