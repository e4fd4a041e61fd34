"""Mutated input files end in a report or an error message, never a crash.

Hypothesis mutates valid documents (the T3 and V algebra files, one T3 map
file and the diamond poset file), now and then also truncates the written
file or overwrites one of its bytes, and runs the command line on each.
Every run must exit 0, 2, 3 or 4 with no traceback on stderr.  The draws are
derandomized, so the examples are the same on every run.
"""

import copy
import io
import json
import os
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liebider import MapLaw, Poset, incidence_algebra, solve_space, upper_triangular
from liebider.cli import main
from liebider.serialize import algebra_fingerprint, algebra_to_doc, map_to_doc

EXIT_CODES = {0, 2, 3, 4}


def _documents():
    t3 = upper_triangular(3, 2)
    v = incidence_algebra(Poset(3, [(1, 3), (2, 3)]), [1, 2])
    phi = solve_space(t3.alg, MapLaw.LIE_BIDER)[3]
    return {
        "t3": algebra_to_doc(t3.alg, t3.e),
        "v": algebra_to_doc(v.alg, v.e),
        "map": map_to_doc(phi, algebra_fingerprint(t3.alg, t3.e)),
        "poset": {"size": 4, "covers": [[1, 2], [1, 3], [2, 4], [3, 4]]},
    }


DOCS = _documents()

# JSON may escape a lone surrogate ("\ud800"), which loads as a str that no
# UTF-8 output can encode, so the strings draw surrogates too
leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 10),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])),
                           max_size=3))
values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def leaf_paths(node, path=()):
    """The key paths of every scalar or empty container inside node."""
    if isinstance(node, (list, dict)) and node:
        for key in range(len(node)) if isinstance(node, list) else sorted(node):
            yield from leaf_paths(node[key], path + (key,))
    else:
        yield path


def mutate(data, doc):
    """doc with one random edit at a leaf drawn uniformly: most often an
    integer nudged by a little, else the leaf replaced by any JSON value,
    or the entry that holds it, at any depth, deleted or duplicated."""
    path = data.draw(st.sampled_from(list(leaf_paths(doc))))
    op = data.draw(st.sampled_from(["nudge"] * 4 + ["replace"] * 2 + ["delete", "duplicate"]))
    if not path:
        return data.draw(values)
    if op in ("delete", "duplicate"):
        depth = data.draw(st.integers(1, len(path)))
        holder, key = doc, path[depth - 1]
        for k in path[:depth - 1]:
            holder = holder[k]
        if op == "delete":
            del holder[key]
        elif isinstance(holder, list):
            holder.insert(key, copy.deepcopy(holder[key]))
        return doc
    holder = doc
    for k in path[:-1]:
        holder = holder[k]
    value = holder[path[-1]]
    if op == "nudge" and type(value) is int:
        holder[path[-1]] = value + data.draw(st.integers(-3, 3).filter(bool))
    else:
        holder[path[-1]] = data.draw(values)
    return doc


def run_cli(argv):
    """main(argv) with its output captured; an escaping exception is
    printed to the captured stderr as a traceback.  The streams encode as
    a console script's do: stdout strict UTF-8, stderr with backslash
    escapes."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    err.seek(0)
    return code, err.read()


def commands(name, path, tmp):
    """The CLI runs that read the mutated document at path."""
    if name == "poset":
        return [["build", "--kind", "incidence", "--poset", path,
                 "--downset", "1,2,3", "--out", os.path.join(tmp, "alg.json")]]
    if name == "map":
        t3 = os.path.join(tmp, "t3.json")
        with open(t3, "w", encoding="utf-8") as fh:
            json.dump(DOCS["t3"], fh)
        return [["decompose", t3, path], ["decompose", t3, path, "--format", "json"]]
    return [["center", path], ["hypotheses", path], ["verify", path],
            ["solve", path, "--law", "lie-bider", "--outdir", os.path.join(tmp, "maps")],
            ["decompose", path, os.path.join(tmp, "absent.json")]]


@pytest.mark.parametrize("name", sorted(DOCS))
@settings(derandomize=True, max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_file_never_crashes_the_cli(name, data):
    doc = copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    raw = json.dumps(doc).encode("utf-8")
    edit = data.draw(st.sampled_from(["none"] * 6 + ["truncate", "byte"]))
    if edit == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif edit == "byte":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        for argv in commands(name, path, tmp):
            code, err = run_cli(argv)
            assert code in EXIT_CODES, (argv, code, err)
            assert "Traceback" not in err, (argv, err)
