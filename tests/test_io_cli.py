"""File formats and the command-line interface."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from liebider import BilinearMap, MapLaw, multiply, solve_space
from liebider.cli import main
from liebider.serialize import (FingerprintMismatch, SchemaError,
                                algebra_fingerprint, algebra_to_doc,
                                canonical_json, fingerprint, load_algebra,
                                load_map, load_poset, load_triangular,
                                map_to_doc, save_algebra, save_map)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def body(lines):
    return [ln for ln in lines if not ln.startswith("# ")]


@pytest.fixture()
def t3_file(tmp_path, t3):
    path = tmp_path / "t3.json"
    save_algebra(path, t3.alg, t3.e)
    return str(path)


@pytest.fixture()
def t2_file(tmp_path, t2):
    path = tmp_path / "t2.json"
    save_algebra(path, t2.alg, t2.e)
    return str(path)


# -- serialization ------------------------------------------------------------

def test_algebra_round_trip(tmp_path, t3):
    path = tmp_path / "alg.json"
    save_algebra(path, t3.alg, t3.e)
    alg, e = load_algebra(path)
    assert alg.dim == t3.alg.dim
    assert alg.basis_labels == t3.alg.basis_labels
    assert alg.structure_items() == t3.alg.structure_items()
    assert alg.unit == t3.alg.unit
    assert e.coords == t3.e.coords
    assert algebra_fingerprint(alg, e) == algebra_fingerprint(t3.alg, t3.e)


def test_algebra_file_bytes_stable(tmp_path, t3):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_algebra(p1, t3.alg, t3.e)
    save_algebra(p2, t3.alg, t3.e)
    assert p1.read_bytes() == p2.read_bytes()


def test_map_round_trip(tmp_path, t2):
    fpr = algebra_fingerprint(t2.alg, t2.e)
    phi = BilinearMap(t2.alg, {(0, 1, 1): Fraction(2, 3), (2, 2, 0): -5})
    path = tmp_path / "map.json"
    save_map(path, phi, fpr)
    again = load_map(path, t2.alg, fpr)
    assert again == phi


def test_map_fingerprint_checked(tmp_path, t2):
    fpr = algebra_fingerprint(t2.alg, t2.e)
    path = tmp_path / "map.json"
    save_map(path, BilinearMap(t2.alg, {}), "0" * 64)
    with pytest.raises(FingerprintMismatch):
        load_map(path, t2.alg, fpr)


def test_fingerprint_tracks_content(t2, t3):
    assert algebra_fingerprint(t2.alg, t2.e) != algebra_fingerprint(t3.alg, t3.e)
    # the idempotent is part of the identity
    assert algebra_fingerprint(t2.alg, t2.e) != algebra_fingerprint(t2.alg)
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert len(fingerprint({})) == 64


def test_schema_rejections(tmp_path, t2):
    fpr = algebra_fingerprint(t2.alg, t2.e)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_algebra(bad)
    with pytest.raises(SchemaError):
        load_map(bad, t2.alg, fpr)
    cases = [
        {"schema": 99, "dim": 1, "basis_labels": ["1"],
         "structure": [[0, 0, 0, 1, 1]], "unit": [[1, 1]]},
        {"schema": 1, "dim": 0, "basis_labels": [],
         "structure": [], "unit": []},
        {"schema": 1, "dim": 1, "basis_labels": ["1"],
         "structure": [[0, 0, 0, 1, 0]], "unit": [[1, 1]]},   # zero denominator
        {"schema": 1, "dim": 1, "basis_labels": ["1"],
         "structure": [[0, 0, 0, 1]], "unit": [[1, 1]]},      # short row
        {"schema": 1, "dim": 1, "basis_labels": ["1"],
         "structure": [[0, 0, 0, 0, 1]], "unit": [[1, 1], [1, 1]]},
    ]
    for doc in cases:
        with pytest.raises(SchemaError):
            load_algebra(write_json(tmp_path / "case.json", doc))


def test_load_map_validates_indices(tmp_path, t2):
    fpr = algebra_fingerprint(t2.alg, t2.e)
    doc = {"schema": 1, "algebra_fingerprint": fpr,
           "coeffs": [[0, 0, 9, 1, 1]]}
    with pytest.raises(SchemaError):
        load_map(write_json(tmp_path / "m.json", doc), t2.alg, fpr)


def test_load_triangular(tmp_path, t3):
    path = tmp_path / "t.json"
    save_algebra(path, t3.alg, t3.e)
    t = load_triangular(path)
    assert t.m_indices == t3.m_indices
    save_algebra(path, t3.alg)   # no idempotent recorded
    with pytest.raises(SchemaError):
        load_triangular(path)


def test_load_poset(tmp_path):
    path = write_json(tmp_path / "p.json",
                      {"size": 3, "covers": [[1, 2], [2, 3]]})
    p = load_poset(path)
    assert p.leq(1, 3)
    with pytest.raises(SchemaError):
        load_poset(write_json(tmp_path / "p2.json", {"covers": []}))
    with pytest.raises(SchemaError):
        load_poset(write_json(tmp_path / "p3.json",
                              {"size": 2, "covers": [[1, 2], [2, 1]]}))


# -- cli: build ------------------------------------------------------------------

def test_build_tn(tmp_path, capsys, t3):
    out = str(tmp_path / "alg.json")
    code, lines, _ = run_cli(capsys, "build", "--kind", "tn",
                             "--n", "3", "--k", "2", "--out", out)
    assert code == 0
    assert "dim: 6" in lines
    alg, e = load_algebra(out)
    assert alg.structure_items() == t3.alg.structure_items()
    assert e.coords == t3.e.coords


def test_build_block(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    code, lines, _ = run_cli(capsys, "build", "--kind", "block",
                             "--dims", "2,1", "--j", "1", "--out", out)
    assert code == 0
    assert "dim: 7" in lines


def test_build_incidence(tmp_path, capsys):
    poset = write_json(tmp_path / "p.json",
                       {"size": 3, "covers": [[1, 2], [2, 3]]})
    out = str(tmp_path / "inc.json")
    code, lines, _ = run_cli(capsys, "build", "--kind", "incidence",
                             "--poset", poset, "--downset", "1,2",
                             "--out", out)
    assert code == 0
    assert "dim: 6" in lines


def test_build_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "build", "--kind", "tn", "--n", "3")
    assert code == 2
    assert "SchemaError" in err


def test_build_disconnected_poset(tmp_path, capsys):
    poset = write_json(tmp_path / "p.json", {"size": 2, "covers": []})
    code, _, err = run_cli(capsys, "build", "--kind", "incidence",
                           "--poset", poset, "--downset", "1",
                           "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "Disconnected" in err


def test_build_poset_too_large_to_be_connected(tmp_path, capsys):
    # the order relation of this size cannot even be indexed: the file is
    # refused before the relation is built
    poset = write_json(tmp_path / "p.json",
                       {"size": 10 ** 19, "covers": [[1, 2]]})
    code, out, err = run_cli(capsys, "build", "--kind", "incidence",
                             "--poset", poset, "--downset", "1",
                             "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert out == []
    assert "Disconnected" in err
    assert "Traceback" not in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error" in err


# -- cli: solve and decompose -------------------------------------------------------

def test_solve_writes_map_files(tmp_path, capsys, t3_file):
    outdir = str(tmp_path / "maps")
    code, lines, _ = run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
                             "--outdir", outdir)
    assert code == 0
    assert "dimension: 11" in lines
    assert f"rank: {6 ** 3 - 11}" in lines
    import os
    files = sorted(os.listdir(outdir))
    assert files[0] == "map_000.json"
    assert len(files) == 11


def test_solve_removes_stale_map_files(tmp_path, capsys, t3_file):
    # the 48 lie-deriv-1 maps, then the 11 lie-bider maps into the same
    # outdir: map_011 .. map_047 would pass for lie-bider maps
    outdir = tmp_path / "maps"
    code, fresh, _ = run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
                             "--outdir", str(outdir))
    assert code == 0 and not any(ln.startswith("removed: ") for ln in fresh)
    run_cli(capsys, "solve", t3_file, "--law", "lie-deriv-1", "--outdir", str(outdir))
    (outdir / "map_7.json").write_text("{}")  # any map_<digits>.json
    (outdir / "notes.json").write_text("{}")
    (outdir / "map_999.json").mkdir()
    code, lines, _ = run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
                             "--outdir", str(outdir))
    assert code == 0
    stale = [str(outdir / name) for name in
             ["map_7.json"] + [f"map_{i:03d}.json" for i in range(11, 48)]]
    assert body(lines) == body(fresh) + [f"removed: {p}" for p in sorted(stale)]
    assert sorted(p.name for p in outdir.iterdir()) == (
        [f"map_{i:03d}.json" for i in range(11)] + ["map_999.json", "notes.json"])
    code, lines, _ = run_cli(capsys, "decompose", t3_file, stale[-1])
    assert code == 2
    # the JSON report names them under "removed", a key a fresh outdir omits
    run_cli(capsys, "solve", t3_file, "--law", "lie-deriv-1", "--outdir", str(outdir))
    _, lines, _ = run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
                          "--outdir", str(outdir), "--format", "json")
    doc = json.loads("\n".join(body(lines)))
    assert doc["removed"] == sorted(stale[1:])
    _, lines, _ = run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
                          "--outdir", str(outdir), "--format", "json")
    assert "removed" not in json.loads("\n".join(body(lines)))


def test_decompose_solved_map(tmp_path, capsys, t3_file, t3):
    outdir = str(tmp_path / "maps")
    run_cli(capsys, "solve", t3_file, "--law", "lie-bider",
            "--outdir", outdir)
    code, lines, _ = run_cli(capsys, "decompose", t3_file,
                             f"{outdir}/map_000.json")
    assert code == 0
    assert any(ln.startswith("lambda0: ") for ln in lines)
    assert any(ln.startswith("r: ") for ln in lines)
    assert "reconstruction_exact: yes" in lines
    assert "mu_central: yes" in lines


def test_decompose_rejects_non_biderivation(tmp_path, capsys, t3_file, t3):
    fpr = algebra_fingerprint(t3.alg, t3.e)
    coeffs = {}
    for i in range(t3.alg.dim):
        for j in range(t3.alg.dim):
            v = multiply(t3.alg.basis_element(i), t3.alg.basis_element(j))
            for k, c in enumerate(v.coords):
                if c:
                    coeffs[(i, j, k)] = c
    bad = tmp_path / "bad_map.json"
    save_map(bad, BilinearMap(t3.alg, coeffs), fpr)
    code, lines, _ = run_cli(capsys, "decompose", t3_file, str(bad))
    assert code == 3
    assert "error: NotLieBider" in lines
    assert any(ln.startswith("witness_triple: ") for ln in lines)


def test_decompose_fingerprint_mismatch(tmp_path, capsys, t3_file, t3):
    bad = tmp_path / "foreign.json"
    save_map(bad, BilinearMap(t3.alg, {}), "f" * 64)
    code, _, err = run_cli(capsys, "decompose", t3_file, str(bad))
    assert code == 2
    assert "FingerprintMismatch" in err


def test_decompose_list_shaped_map_is_input_error(tmp_path, capsys, t3_file, t3):
    fpr = algebra_fingerprint(t3.alg, t3.e)
    doc = map_to_doc(BilinearMap(t3.alg, {(0, 0, 0): 1}), fpr)
    path = write_json(tmp_path / "list.json", doc["coeffs"])
    code, _, err = run_cli(capsys, "decompose", t3_file, path)
    assert code == 2
    assert "SchemaError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [5, 0])
def test_duplicate_map_coefficient_is_input_error(tmp_path, capsys, t3_file, t3, value):
    # a later row for the same (i, j, k), nonzero or zero, must not silently
    # overwrite or be dropped
    fpr = algebra_fingerprint(t3.alg, t3.e)
    doc = map_to_doc(solve_space(t3.alg, MapLaw.LIE_BIDER)[0], fpr)
    doc["coeffs"].append(doc["coeffs"][0][:3] + [value, 1])
    path = write_json(tmp_path / "duplicate.json", doc)
    code, out, err = run_cli(capsys, "decompose", t3_file, path)
    assert code == 2
    assert out == []
    assert "SchemaError" in err and "duplicate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("position", ["first", "last"])
def test_zero_duplicate_structure_constant_is_input_error(tmp_path, capsys, t3, position):
    # a zero-valued second row for an existing (i, j, k) is refused too, on
    # either side of the nonzero row
    doc = algebra_to_doc(t3.alg, t3.e)
    assert doc["structure"][0][:3] == [0, 0, 0]
    extra = [0, 0, 0, 0, 1]
    if position == "first":
        doc["structure"].insert(0, extra)
    else:
        doc["structure"].append(extra)
    path = write_json(tmp_path / "duplicate.json", doc)
    for argv in (["center", path], ["hypotheses", path], ["verify", path],
                 ["decompose", path, str(tmp_path / "map.json")]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == []
        assert "SchemaError" in err and "duplicate structure constant" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("content", [b'{"schema": 1, "dim": \xff}', b"[" * 100000],
                         ids=["not-utf8", "too-deep"])
def test_undecodable_file_is_input_error(tmp_path, capsys, t3_file, content):
    # bytes that are not UTF-8 and nesting past the parser's recursion limit
    # used to escape the loaders as UnicodeDecodeError and RecursionError
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (["center", str(bad)], ["decompose", t3_file, str(bad)],
                 ["build", "--kind", "incidence", "--poset", str(bad),
                  "--downset", "1", "--out", str(tmp_path / "x.json")]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == []
        assert "SchemaError: not valid JSON" in err
        assert "Traceback" not in err


def test_lone_surrogate_label_is_input_error(tmp_path, capsys, t2):
    # "\ud800" is valid JSON, but it loads as a str that no UTF-8 report can
    # print: verify used to crash on its witness lines
    doc = algebra_to_doc(t2.alg, t2.e)
    doc["basis_labels"][0] = "\ud800"
    path = write_json(tmp_path / "surrogate.json", doc)
    for command in ("verify", "center"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2, command
        assert out == []
        assert "SchemaError" in err and "lone surrogates" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("labels,message", [
    (["x"] * 6, "distinct"),
    (["E11", "E12", "", "E22", "E23", "E33"], "nonempty"),
    (["E11", "a b", "E13", "E22", "E23", "E33"], "whitespace"),
], ids=["repeated", "empty", "space"])
def test_ambiguous_labels_are_input_errors(tmp_path, capsys, t3, labels, message):
    # text reports join labels with spaces (witness_triple:, labels:), so a
    # witness would not name one basis element per word
    doc = algebra_to_doc(t3.alg, t3.e)
    doc["basis_labels"] = labels
    path = write_json(tmp_path / "labels.json", doc)
    for command in ("verify", "hypotheses", "center"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2, command
        assert out == []
        assert "SchemaError" in err and message in err
        assert "Traceback" not in err


def test_float_structure_index_is_input_error(tmp_path, capsys, t3):
    doc = algebra_to_doc(t3.alg, t3.e)
    doc["structure"][0][0] = float(doc["structure"][0][0])
    path = write_json(tmp_path / "float.json", doc)
    for command in ("center", "hypotheses"):
        code, _, err = run_cli(capsys, command, path)
        assert code == 2, command
        assert "structure indices" in err
        assert "Traceback" not in err


def test_bool_numerator_is_input_error(tmp_path, capsys, t3):
    doc = algebra_to_doc(t3.alg, t3.e)
    doc["structure"][0][3] = True
    path = write_json(tmp_path / "bool.json", doc)
    code, _, err = run_cli(capsys, "center", path)
    assert code == 2
    assert "integer pair" in err
    assert "Traceback" not in err


def test_algebra_without_idempotent_is_input_error(tmp_path, capsys, t3):
    path = tmp_path / "plain.json"
    save_algebra(path, t3.alg)
    for argv in (["decompose", str(path), str(tmp_path / "map.json")],
                 ["verify", str(path)], ["hypotheses", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == []
        assert "SchemaError" in err and "idempotent_e" in err
        assert "Traceback" not in err


# -- cli: verify ------------------------------------------------------------------

def test_verify_t3_passes(capsys, t3_file):
    code, lines, _ = run_cli(capsys, "verify", t3_file)
    assert code == 0
    assert "verdict: pass" in lines
    assert "hypotheses_pass: yes" in lines
    assert "maps_checked: 11" in lines
    for cid in ("3.3.1", "3.3.2", "3.3.3", "3.4", "3.5", "3.6", "3.7"):
        assert f"check {cid}: 11/11" in lines
    assert "lemma31_mode: exhaustive" in lines
    assert "lemma31_failures: 0" in lines
    assert "b_side_sign: -1" in lines
    assert "diagonal_sign: +1" in lines
    assert "decompositions: 11/11" in lines
    assert not any(ln.startswith("witness decompose:") for ln in lines)


def test_verify_t2_reports_unmet_hypotheses(capsys, t2_file):
    code, lines, _ = run_cli(capsys, "verify", t2_file)
    assert code == 0
    assert "cond_ii: false" in lines
    assert "annotation: hypotheses not met" in lines
    assert "verdict: hypotheses not met" in lines
    assert "check 3.4: 6/8" in lines
    assert "check 3.6: 7/8" in lines
    assert any(ln.startswith("witness 3.4: ") for ln in lines)
    # maps 2, 3 and 5 have no central lambda0; verify still runs to the end
    assert "decompositions: 5/8" in lines
    assert "witness decompose: map=2 error=NoCentralLambda" in lines
    assert lines[-1] == "verdict: hypotheses not met"


def test_verify_body_is_deterministic(capsys, t2_file):
    code1, lines1, _ = run_cli(capsys, "verify", t2_file)
    code2, lines2, _ = run_cli(capsys, "verify", t2_file)
    assert code1 == code2 == 0
    assert body(lines1) == body(lines2)
    # the timing header is the only volatile part
    assert all(ln.startswith("# ") for ln in lines1 if ln not in body(lines1))


def test_verify_json_format(capsys, t2_file):
    code, lines, _ = run_cli(capsys, "verify", t2_file, "--format", "json")
    assert code == 0
    doc = json.loads("\n".join(body(lines)))
    assert doc["verdict"] == "hypotheses not met"
    assert doc["lemma_checks"]["3.4"] == 6
    assert doc["solution_dims"]["lie-bider"] == 8
    assert doc["hypotheses"]["cond_ii"] is False
    assert doc["decompositions"] == {
        "decomposed": 5, "maps": 8,
        "first_obstruction": {"map": 2, "error": "NoCentralLambda"}}


# -- cli: center and hypotheses -----------------------------------------------------

def test_center_command(tmp_path, capsys, t3_file):
    code, lines, _ = run_cli(capsys, "center", t3_file)
    assert code == 0
    assert "dimension: 1" in lines
    assert "z0: 1 0 0 1 0 1" in lines   # E11 + E22 + E33


def test_center_on_plain_algebra(tmp_path, capsys):
    from liebider import FiniteAlgebra
    alg = FiniteAlgebra(2, ["u", "v"], {(0, 0, 0): 1, (1, 1, 1): 1}, [1, 1])
    path = tmp_path / "qq.json"
    save_algebra(path, alg)
    code, lines, _ = run_cli(capsys, "center", str(path))
    assert code == 0
    assert "dimension: 2" in lines


def test_hypotheses_command(capsys, t3_file):
    code, lines, _ = run_cli(capsys, "hypotheses", t3_file)
    assert code == 0
    assert "cond_iv: holds" in lines
    assert "hypotheses_pass: yes" in lines


def test_build_json_format(tmp_path, capsys):
    out = str(tmp_path / "alg.json")
    code, lines, _ = run_cli(capsys, "build", "--kind", "tn", "--n", "2",
                             "--k", "1", "--out", out, "--format", "json")
    assert code == 0
    doc = json.loads("\n".join(body(lines)))
    assert doc["dim"] == 3
    assert doc["labels"] == ["E11", "E12", "E22"]


# -- installed entry point -----------------------------------------------------------

def test_console_script(tmp_path):
    out = tmp_path / "alg.json"
    proc = subprocess.run(
        [sys.executable, "-m", "liebider.cli", "build", "--kind", "tn",
         "--n", "2", "--k", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
    assert "dim: 3" in proc.stdout


def test_shared_parser_gives_fresh_parser_bodies(tmp_path, monkeypatch, capsys):
    # main builds its argparse tree once and reuses it, through an argparse
    # error too; every body must match a main whose parser is built anew
    from liebider import cli
    commands = [["build", "--kind", "tn", "--n", "3", "--k", "2", "--out", "alg.json"],
                ["solve", "alg.json"],
                ["solve", "alg.json", "--law", "lie-bider", "--outdir", "maps"],
                ["decompose", "alg.json", "maps/map_003.json"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, body(captured.out.splitlines()), captured.err

    outputs = {}
    for name, fresh in (("shared", False), ("fresh", True)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        parser = cli._build_parser()
        outputs[name] = []
        for argv in commands:
            if fresh:
                cli._build_parser.cache_clear()
            outputs[name].append(run(argv))
        assert (cli._build_parser() is parser) is not fresh
    assert [code for code, _, _ in outputs["shared"]] == [0, 2, 0, 0]
    assert "--law" in outputs["shared"][1][2]
    assert outputs["shared"] == outputs["fresh"]
    for sub in ("alg.json", "maps/map_000.json", "maps/map_010.json"):
        assert (tmp_path / "shared" / sub).read_bytes() == (tmp_path / "fresh" / sub).read_bytes()
