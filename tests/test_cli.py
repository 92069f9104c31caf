"""Command line interface, exercised in-process through cli.main."""

import json
import time

import pytest

from thetalab import (
    ConsistencyError,
    SimplicialComplex,
    barycentric,
    example_5_2_ball,
    octahedron,
    read_triangulation_file,
    simplex,
    write_facet_file,
)
from thetalab import cli
from thetalab.cli import main
from thetalab.harness import corpus


def _facet_file(tmp_path, complex_, name="input.facets"):
    target = tmp_path / name
    write_facet_file(complex_, target)
    return str(target)


def _no_bare_numbers(value):
    """JSON payloads carry every number as a decimal string."""
    if isinstance(value, dict):
        return all(_no_bare_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_bare_numbers(v) for v in value)
    return not isinstance(value, (int, float)) or isinstance(value, bool)


# ----------------------------------------------------------------- compute


def test_compute_example_ball(tmp_path, capsys):
    rc = main(["compute", _facet_file(tmp_path, example_5_2_ball())])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert _no_bare_numbers(data)
    assert data["dim"] == "3"
    assert data["h"] == ["1", "3", "2", "2"]
    assert data["boundary_h"] == ["1", "2", "2", "1"]
    assert data["theta"] == ["0", "1", "0", "1"]
    assert data["theta_unimodal"] is False
    assert data["boundary_induced"] is False
    assert data["interior_vertex_property"] is True
    assert data["ball"] is True and data["sphere"] is False
    assert data["flag"] is False


def test_compute_sphere(tmp_path, capsys):
    rc = main(["compute", _facet_file(tmp_path, octahedron())])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sphere"] is True
    assert data["gamma"] == ["1", "0"]
    assert data["ball"] is False
    assert data["theta"] is None
    assert data["theta_reason"] == "not a homology ball"
    assert data["cohen_macaulay"] is True
    assert data["cohen_macaulay_star"] is True


def test_compute_void(tmp_path, capsys):
    target = tmp_path / "void.facets"
    target.write_text("")
    rc = main(["compute", str(target)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "void": True, "dim": None, "f_vector": [], "h": []}


def test_compute_non_cm(tmp_path, capsys):
    bowtie = SimplicialComplex.from_facets([("a", "b", "x"), ("x", "c", "d")])
    rc = main(["compute", _facet_file(tmp_path, bowtie)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cohen_macaulay"] is False
    assert data["cohen_macaulay_star"] is None
    assert data["ball"] is False


def test_compute_missing_file(capsys):
    rc = main(["compute", "/nonexistent/path.facets"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "classify"])
def test_non_utf8_input_exits_cleanly(tmp_path, capsys, command):
    target = tmp_path / "input.txt"
    target.write_bytes(b"\xff\xfea b c\n")
    rc = main([command, str(target)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# --------------------------------------------------------------- subdivide


def test_subdivide_matches_library(tmp_path, capsys):
    src = _facet_file(tmp_path, simplex("abc"))
    out = str(tmp_path / "sd.tri")
    assert main(["subdivide", src, "--kind", "sd", "--out", out]) == 0
    assert read_triangulation_file(out) == barycentric(simplex("abc"))


def test_subdivide_then_classify(tmp_path, capsys):
    src = _facet_file(tmp_path, simplex("abc"))
    out = str(tmp_path / "sd.tri")
    main(["subdivide", src, "--kind", "sd", "--out", out])
    capsys.readouterr()
    assert main(["classify", out]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "base_facets": "1",
        "total_facets": "6",
        "theta_positive": True,
        "theta_unimodal": True,
        "theta_gamma_positive": True,
    }


@pytest.mark.parametrize("kind", ["antiprism", "stellar:a,b", "edgewise:3"])
def test_subdivide_kinds(tmp_path, kind):
    src = _facet_file(tmp_path, simplex("abc"))
    out = str(tmp_path / "out.tri")
    assert main(["subdivide", src, "--kind", kind, "--out", out]) == 0
    tri = read_triangulation_file(out)
    assert tri.base == simplex("abc")


@pytest.mark.parametrize("kind", ["stellar:", "edgewise:x", "zigzag"])
def test_subdivide_bad_kind(tmp_path, capsys, kind):
    src = _facet_file(tmp_path, simplex("abc"))
    rc = main(["subdivide", src, "--kind", kind, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["99999999999", "3000", "317"])
def test_subdivide_refuses_a_huge_edgewise_parameter(tmp_path, capsys, r):
    # a triangle gets r^2 facets, each of these squares over the cap
    src = _facet_file(tmp_path, simplex("abc"))
    rc = main(["subdivide", src, "--kind", f"edgewise:{r}",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"more than {cli.FACET_CAP} facets" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["sd", "antiprism"])
def test_subdivide_refuses_a_large_simplex_at_once(tmp_path, capsys, kind):
    # 8! = 40,320 and Fubini(8) = 545,835 facets: refused before building
    src = _facet_file(tmp_path, simplex("abcdefgh"))
    start = time.perf_counter()
    rc = main(["subdivide", src, "--kind", kind, "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{kind} would build more than {cli.FACET_CAP} facets" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["sd", "antiprism", "edgewise:2", "edgewise:3", "edgewise:4"])
def test_facet_counts_match_the_builders(kind):
    build, facets_over = cli._make_subdivider(kind)
    bases = [c for _, c in corpus()] + [simplex("abcde"[:n]) for n in range(1, 6)]
    for base in bases:
        expected = sum(facets_over(len(f)) for f in base.facets)
        assert expected == len(build(base).total.facets), base.facets


def test_edgewise_cap_sums_over_base_facets(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FACET_CAP", 9)
    triangle = _facet_file(tmp_path, simplex("abc"))
    mixed = _facet_file(tmp_path, SimplicialComplex.from_facets(["abc", "cd"]),
                        "mixed.facets")
    out = str(tmp_path / "o")
    assert main(["subdivide", triangle, "--kind", "edgewise:3", "--out", out]) == 0
    assert main(["subdivide", triangle, "--kind", "edgewise:4", "--out", out]) == 2
    # 3^2 facets over abc and 3 over cd
    assert main(["subdivide", mixed, "--kind", "edgewise:3", "--out", out]) == 2
    assert main(["subdivide", mixed, "--kind", "edgewise:2", "--out", out]) == 0


def test_subdivide_stellar_needs_actual_face(tmp_path, capsys):
    src = _facet_file(tmp_path, simplex("abc"))
    rc = main(["subdivide", src, "--kind", "stellar:a,z",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("text", [
    "a b\n%\na ->\nb -> b\n",  # a carrier line with one side
    "%\na -> a\n",  # carrier lines for a void total
    "m a\n%\nm -> a @\na -> a\n",  # a bad carrier face
    "a\n%\na -> a\n@ -> a\n",  # the empty face carried to a vertex
])
def test_classify_malformed_triangulation_exits_cleanly(tmp_path, capsys, text):
    target = tmp_path / "bad.tri"
    target.write_text(text)
    assert main(["classify", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


# ------------------------------------------------------------------ verify


def test_verify_emits_jsonl_and_summary(tmp_path, capsys):
    rc = main(["verify", "--suite", "locality", "--max-dim", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"identity", "instance", "lhs", "rhs", "passed",
                               "kind", "applicable", "detail"}
        assert record["passed"] is True
    assert "identity/theorem failures" in captured.err
    assert "Thm2.1" in captured.err


def test_consistency_error_exits_with_an_identity_failure(monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setattr(cli.harness, "run_suite", disagree)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["identity failure: two routes disagree"]


# -------------------------------------------------------------------- scan


def test_scan(tmp_path, capsys):
    rc = main(["scan", "--kind", "theta-zero", "--max-dim", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.strip().splitlines()]
    vanishing = {r["instance"] for r in records if "vanishes" in r["detail"]}
    assert "cone_cycle4" in vanishing
    assert "esd4(simplex3)" in vanishing


@pytest.mark.parametrize("kind", ["theta-zero", "real-rooted"])
def test_scan_rejects_max_dim_below_one(capsys, kind):
    assert main(["scan", "--kind", kind, "--max-dim", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_dim must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--max-dim", "6"],
    ["scan", "--kind", "theta-zero", "--max-dim", "6"],
    ["scan", "--kind", "real-rooted", "--max-dim", "6"],
])
def test_max_dim_above_five_is_refused_at_once(capsys, argv):
    # a full run at max_dim 5 already takes seconds and hundreds of MB
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_dim must be at most 5\n"


# ------------------------------------------------------------------ tables


def test_tables_pnk(capsys):
    assert main(["tables", "--pnk", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "p[3,0] = 1 + 4x + x^2\n"
        "p[3,1] = 4x + 2x^2\n"
        "p[3,2] = 2x + 4x^2\n"
        "p[3,3] = x + 4x^2 + x^3\n"
    )


def test_tables_derangement(capsys):
    assert main(["tables", "--derangement", "4"]) == 0
    assert capsys.readouterr().out == "x + 7x^2 + x^3\n"
    assert "*" not in capsys.readouterr().out


def test_tables_cap(capsys):
    assert main(["tables", "--pnk", "11"]) == 2
    assert main(["tables", "--derangement", "-1"]) == 2


def test_tables_needs_exactly_one_selection():
    with pytest.raises(SystemExit):
        main(["tables"])


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
