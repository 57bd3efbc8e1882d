import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macomplex import SimplicialComplex, cli, complexes, cycle

families = sys.modules["macomplex.generate"]  # the package exports the function under that name

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())

C4_JSON = '{"n":4,"facets":[[1,2],[2,3],[3,4],[1,4]]}'
C5_JSON = '{"n":5,"facets":[[1,2],[2,3],[3,4],[4,5],[1,5]]}'
GHOST_JSON = '{"n":3,"facets":[[1,2]]}'


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_classify_c4(capsys):
    code, report = run_json(capsys, ["classify", "--input", C4_JSON])
    assert code == 0
    assert report == {"kind": "elliptic", "spheres": [3, 3], "disk": 0}


def test_classify_c5(capsys):
    code, report = run_json(capsys, ["classify", "--input", C5_JSON])
    assert code == 0
    assert report == {
        "kind": "hyperbolic",
        "witness_I": [1, 3, 4],
        "witness_nonfaces": [[1, 3], [1, 4]],
    }


def test_nonfaces_report(capsys):
    code, report = run_json(capsys, ["nonfaces", "--input", C5_JSON])
    assert code == 0
    assert report == {"n": 5, "members": [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]}


def test_betti_report(capsys):
    code, report = run_json(capsys, ["betti", "--input", C4_JSON])
    assert code == 0
    assert report["betti"] == [1, 0, 0, 2, 0, 0, 1]
    assert {"I": [1, 3], "j": 0, "dim": 1} in report["entries"]


def test_oracle_betti_report(capsys):
    code, report = run_json(capsys, ["oracle-betti", "--input", C4_JSON])
    assert code == 0
    assert report["betti"] == [1, 0, 0, 2, 0, 0, 1]
    assert report["cells"] == 64
    code, dumped = run_json(
        capsys, ["oracle-betti", "--input", C4_JSON, "--dump-cells"]
    )
    assert len(dumped["chain"]["cells"]) == 64


def test_ring_report(capsys):
    code, report = run_json(capsys, ["ring", "--input", C4_JSON])
    assert code == 0
    assert report["trivial"] is False
    assert report["certificate"]["degree"] == 6


def test_loop_ranks_report(capsys):
    code, report = run_json(capsys, ["loop-ranks", "--input", C5_JSON])
    assert code == 0
    assert report["verdict"] == "exponential"
    assert report["model"] == {"kind": "wedge", "dims": [3, 3, 4]}
    assert report["ratio"] > 1.05
    code, report = run_json(capsys, ["loop-ranks", "--input", C4_JSON])
    assert report["verdict"] == "finite"
    assert report["ratio"] is None


def test_crosscheck_report(capsys):
    code, report = run_json(capsys, ["crosscheck", "--input", C5_JSON])
    assert code == 0
    assert report["equal"] is True
    assert report["hochster"] == report["oracle"]


def test_generate_families(capsys):
    code, report = run_json(capsys, ["generate", "--family", "cycle", "--size", "5"])
    assert code == 0
    assert SimplicialComplex(report["n"], report["facets"]) == cycle(5)

    code, report = run_json(
        capsys, ["generate", "--family", "cross_polytope", "--size", "3"]
    )
    assert report["n"] == 6
    code, verdict = run_json(capsys, ["classify", "--input", json.dumps(report)])
    assert verdict == {"kind": "elliptic", "spheres": [3, 3, 3], "disk": 0}


def test_generate_random_is_deterministic(capsys):
    args = ["generate", "--family", "random", "--size", "6", "--seed", "1"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    assert first == second


@pytest.mark.parametrize(
    "family, size",
    [("simplex", 63), ("boundary", 63), ("cycle", 64), ("cross_polytope", 32), ("random", 64)],
)
def test_generate_checks_the_vertex_count_before_building(capsys, monkeypatch, family, size):
    def build(*args):
        raise AssertionError("facets were built before the vertex count was checked")

    for module, name in (
        (families, "SimplicialComplex"),
        (families, "join"),
        (complexes, "_mask_of"),
        (complexes, "SimplicialComplex"),
    ):
        monkeypatch.setattr(module, name, build)
    code, report = run_json(capsys, ["generate", "--family", family, "--size", str(size)])
    assert code == 2
    assert report["error"]["message"] == "vertex count 64 must be an integer in 0..63"


@pytest.mark.parametrize("size", [17, 25, 31])
def test_cross_polytope_checks_its_facet_count_before_building(capsys, monkeypatch, size):
    def build(*args):
        raise AssertionError("facets were built before the facet count was checked")

    monkeypatch.setattr(families, "join", build)
    start = time.perf_counter()
    code, report = run_json(capsys, ["generate", "--family", "cross_polytope", "--size", str(size)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert report["error"]["type"] == "ResourceError"
    limit = families.CROSS_POLYTOPE_MAX_FACETS
    assert report["error"]["message"] == (
        f"cross polytope needs 2^{size} = {1 << size} facets; limit is {limit} facets"
    )


def test_reports_are_byte_identical(capsys):
    for argv in (
        ["classify", "--input", C5_JSON],
        ["betti", "--input", C4_JSON],
        ["loop-ranks", "--input", C5_JSON],
    ):
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


# stdout of `mac ring`, captured before products were reduced against the cached span
RING_GOLDEN = {
    "C6": (
        '{"n":6,"facets":[[1,2],[2,3],[3,4],[4,5],[5,6],[1,6]]}',
        """\
{
  "certificate": {
    "J": [
      1,
      3
    ],
    "L": [
      2,
      4,
      5,
      6
    ],
    "degree": 8,
    "kind": "nonzero_product",
    "p": 0,
    "q": 0
  },
  "trivial": false
}
""",
    ),
    "C8": (
        '{"n":8,"facets":[[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[1,8]]}',
        """\
{
  "certificate": {
    "J": [
      1,
      3
    ],
    "L": [
      2,
      4,
      5,
      6,
      7,
      8
    ],
    "degree": 10,
    "kind": "nonzero_product",
    "p": 0,
    "q": 0
  },
  "trivial": false
}
""",
    ),
    "octahedron": (
        '{"n":6,"facets":[[1,3,5],[2,3,5],[1,4,5],[2,4,5],[1,3,6],[2,3,6],[1,4,6],[2,4,6]]}',
        """\
{
  "certificate": {
    "J": [
      1,
      2
    ],
    "L": [
      3,
      4
    ],
    "degree": 6,
    "kind": "nonzero_product",
    "p": 0,
    "q": 0
  },
  "trivial": false
}
""",
    ),
    "two_edges": (
        '{"n":4,"facets":[[1,2],[3,4]]}',
        """\
{
  "certificate": {
    "kind": "all_products_vanish",
    "products_checked": 45
  },
  "trivial": true
}
""",
    ),
    "point_beside_simplex": (  # minimal non-faces {1, v}, v = 2..6, all meeting at 1
        '{"n":6,"facets":[[1],[2,3,4,5,6]]}',
        """\
{
  "certificate": {
    "kind": "disjoint_supports_absent",
    "positive_entries": 31
  },
  "trivial": true
}
""",
    ),
    "ghost_beside_edge": (  # vertex 3 in no facet: the one minimal non-face {3}
        '{"n":3,"facets":[[1,2]]}',
        """\
{
  "certificate": {
    "kind": "disjoint_supports_absent",
    "positive_entries": 1
  },
  "trivial": true
}
""",
    ),
    "random_7_seed_5": (  # generate.random_complex(7, seed=5)
        '{"n":7,"facets":[[3,5,6],[1,2,6,7],[1,2,4,5,7]]}',
        """\
{
  "certificate": {
    "kind": "all_products_vanish",
    "products_checked": 1035
  },
  "trivial": true
}
""",
    ),
}


@pytest.mark.parametrize("name", sorted(RING_GOLDEN))
def test_ring_report_bytes_are_unchanged(capsys, name):
    source, expected = RING_GOLDEN[name]
    code, out = run_cli(capsys, ["ring", "--input", source])
    assert code == 0
    assert out == expected


# sha256 of stdout on `mac generate` inputs, captured while each K_I was still
# rebuilt from the cut facets and its columns were basis positions
REPORT_DIGESTS = [
    ("betti", "cycle", 13, "d663ad5917f2b119e64089fad660f817f870dbd8082f1a57e49a539d189b589f"),
    ("ring", "cycle", 12, "5fe88a415f28653eac1aefba6f3613053dd7c9740b549adb2f1ed66addf36218"),
    ("ring", "cross_polytope", 5, "d52d7b0d7caf6f7644364717abaa5111f37a6ae2f691270811d22da6c639625b"),
    ("loop-ranks", "cycle", 11, "5b8750d6d8c9b5f3965b07d75a052c2db99a998ee751497bf37d8d71633585c5"),
    # captured while every visited K_I was still a restricted cochain complex; unlike a
    # cycle, both reach the elimination branch (degree j >= 1) of the table
    ("betti", "cross_polytope", 5,
     "26f30899e197d7e8a1769ae7f3cabd0c2137be010ef8f34d1f143b124132cec3"),
    ("betti", "random --seed 34", 12,
     "d82ee7dd3c3d92ce5b69ba5bacf7de957699218d4e6cf919271824440dddcc3c"),
    # captured while the ranks were solved by multiplying out one series per degree
    ("loop-ranks --truncation 1000", "cycle", 5,
     "b0350e9e1ea3bab2de793b196b253b2c1ad6f83c840a888a6aa09fd36ea2d497"),
    # captured while the cell engine still pre-sorted the faces by (size, mask) and
    # classify tried the 1-skeleton witness and Berge before the boundary-join recogniser
    ("oracle-betti --dump-cells", "cycle", 6,
     "0a4f9bc491da17f04ecf0d2f7a6d43fb5dec415a3ff10fb96557082b2f4d1f7c"),
    ("oracle-betti --dump-cells", "cross_polytope", 3,
     "997a9f4530ef4c807a22c1dd819d1dc7dc8db50a365c4ddd934356f6a25e5037"),
    ("classify", "cross_polytope", 4,
     "85ddab902f23d4d8458074af7b9767addd7dee4fc45a5c2a3e02dc1e358d5513"),
    ("classify", "boundary", 5,
     "0b2e2d01302e77b0062d80fc60c32d9844ddea5219bc8266cdbca06fba5a2d61"),
    # captured while one facet skeleton (miss sets and an n^2/2-OR adjacency) served every
    # recogniser; seed 2 is a flag complex with a triangle (flag recogniser), seed 8 goes
    # to Berge with two meeting non-edges (the 1-skeleton witness), and seed 4 goes to
    # Berge with no two non-edges meeting (classify lists every minimal non-face)
    ("nonfaces", "random --seed 2", 10,
     "781d7d70603d0012f94388faa8d005d225712c78b866ab6bae679ddb3a79c93b"),
    ("classify", "random --seed 2", 10,
     "02de52b818dcbaf82ddbb567764c940f2ecb99a5e5a1a782b8c3de2e519991fb"),
    ("nonfaces", "random --seed 8", 10,
     "b16023999a9fc76f6a32fb5d621c0de2a534102c39a950fecc82ce07e680337a"),
    ("classify", "random --seed 8", 10,
     "30461fdbf00b67a90c1b30fdfb4f60751858e316040c436c4253cadb334aa2e3"),
    ("nonfaces", "random --seed 4", 10,
     "3eb2fe8bb11c7a0d4288a88cea787c4f785ec01426102147b0b03d0906a70331"),
    ("classify", "random --seed 4", 10,
     "0c9f392dfd32fc619d308e8d7caec018b5d4c4236285df79904c4b5912eade83"),
    ("nonfaces", "cycle", 20, "56faa3bee35c56d6680b795683f8f37828b9f8160047957cb6d7e30c41596f62"),
]


@pytest.mark.parametrize("command, family, size, digest", REPORT_DIGESTS)
def test_report_digests_are_unchanged(capsys, command, family, size, digest):
    # ``family`` may carry generator options after the family name
    _, generated = run_cli(capsys, ["generate", "--family", *family.split(), "--size", str(size)])
    code, out = run_cli(capsys, [*command.split(), "--input", generated])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),  # nan, -0.0 and both infinities included
    st.text(),  # quotes, control characters and non-ASCII included
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.integers(), children),
    ),
    max_leaves=30,
)


@given(JSON_TREES)
@example({"a": [[], {}, [[]], {"b": {}}, [{}]], "": {}})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 0.5])
@example({"x": {2: {"y": [1, -2]}, -1: []}, "z": [True, False, None, 3]})
@example(["\"q\" \\ \n\t\x00\x1f\x7f é 漢 😀", 10**60, -(10**60)])
# lists of records that share one key set, as the betti report's entries do, and near misses
@example({"entries": [{"I": [], "j": -1, "dim": 1}, {"I": [1, 3], "j": 0, "dim": 2}]})
@example([{"a": True, "b": None, "c": 1}, {"a": 2, "b": False, "c": [True, 1]}])
@example([{"x": 10**60, "y": [-(10**60), 1]}, {"x": -(10**60), "y": []}])
@example([{"k": {"m": [1, 2]}, "l": 1}, {"k": {}, "l": [{"m": 1}, {"m": 2}]}])
@example([{1: [2], 2: 3}, {1: [], 2: 4}])
@example([{"a": 1}, {"b": 2}, {"a": 1, "b": 2}, {"a": [1]}, [1]])
def test_report_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_schema_states_the_vertex_bound_once():
    top = complexes.MAX_VERTICES
    assert SCHEMA["$defs"]["vertex_bound"]["maximum"] == top
    assert json.dumps(SCHEMA).count(str(top)) == 1
    jsonschema.validate({"n": top, "facets": [[top]]}, SCHEMA)
    for report in ({"n": top + 1, "facets": []}, {"n": top, "facets": [[top + 1]]}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, SCHEMA)


def test_ghost_vertex_exit_code(capsys):
    code, report = run_json(
        capsys, ["nonfaces", "--input", GHOST_JSON]
    )
    assert code == 2
    assert report["error"]["type"] == "GhostVertexError"
    assert "vertex 3" in report["error"]["message"]


def test_limit_exit_code(capsys):
    code, report = run_json(capsys, ["betti", "--input", '{"n":22,"facets":[[1]]}'])
    assert code == 3
    assert report["error"]["type"] == "ResourceError"
    for command in ("oracle-betti", "crosscheck"):
        code, report = run_json(capsys, [command, "--input", C4_JSON, "--limit-cells", "10"])
        assert code == 3
        assert report["error"]["type"] == "ResourceError"


@pytest.mark.parametrize("command", ["betti", "ring"])
def test_table_guard_fires_without_limit_n(capsys, command):
    # no CLI option guards the table; it refuses n = 21 before building the 2^21-bit truth tables
    code, report = run_json(capsys, [command, "--input", '{"n":21,"facets":[[1]]}'])
    assert code == 3
    assert report["error"] == {
        "type": "ResourceError",
        "message": "table finds the unions of minimal non-faces on truth tables of "
        "2^21 bits; limit is n <= 20",
    }


@pytest.mark.parametrize("command", ["oracle-betti", "crosscheck"])
def test_cell_count_guard_fires_before_any_work(capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("work started before the cell count was checked")

    monkeypatch.setattr(complexes.SimplicialComplex, "face_masks", refuse)
    monkeypatch.setattr(cli, "hochster_betti", refuse)
    code, report = run_json(capsys, [command, "--input", '{"n":20,"facets":[[1]]}'])
    assert code == 3
    assert report["error"] == {
        "type": "ResourceError",
        "message": "at least 2^20 cells exceed the configured limit of 531441",
    }


def test_loop_ranks_refuses_a_truncation_above_the_limit(capsys):
    code, report = run_json(capsys, ["loop-ranks", "--truncation", str(10**18), "--input", C5_JSON])
    assert code == 3
    assert report["error"] == {
        "type": "ResourceError",
        "message": f"truncation N={10**18} exceeds the limit of 1000",
    }


C25_JSON = json.dumps(cycle(25).to_json_dict())


@pytest.mark.parametrize("command", ["classify", "nonfaces", "loop-ranks"])
def test_limit_n_refuses_a_larger_complex(capsys, command):
    code, report = run_json(capsys, [command, "--input", C25_JSON])
    assert code == 3
    assert report["error"] == {
        "type": "ResourceError",
        "message": f"n=25 exceeds the limit of 24 for '{command}' (raise it with --limit-n)",
    }


@pytest.mark.parametrize(
    "command, option", [("classify", "--limit-n"), ("crosscheck", "--limit-cells")]
)
@pytest.mark.parametrize("value", ["-1", "abc"])
def test_malformed_limits_are_refused_when_parsed(capsys, command, option, value):
    # a negative limit is malformed like a non-integer one: exit 2 before any input is read
    with pytest.raises(SystemExit) as exc:
        cli.main([command, option, value, "--input", "no such file"])
    assert exc.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err
    code, report = run_json(capsys, [command, option, "0", "--input", C4_JSON])  # 0 is a limit
    assert code == 3
    assert report["error"]["type"] == "ResourceError"


def test_limit_n_admits_a_complex_once_raised(capsys):
    code, report = run_json(capsys, ["classify", "--limit-n", "25", "--input", C25_JSON])
    assert code == 0
    assert report["witness_I"] == [1, 3, 4]


def test_crosscheck_on_c13_and_loop_ranks_on_c21_run(capsys):
    # only the stages' own checks apply: C13 has 88,064 cells, C21's witness 3 vertices
    code, report = run_json(capsys, ["crosscheck", "--input", json.dumps(cycle(13).to_json_dict())])
    assert code == 0
    assert report["equal"] is True
    assert report["hochster"][3] == 65
    code, report = run_json(capsys, ["loop-ranks", "--input", json.dumps(cycle(21).to_json_dict())])
    assert code == 0
    assert report["model"] == {"kind": "wedge", "dims": [3, 3, 4]}
    assert report["verdict"] == "exponential"


@pytest.mark.parametrize(
    "command, option",
    [(command, "--seed") for command in cli.HANDLERS]
    + [
        (command, "--limit-cells")
        for command in (*cli.HANDLERS, "generate")
        if command not in ("oracle-betti", "crosscheck")
    ]
    + [(command, "--limit-n") for command in ("betti", "ring", "oracle-betti", "crosscheck")]
    + [("classify", "--limit")],  # no prefix stands in for --limit-n
)
def test_options_exist_only_where_they_act(command, option):
    if command == "generate":
        argv = ["generate", "--family", "cycle", "--size", "5"]
    else:
        argv = [command, "--input", C4_JSON]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, option, "1"])
    assert exc.value.code == 2


def test_bad_input_exit_code(capsys, tmp_path):
    code, report = run_json(capsys, ["classify", "--input", "no-such-file.json"])
    assert code == 2
    assert report["error"]["type"] == "InputError"
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    code, report = run_json(capsys, ["classify", "--input", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "source",
    [
        '{"n": true, "facets": [[1]]}',
        '{"n": 3.9, "facets": [[1, 2], [3]]}',
        '{"n": 3, "facets": [[1, 2.7], [3]]}',
        '{"n": 3, "facets": [["1", 2], [3]]}',
    ],
)
def test_non_integer_input_exit_code(capsys, source):
    code, report = run_json(capsys, ["nonfaces", "--input", source])
    assert code == 2
    assert report["error"]["type"] == "InputError"


def _non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "facets": [[1]], "note": "caf\xe9"}')
    return str(path)


@pytest.mark.parametrize(
    "bad",
    [
        _non_utf8_file,
        lambda _: '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}",  # nesting depth
        lambda _: '{"n": ' + "1" * 4301 + ', "facets": [[1]]}',  # int-string digit limit
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_malformed_input_is_an_input_error_in_a_batch(capsys, tmp_path, bad):
    source = bad(tmp_path)
    code, report = run_json(capsys, ["classify", "--input", C4_JSON, "--input", source])
    assert code == 2
    assert report[0]["report"] == {"kind": "elliptic", "spheres": [3, 3], "disk": 0}
    assert report[1]["report"]["error"]["type"] == "InputError"


def test_invalid_json_message_is_unchanged(capsys):
    code, report = run_json(capsys, ["classify", "--input", '{"n": 4,'])
    assert code == 2
    assert report["error"]["message"].startswith("input is not valid JSON: ")


def test_input_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c4.json"
    path.write_text(C4_JSON)
    code, report = run_json(capsys, ["classify", "--input", str(path)])
    assert report["kind"] == "elliptic"

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(C5_JSON))
    code, report = run_json(capsys, ["classify", "--input", "-"])
    assert report["kind"] == "hyperbolic"


def test_batch_inputs_run_in_order(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(C4_JSON)
    b.write_text(C5_JSON)
    code, report = run_json(
        capsys, ["classify", "--input", str(a), "--input", str(b)]
    )
    assert code == 0
    assert [item["report"]["kind"] for item in report] == ["elliptic", "hyperbolic"]
    assert [item["input"] for item in report] == [str(a), str(b)]


def test_batch_exit_code_is_worst(capsys):
    code, report = run_json(
        capsys,
        ["nonfaces", "--input", C4_JSON, "--input", GHOST_JSON],
    )
    assert code == 2
    assert report[0]["report"]["members"] == [[1, 3], [2, 4]]
    assert report[1]["report"]["error"]["type"] == "GhostVertexError"


def test_text_format(capsys):
    code, out = run_cli(capsys, ["classify", "--input", C4_JSON, "--format", "text"])
    assert code == 0
    assert out.strip() == "elliptic: spheres [3, 3], disk 0"
    code, out = run_cli(capsys, ["crosscheck", "--input", C4_JSON, "--format", "text"])
    assert "engines agree" in out


def test_text_format_batch(capsys):
    code, out = run_cli(
        capsys,
        ["classify", "--input", C4_JSON, "--input", C5_JSON, "--format", "text"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("elliptic: spheres [3, 3], disk 0")
    assert "hyperbolic" in lines[1]


# each expected line is the recorded output of `mac ... --format text`
@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["nonfaces", "--input", C5_JSON], 0,
         "n=5, minimal non-faces [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]"),
        (["betti", "--input", C4_JSON], 0, "betti [1, 0, 0, 2, 0, 0, 1] (4 table entries)"),
        (["oracle-betti", "--input", C4_JSON], 0, "betti [1, 0, 0, 2, 0, 0, 1] (64 cells)"),
        (["ring", "--input", C4_JSON], 0,
         "non-trivial ring; certificate {'kind': 'nonzero_product', 'J': [1, 3], 'p': 0, "
         "'L': [2, 4], 'q': 0, 'degree': 6}"),
        (["ring", "--input", RING_GOLDEN["two_edges"][0]], 0,
         "trivial ring; certificate {'kind': 'all_products_vanish', 'products_checked': 45}"),
        (["loop-ranks", "--input", C4_JSON], 0, "finite; ranks [0, 2" + ", 0" * 22 + "]"),
        (["loop-ranks", "--input", C5_JSON], 0,
         "exponential, ratio 1.517716; ranks [0, 2, 1, 1, 2, 3, 4, 5, 8, 13, 18, 25, 40, 62, "
         "90, 135, 210, 324, 492, 750, 1164, 1809, 2786, 4305]"),
        (["generate", "--family", "cycle", "--size", "5"], 0,
         "n=5, facets [[1, 2], [2, 3], [3, 4], [1, 5], [4, 5]]"),
        (["nonfaces", "--input", GHOST_JSON], 2,
         "error[GhostVertexError]: vertex 3 is not a face of the complex; "
         "remove absent vertices before computing minimal non-faces"),
    ],
    ids=["nonfaces", "betti", "oracle-betti", "ring-nontrivial", "ring-trivial",
         "loop-ranks-finite", "loop-ranks-exponential", "generate", "error"],
)
def test_text_format_of_every_command(capsys, argv, code, line):
    assert run_cli(capsys, [*argv, "--format", "text"]) == (code, line + "\n")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("mac")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "classify", "--input", C4_JSON], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "elliptic"


def test_module_entry_point_matches_in_process(capsys):
    argv = ["classify", "--input", C4_JSON, "--input", GHOST_JSON, "--input", C5_JSON]
    proc = subprocess.run(
        [sys.executable, "-m", "macomplex.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    code, out = run_cli(capsys, argv)
    assert proc.returncode == code == 2
    assert proc.stdout == out.encode()
