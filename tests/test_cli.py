import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from macomplex import cli, complexes, cycle, from_facets

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
    assert from_facets(report["n"], report["facets"]) == cycle(5)

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

    for module, name in ((families, "from_facets"), (families, "join"), (complexes, "VertexSet")):
        monkeypatch.setattr(module, name, build)
    code, report = run_json(capsys, ["generate", "--family", family, "--size", str(size)])
    assert code == 2
    assert report["error"]["message"] == "vertex count 64 must be an integer in 0..63"


def test_reports_are_byte_identical(capsys):
    for argv in (
        ["classify", "--input", C5_JSON],
        ["betti", "--input", C4_JSON],
        ["loop-ranks", "--input", C5_JSON],
    ):
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


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


def test_table_guard_fires_above_a_raised_limit_n(capsys):
    # --limit-n 30 passes the CLI check; the 2^21-subset table refuses before enumerating
    code, report = run_json(
        capsys, ["betti", "--limit-n", "30", "--input", '{"n":21,"facets":[[1]]}']
    )
    assert code == 3
    assert report["error"]["type"] == "ResourceError"
    assert "2^21" in report["error"]["message"]


@pytest.mark.parametrize(
    "command, option",
    [(command, "--seed") for command in cli.HANDLERS]
    + [
        (command, "--limit-cells")
        for command in (*cli.HANDLERS, "generate")
        if command not in ("oracle-betti", "crosscheck")
    ]
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
