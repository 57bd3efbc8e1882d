"""Tests of the benchmark itself: inputs, checker, tracing and output format.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import inputs as I  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from macomplex.cli import main as mac  # noqa: E402


def report(command, case, *options):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = mac([command, *options, "--input", case.to_json()])
    assert code == 0
    return json.loads(buffer.getvalue())


@pytest.fixture
def rng():
    return random.Random(7)


def test_same_seed_same_input_bytes():
    for name in workloads.WORKLOADS:
        first = [c.to_json() for r in workloads.build(name, 3) for c in r.cases]
        second = [c.to_json() for r in workloads.build(name, 3) for c in r.cases]
        assert first == second
        other = [c.to_json() for r in workloads.build(name, 4) for c in r.cases]
        assert first != other


def test_no_input_is_a_full_simplex_or_over_its_limit():
    for name in workloads.WORKLOADS:
        for seed in range(3):
            for request in workloads.build(name, seed):
                for case in request.cases:
                    assert not I.is_full_simplex(case)
    simplex = I.Case("simplex", 3, ((1, 2, 3),))
    with pytest.raises(ValueError, match="full simplex"):
        workloads.guard(workloads.Request("betti", (simplex,)))
    big = I.cycle(random.Random(0), 30)
    with pytest.raises(ValueError, match="limit"):
        workloads.guard(workloads.Request("classify", (big,)))
    workloads.guard(workloads.Request("classify", (big,), ("--limit-n", "63")))


def test_flag_facets_are_the_maximal_cliques(rng):
    case = I.flag(rng, 9)
    facets = {I._mask(f) for f in case.facets}
    edges = {I._mask(e) for e in case.edges}
    for f in facets:
        assert all(I._mask(pair) in edges for pair in combinations(I._bits(f), 2))
        for v in range(1, case.n + 1):
            if not f >> (v - 1) & 1:
                assert not all(I._mask((u, v)) in edges for u in I._bits(f))


def test_checker_accepts_the_program_and_rejects_changes(rng):
    cycle = I.cycle(rng, 7)
    verdict = report("classify", cycle)
    assert checker.check("classify", cycle, verdict) is None
    flipped = {"kind": "elliptic", "spheres": [3, 3], "disk": 0}
    assert checker.check("classify", cycle, flipped) is not None
    wrong_witness = copy.deepcopy(verdict)
    wrong_witness["witness_I"] = sorted(set(range(1, 8)) - set(verdict["witness_I"]))[:3]
    assert checker.check("classify", cycle, wrong_witness) is not None

    nonfaces = report("nonfaces", cycle)
    assert checker.check("nonfaces", cycle, nonfaces) is None
    nonfaces["members"].pop()
    assert checker.check("nonfaces", cycle, nonfaces) is not None

    join = I.boundary_join(rng, (3, 2), 1)
    elliptic = report("classify", join)
    assert elliptic == {"kind": "elliptic", "spheres": [3, 5], "disk": 2}
    assert checker.check("classify", join, elliptic) is None
    assert checker.check("classify", join, dict(elliptic, disk=0)) is not None

    for case in (I.cycle(rng, 7), I.cross_polytope(rng, 3), I.bounded_random(rng, 8, 4, 8)):
        cross = report("crosscheck", case)
        assert checker.check("crosscheck", case, cross) is None
        changed = copy.deepcopy(cross)
        changed["hochster"][3] += 1
        changed["oracle"][3] += 1
        assert checker.check("crosscheck", case, changed) is not None
        table = report("betti", case)
        assert checker.check("betti", case, table) is None
        table["betti"][-1] += 1
        assert checker.check("betti", case, table) is not None


def test_checker_ring_and_loop_ranks(rng):
    cycle = I.cycle(rng, 8)
    ring = report("ring", cycle)
    assert checker.check("ring", cycle, ring) is None
    assert checker.check("ring", cycle, {"trivial": True, "certificate": {
        "kind": "all_products_vanish", "products_checked": 1}}) is not None
    bad = copy.deepcopy(ring)
    bad["certificate"]["degree"] += 1
    assert checker.check("ring", cycle, bad) is not None

    for case in (cycle, I.cross_polytope(rng, 3), I.flag(rng, 9)):
        loops = report("loop-ranks", case, "--truncation", "40")
        assert checker.check("loop-ranks", case, loops, 40) is None
        changed = copy.deepcopy(loops)
        changed["ranks"][-1] += 1
        assert checker.check("loop-ranks", case, changed, 40) is not None
        flipped = dict(loops, verdict="finite" if loops["verdict"] == "exponential" else "exponential")
        assert checker.check("loop-ranks", case, flipped, 40) is not None


def test_wrappers_reach_every_binding_site():
    import macomplex.cli  # noqa: F401

    tracer = tracing.Tracer()
    originals = {name: getattr(sys.modules[f"macomplex.{name.split('.')[0]}"], name.split(".")[1])
                 for name in ("cells.rank_sparse", "cli.classify", "loops.hochster_betti")}
    tracer.install()
    try:
        sites = tracer.binding_sites()
    finally:
        tracer.uninstall()
    for site in ("cells.rank_sparse", "cli.classify", "cli.hochster_table", "cli.hochster_betti",
                 "cli.is_trivial_ring", "cli.minimal_nonfaces", "cli.wedge_model",
                 "cli.free_lie_ranks", "classify.minimal_nonfaces", "loops.hochster_betti",
                 "loops.is_trivial_ring", "linalg.rank_sparse"):
        assert f"macomplex.{site}" in sites
    for name, original in originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"macomplex.{module}"], attr) is original


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, 0, "cli.main", 0.0, 10.0, None),
        (2, 1, 0, "cli.handler", 1.0, 5.0, None),
        (3, 1, 0, "cli.handler", 4.0, 6.0, None),
    ]
    metrics = tracing.layer_metrics(spans, 0)
    assert metrics["cli.main_s"] == 10.0
    assert metrics["cli.self_s"] == 5.0


def tiny(rng):
    return [
        workloads.Request("classify", (I.cycle(rng, 6), I.boundary_join(rng, (2, 3))),
                          ("--limit-n", "63")),
        workloads.Request("nonfaces", (I.flag(rng, 7),)),
        workloads.Request("crosscheck", (I.cycle(rng, 5),)),
        workloads.Request("ring", (I.cycle(rng, 6),)),
        workloads.Request("betti", (I.cross_polytope(rng, 2),)),
        workloads.Request("loop-ranks", (I.cycle(rng, 6),), ("--truncation", "30")),
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_reported(monkeypatch, capsys, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload("tiny", 50, tiny))
    monkeypatch.setattr(run, "SETUP_MIN", 3)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, json.loads(lines[-2])["failures"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)
    if trace:
        assert result["metrics"]["loops.tables_per_wedge"]["value"] == 2.0
        assert result["metrics"]["cells.cells"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verdict", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
