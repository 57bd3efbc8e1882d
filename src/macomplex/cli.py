"""Batch front door: parse complexes, dispatch commands, emit JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import cells
from .classify import classify
from .cohomology import hochster_betti, hochster_table, is_trivial_ring
from .complexes import SimplicialComplex, full_subcomplex
from .errors import InputError, MacError, ResourceError
from .generate import FAMILIES, generate
from .loops import free_lie_ranks, growth_certificate, product_ranks, wedge_model, SphereModel
from .nonfaces import minimal_nonfaces


def _load_complex(text: str) -> SimplicialComplex:
    source = text.strip()
    try:
        if source == "-":
            source = sys.stdin.read().strip()
        elif not source.startswith("{"):
            with open(text, encoding="utf-8") as handle:
                source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input file {text!r}: {exc}")
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:  # nesting depth; int-string digit limit
        raise InputError(f"input exceeds the JSON parser's limits: {exc}")
    return SimplicialComplex.from_json_dict(data)


def _report_classify(K, args):
    return classify(K).to_json_dict()


def _report_nonfaces(K, args):
    return minimal_nonfaces(K).to_json_dict()


def _report_betti(K, args):
    table = hochster_table(K)
    return {"betti": table.betti, "entries": table.entries}


def _report_oracle(K, args):
    betti, count = cells.betti(K, cell_limit=args.limit_cells)
    report = {"betti": betti, "cells": count}
    if args.dump_cells:
        report["chain"] = cells.build(K, cell_limit=args.limit_cells).to_json_dict()
    return report


def _report_ring(K, args):
    trivial, certificate = is_trivial_ring(K)
    return {"trivial": trivial, "certificate": certificate}


def _report_loop_ranks(K, args):
    verdict = classify(K)
    if verdict.is_elliptic:
        model = SphereModel(kind="product", dims=verdict.sphere_dims)
        ranks = product_ranks(model, N=args.truncation)
    else:
        witness = full_subcomplex(K, verdict.witness_mask)
        model = wedge_model(witness)
        ranks = free_lie_ranks(model, N=args.truncation)
    growth = growth_certificate(model, ranks)
    return {
        "model": model.to_json_dict(),
        "ranks": list(ranks[1:]),
        **growth.to_json_dict(),
    }


def _report_crosscheck(K, args):
    oracle, _ = cells.betti(K, cell_limit=args.limit_cells)  # refuses before any Hochster work
    hochster = hochster_betti(K)
    return {"hochster": hochster, "oracle": oracle, "equal": hochster == oracle}


HANDLERS = {
    "classify": _report_classify,
    "nonfaces": _report_nonfaces,
    "betti": _report_betti,
    "oracle-betti": _report_oracle,
    "ring": _report_ring,
    "loop-ranks": _report_loop_ranks,
    "crosscheck": _report_crosscheck,
}


def _error_report(exc: MacError) -> tuple[int, dict]:
    code = 3 if isinstance(exc, ResourceError) else 2
    return code, {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _run_one(args: argparse.Namespace, source: str) -> tuple[int, dict]:
    try:
        K = _load_complex(source)
        if "limit_n" in args and K.n > args.limit_n:
            raise ResourceError(
                f"n={K.n} exceeds the limit of {args.limit_n} for '{args.command}' "
                "(raise it with --limit-n)"
            )
        return 0, HANDLERS[args.command](K, args)
    except MacError as exc:
        return _error_report(exc)


def run(args: argparse.Namespace) -> tuple[int, object]:
    """Execute a parsed command; returns (exit code, report for ``_dumps``).

    Several inputs run one after another, in order; the exit code is the
    worst of theirs.
    """
    if args.command == "generate":
        try:
            return 0, generate(args.family, size=args.size, seed=args.seed).to_json_dict()
        except MacError as exc:
            return _error_report(exc)
    if len(args.input) == 1:
        return _run_one(args, args.input[0])
    results = [_run_one(args, source) for source in args.input]
    batch = [{"input": label, "report": report} for label, (_, report) in zip(args.input, results)]
    return max(code for code, _ in results), batch


_INT = frozenset([int])  # the type set of a list of exact ints; bool is a type of its own


def _dumps(value, pad: str = "") -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)``, nested at ``pad``.

    With ``indent`` set, ``json.dumps`` always runs the pure-Python encoder.
    This walks the shapes reports are made of (str-keyed dicts, lists, exact
    ints, strings) directly, joins a list of ints in one call, and hands
    every other value to ``json.dumps`` itself, re-indented to its depth.
    A Hochster table's ``entries``, keyed by (I, j) tuples that
    ``json.dumps`` would refuse, go to ``_hochster_entries``, which writes
    them as a list of records.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = pad + "  "
    if kind is list and value:
        if _INT.issuperset(map(type, value)):
            items = map(int.__repr__, value)
        else:
            items = [_dumps(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is dict and value and type(next(iter(value))) is tuple:
        return _hochster_entries(value, pad)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _vertex_texts(first: int, count: int, item: str) -> list[str]:
    """``item % v`` joined over the vertices v of each subset of first + 1..first + count.

    Indexed by the subset's mask shifted down by ``first``; each text is
    its smaller subset's text with the top vertex's appended.
    """
    texts = [""]
    for v in range(first + 1, first + count + 1):
        piece = item % v
        texts += [text + piece for text in texts]
    return texts


def _hochster_entries(entries: dict[tuple[int, int], int], pad: str) -> str:
    """``_dumps`` at ``pad`` of the records {"I": vertices of I, "dim": dim, "j": j}.

    ``entries`` maps (I mask, j) to dim in ascending (I, j) order, the
    order the records are written in, so its last I is the largest.  One
    pass fills one template per record, and I's vertex list is three
    lookups in the texts of its low, middle and high vertices (1-8, 9-16,
    17 up), each written with its trailing comma.  No dict or vertex list
    is built per record.
    """
    inner = pad + "  "
    field = inner + "  "
    tail = ",\n" + field + '"dim": %d,\n' + field + '"j": %d\n' + inner + "}"
    record = "{\n" + field + '"I": [%s\n' + field + "]" + tail
    empty = "{\n" + field + '"I": []' + tail
    top = next(reversed(entries))[0].bit_length()
    item = "\n" + field + "  %d,"
    low = _vertex_texts(0, min(top, 8), item)
    middle = _vertex_texts(8, min(max(top - 8, 0), 8), item)
    high = _vertex_texts(16, max(top - 16, 0), item)
    texts = [
        record % ((low[I & 255] + middle[I >> 8 & 255] + high[I >> 16])[:-1], dim, j)
        if I else empty % (dim, j)
        for (I, j), dim in entries.items()
    ]
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"


def _render_text(command: str, report) -> str:
    if isinstance(report, list):
        return "\n".join(
            f"{item['input']}: {_render_text(command, item['report'])}" for item in report
        )
    if "error" in report:
        err = report["error"]
        return f"error[{err['type']}]: {err['message']}"
    if command == "classify":
        if report["kind"] == "elliptic":
            return f"elliptic: spheres {report['spheres']}, disk {report['disk']}"
        return (
            f"hyperbolic: witness {report['witness_I']}, "
            f"non-faces {report['witness_nonfaces']}"
        )
    if command == "nonfaces":
        return f"n={report['n']}, minimal non-faces {report['members']}"
    if command == "betti":
        return f"betti {report['betti']} ({len(report['entries'])} table entries)"
    if command == "oracle-betti":
        return f"betti {report['betti']} ({report['cells']} cells)"
    if command == "ring":
        state = "trivial" if report["trivial"] else "non-trivial"
        return f"{state} ring; certificate {report['certificate']}"
    if command == "loop-ranks":
        ratio = f", ratio {report['ratio']}" if report["ratio"] is not None else ""
        return f"{report['verdict']}{ratio}; ranks {report['ranks']}"
    if command == "crosscheck":
        state = "agree" if report["equal"] else "DISAGREE"
        return f"engines {state}: hochster {report['hochster']}, oracle {report['oracle']}"
    return f"n={report['n']}, facets {report['facets']}"  # generate


def _limit(text: str) -> int:
    """A limit option's value: an int of at least 0, or argparse exits with code 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"a limit cannot be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mac",
        description="Classify moment-angle complexes and verify the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*HANDLERS, "generate"):
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        if name == "generate":
            cmd.add_argument("--family", choices=FAMILIES, required=True)
            cmd.add_argument(
                "--size",
                type=int,
                required=True,
                help="dimension q (simplex/boundary), length m (cycle), "
                "factor count k (cross_polytope) or vertex count n (random)",
            )
            cmd.add_argument("--seed", type=int, default=0)
            continue
        cmd.add_argument(
            "--input",
            action="append",
            required=True,
            help="path to a complex JSON file, inline JSON, or - for stdin",
        )
        if name in ("classify", "nonfaces", "loop-ranks"):
            cmd.add_argument(
                "--limit-n", type=_limit, default=24,
                help="largest n accepted; a larger input is refused before any work",
            )
        if name in ("oracle-betti", "crosscheck"):
            cmd.add_argument("--limit-cells", type=_limit, default=cells.DEFAULT_CELL_LIMIT)
        if name == "loop-ranks":
            cmd.add_argument("--truncation", type=int, default=24)
        if name == "oracle-betti":
            cmd.add_argument("--dump-cells", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, report = run(args)
    if args.format == "text":
        print(_render_text(args.command, report))
    else:
        print(_dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
