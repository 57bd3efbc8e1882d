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
    return hochster_table(K).to_json_dict()


def _report_oracle(K, args):
    complex = cells.build(K, cell_limit=args.limit_cells)
    report = {"betti": complex.betti_numbers(), "cells": complex.cell_count}
    if args.dump_cells:
        report["chain"] = complex.to_json_dict()
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
    complex = cells.build(K, cell_limit=args.limit_cells)  # refuses before any Hochster work
    hochster, oracle = hochster_betti(K), complex.betti_numbers()
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
    """Execute a parsed command; returns (exit code, JSON-serialisable report).

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
    ints, strings) directly, joins a list of ints in one call, writes a list
    of records through ``_records``, and hands every other value to
    ``json.dumps`` itself, re-indented to its depth.
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
        elif _are_records(value):
            items = _records(value, inner)
        else:
            items = [_dumps(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _are_records(values: list) -> bool:
    """Whether ``values`` are dicts that share one non-empty set of str keys."""
    first = values[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return False
    keys = first.keys()
    return all(type(v) is dict and v.keys() == keys for v in values)


def _records(records: list[dict], pad: str) -> list[str]:
    """``_dumps`` of each record at ``pad``, through one template for the shared keys.

    The keys are sorted and encoded once.  An int leaf, or a non-empty list
    of ints, is written here; any other leaf goes back to ``_dumps``.
    """
    inner = pad + "  "
    keys = sorted(records[0])
    fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{\n" + inner + (",\n" + inner).join(fields) + "\n" + pad + "}"
    list_open, list_sep, list_close = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
    out = []
    for record in records:
        texts = []
        for key in keys:
            leaf = record[key]
            kind = type(leaf)
            if kind is int:
                texts.append(int.__repr__(leaf))
            elif kind is list and leaf and _INT.issuperset(map(type, leaf)):
                texts.append(list_open + list_sep.join(map(int.__repr__, leaf)) + list_close)
            else:
                texts.append(_dumps(leaf, inner))
        out.append(template % tuple(texts))
    return out


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
                help="largest n on which the minimal non-face enumeration runs",
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
