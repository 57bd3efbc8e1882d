"""Benchmark of the `mac` CLI: end to end by subprocess, per layer by a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload verdict --seed 1 --seconds 40 --trace 0

``--trace 0`` is a closed loop with one client: every request is its own
``python -m macomplex.cli`` process (with PYTHONPATH=src), and the next one
starts when the previous one has exited.  One pass sends each request of
the workload once; passes repeat until ``--seconds`` is used up.  Every
report goes through the independent checker after the timed passes.

``--trace 1`` sends the same requests once more by subprocess to get the
reference bytes, then calls ``macomplex.cli.main`` in this process,
alternating passes without and with the span wrappers of ``tracing.py``.
The traced reports must equal the subprocess bytes; per-layer numbers are
medians over the traced passes, and counts must repeat exactly.

The last line of stdout is the result; the line before it holds the
provenance and sample counts.  Spans of the last traced pass are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checker
import tracing
import workloads

PROBE_EVERY = 4  # requests between two set-up probes
SETUP_MIN = 11
SPIN_REF_S = 0.010  # nominal duration of one calibration spin
SPIN_WINDOW = 2  # a sample's speed factor: median of the 3 spins before it and the 3 after
REQUEST_TIMEOUT_S = 30
OUT_DIR = Path(".bench_out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


class Client:
    """Runs one `mac` request per process and keeps its wall time and max RSS."""

    def __init__(self, root: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = OUT_DIR / "stderr.txt"

    def run(self, args: list[str]):
        """(exit code or None on timeout, stdout bytes, wall seconds, max RSS in MiB)."""
        argv = [sys.executable, *args]
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env)
            timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
            timer.start()
            try:
                out = proc.stdout.read()
                # wait4 rather than Popen.wait: it also returns the child's max RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
                proc.stdout.close()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed.is_set() else proc.returncode
        return code, out, wall, usage.ru_maxrss / 1024

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-400:]


def write_inputs(name: str, seed: int, requests) -> list[list[str]]:
    """Write each complex to its own file; returns the --input paths per request."""
    folder = OUT_DIR / "inputs" / f"{name}-s{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for r, request in enumerate(requests):
        mine = []
        for c, case in enumerate(request.cases):
            path = folder / f"{r:02d}-{c}-{case.name}.json"
            path.write_text(case.to_json())
            mine.append(path.as_posix())
        paths.append(mine)
    return paths


def check_output(request, code, out: bytes) -> str | None:
    """Checker verdict on one request's exit code and stdout."""
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if len(request.cases) > 1:
        if not isinstance(report, list) or len(report) != len(request.cases):
            return "batched report has the wrong length"
        reports = [item.get("report") for item in report]
    else:
        reports = [report]
    for case, item in zip(request.cases, reports):
        problem = checker.check(request.command, case, item, request.truncation)
        if problem:
            return f"{case.name}: {problem}"
    return None


def spin() -> float:
    """Duration of a fixed pure-Python job (dict and integer work) in this process.

    The host's speed drifts by a factor of up to 1.5 over tens of seconds;
    a spin next to each sample measures that speed independently of the
    package.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) ^ i
    return time.perf_counter() - start


def setup_probe(client: Client) -> float:
    """Wall time of a fresh interpreter importing the CLI, which every request pays."""
    code, _, wall, _ = client.run(["-c", "import macomplex.cli"])
    if code != 0:
        raise RuntimeError(f"importing macomplex.cli failed: {client.stderr()}")
    return wall


def tail(samples: list[float], percentile: int) -> tuple[float, int]:
    """The percentile's value (nearest rank) and how many samples lie above it."""
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, -(-percentile * len(ordered) // 100) - 1))
    return ordered[index], len(ordered) - 1 - index


def timed_passes(client, requests, paths, seconds):
    """Closed loop, one client: whole passes until the next would overrun.

    A set-up probe runs after every PROBE_EVERY requests, so set-up time is
    sampled across the whole run like the requests are.  A calibration spin
    precedes every request and probe.  Returns the latencies, the probe
    times, the speed factor of each (SPIN_REF_S over the median of the
    nearby spins), the max RSS per request, and the key (request index,
    exit code, stdout) of every sample.
    """
    latencies, setup, rss, keys = [], [], [], []
    spins, latency_spin, setup_spin = [], [], []
    pass_times = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, request in enumerate(requests):
            latency_spin.append(len(spins))
            spins.append(spin())
            code, out, wall, maxrss = client.run(["-m", "macomplex.cli", *request.argv(paths[i])])
            latencies.append(wall)
            rss.append(maxrss)
            keys.append((i, code, out))
            if len(keys) % PROBE_EVERY == 0:
                setup_spin.append(len(spins))
                spins.append(spin())
                setup.append(setup_probe(client))
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(pass_times) >= 2 and elapsed + statistics.median(pass_times) > seconds:
            break
    while len(setup) < SETUP_MIN:
        setup_spin.append(len(spins))
        spins.append(spin())
        setup.append(setup_probe(client))
    spins.append(spin())

    def factor(j):
        return SPIN_REF_S / statistics.median(spins[max(0, j - SPIN_WINDOW):j + SPIN_WINDOW + 2])

    return (latencies, [factor(j) for j in latency_spin], setup, [factor(j) for j in setup_spin],
            rss, keys)


def baselines(name: str) -> dict:
    """The roadmap's reference timings that fall inside this workload, in-process."""
    from macomplex.classify import classify
    from macomplex.cohomology import hochster_betti
    from macomplex.generate import cycle

    cases = {
        "verdict": ("classify(cycle(63))_s", lambda: classify(cycle(63))),
        "algebra": ("hochster_betti(cycle(14))_s", lambda: hochster_betti(cycle(14))),
    }
    if name not in cases:
        return {}
    label, call = cases[name]
    start = time.perf_counter()
    call()
    return {label: time.perf_counter() - start}


def run_end_to_end(args, client, requests, paths, info):
    setup_probe(client)  # warm-up: byte-compiles the package once, as an install would
    raw, speed, raw_setup, setup_speed, rss, keys = timed_passes(
        client, requests, paths, args.seconds)
    failures = []
    rejected = set()
    for key in dict.fromkeys(keys):  # each distinct output is checked once
        i, code, out = key
        problem = check_output(requests[i], code, out)
        if problem:
            failures.append(f"request {i} ({requests[i].command}): {problem}")
            rejected.add(key)
    attempted = len(keys)
    failed = sum(key in rejected for key in keys)
    percentile = workloads.WORKLOADS[args.workload].tail_percentile

    def summary(latencies, setup):
        per_request = [statistics.median(latencies[i::len(requests)])
                       for i in range(len(requests))]
        return {
            # one pass in sequence: each request's median over the passes, summed
            "wall_s": sum(per_request),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail(latencies, percentile)[0],
            "setup_s": statistics.median(setup),
        }, per_request

    adjusted, per_request = summary([t * f for t, f in zip(raw, speed)],
                                    [t * f for t, f in zip(raw_setup, setup_speed)])
    unadjusted, raw_per_request = summary(raw, raw_setup)
    info.update(
        passes=attempted // len(requests), requests_per_pass=len(requests), samples=attempted,
        setup_samples=len(raw_setup), tail_percentile=percentile,
        samples_above_tail=tail(raw, percentile)[1],
        speed_factor_median=statistics.median(speed), unadjusted=unadjusted,
        request_median_s=per_request, unadjusted_request_median_s=raw_per_request,
        failures=failures[:10],
    )
    metrics = {name: (value, "s") for name, value in adjusted.items()}
    metrics["peak_rss_mb"] = (max(rss), "MiB")
    metrics["success_ratio"] = ((attempted - failed) / attempted, "ratio")
    return not failures, attempted, failed, metrics


def in_process_pass(requests, paths, tracer=None):
    """One pass through macomplex.cli.main in this process; (seconds, outputs)."""
    cli = sys.modules["macomplex.cli"]
    outputs = []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if tracer:
            tracer.request = i
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(request.argv(paths[i]))
        outputs.append((code, buffer.getvalue().encode()))
    return time.perf_counter() - start, outputs


def run_traced(args, client, requests, paths, info):
    failures: list[str] = []  # requests whose report was wrong
    problems: list[str] = []  # counts that did not repeat
    reference = []
    for i, request in enumerate(requests):
        code, out, _, _ = client.run(["-m", "macomplex.cli", *request.argv(paths[i])])
        reference.append((code, out))
        problem = check_output(request, code, out)
        if problem:
            failures.append(f"request {i} ({request.command}): {problem}")
    import macomplex.cli  # noqa: F401  (the traced passes call it in-process)

    plain, traced, per_pass = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + statistics.median(plain) + statistics.median(traced) <= args.seconds):
        seconds, outputs = in_process_pass(requests, paths)
        plain.append(seconds)
        tracer.spans.clear()
        tracer.install()
        try:
            seconds, traced_outputs = in_process_pass(requests, paths, tracer)
        finally:
            tracer.uninstall()
        traced.append(seconds)
        for i, (untraced_out, traced_out, ref) in enumerate(zip(outputs, traced_outputs, reference)):
            if not untraced_out == traced_out == ref:
                failures.append(f"request {i}: in-process report differs from the subprocess bytes")
        per_pass.append(tracing.layer_metrics(
            tracer.spans, sum(len(out) for _, out in traced_outputs)))
    for name in tracing.COUNTS:
        if len({m[name] for m in per_pass}) > 1:
            problems.append(f"count {name} differs between passes: {[m[name] for m in per_pass]}")
    tracer.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
    untraced_s = statistics.median(plain)
    traced_s = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100 * (traced_s - untraced_s) / untraced_s, "%")
    info.update(traced_passes=len(traced), requests_per_pass=len(requests),
                spans_last_pass=len(tracer.spans), failures=(failures + problems)[:10])
    attempted = len(requests) * (1 + 2 * len(traced))
    return not failures and not problems, attempted, len(failures), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "macomplex" / "cli.py").is_file():
        print("bench/run.py: run from the root of a macomplex checkout "
              "(src/macomplex/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": loadavg(),
    }
    requests = workloads.build(args.workload, args.seed)
    paths = write_inputs(args.workload, args.seed, requests)
    info["inputs"] = [[c.name for c in r.cases] for r in requests]
    client = Client(root)
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, client, requests, paths, info)
    else:
        correct, attempted, failed, metrics = run_end_to_end(args, client, requests, paths, info)
    info["baselines"] = baselines(args.workload)
    info["loadavg_after"] = loadavg()
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
