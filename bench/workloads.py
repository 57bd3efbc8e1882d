"""The three workloads: which requests a pass sends, built from the seed.

Every pass sends the same requests in the same order.  Sizes are fixed per
slot; the seed picks vertex labels and the random graphs and facets, so two
seeds do comparable work on different inputs.  The reasons for each choice
sit next to it; BENCHMARK.json repeats them in short.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs as I

# `mac` refuses inputs above these vertex counts unless --limit-n is passed;
# an input over the cap would turn into an exit-3 failure, so it is refused here.
DEFAULT_LIMIT_N = {"classify": 24, "nonfaces": 24, "betti": 20, "ring": 20,
                   "loop-ranks": 20, "crosscheck": 12}

LOOP_TRUNCATION = 200


@dataclass(frozen=True)
class Request:
    command: str
    cases: tuple
    options: tuple = ()

    def argv(self, paths) -> list[str]:
        out = [self.command, *self.options]
        for path in paths:
            out += ["--input", path]
        return out

    @property
    def truncation(self) -> int:
        if "--truncation" in self.options:
            return int(self.options[self.options.index("--truncation") + 1])
        return 0


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: int  # latency_tail_s; at least 10 samples lie above it per run
    build: object  # seed -> list[Request]


def verdict(rng) -> list[Request]:
    """classify and nonfaces on the same batches of two or three inputs.

    Cycles C20..C40 cost the same whatever their labels and carry most of
    the time; G(n, 1/2) flag complexes (n = 20..26), joins of simplex
    boundaries with a cone (at most 10^3 facets) and flag * boundary joins
    vary with the seed but cost less.  Larger cycles are left to the
    recorded classify(cycle(63)) reference, which alone takes seconds.
    """
    batches = [
        (I.cycle(rng, 40), I.flag(rng, 20)),
        (I.cycle(rng, 36), I.boundary_join(rng, (10, 10, 10), 3), I.flag(rng, 22)),
        (I.cycle(rng, 32), I.boundary_join(rng, (30, 30), 3), I.flag_join(rng, 16, (5,))),
        (I.cycle(rng, 28), I.flag(rng, 24), I.boundary_join(rng, (2,) * 9, 3)),
        (I.cycle(rng, 24), I.flag_join(rng, 18, (4,)), I.boundary_join(rng, (6, 6, 6, 4), 20)),
        (I.cycle(rng, 20), I.flag(rng, 26), I.boundary_join(rng, (25, 20, 2))),
    ]
    return [Request(command, batch, ("--limit-n", "63"))
            for batch in batches for command in ("classify", "nonfaces")]


def crosscheck(rng) -> list[Request]:
    """Both Betti engines, one input of n = 8..10 each.

    The cellular rank step dominates.  Cycles, cross polytopes and boundary
    joins have closed-form answers and cost the same for every seed; G(n, 1/2)
    flag and bounded random complexes (facets of size <= n/2) vary with it.
    The cheap third, the middle five (C10 and four copies of the cross
    polytope, all of one cost) and the slow third are kept apart, so the
    median falls inside a group of equal requests rather than in a gap
    between two groups.  No full simplex and no cross polytope of dimension
    5, whose cellular rank alone takes about 19 s.
    """
    cases = [
        I.cycle(rng, 8), I.cycle(rng, 9), I.flag(rng, 8), I.bounded_random(rng, 8, 4, 8),
        I.cycle(rng, 10), *(I.cross_polytope(rng, 4) for _ in range(4)),
        I.boundary_join(rng, (2, 2, 3), 1), I.boundary_join(rng, (3, 3, 2)),
        I.boundary_join(rng, (3, 3), 2), I.boundary_join(rng, (2, 2, 3), 1),
    ]
    return [Request("crosscheck", (case,)) for case in cases]


def algebra(rng) -> list[Request]:
    """ring, betti and loop-ranks: the subset-indexed (Hochster) table.

    Thousands of tiny rank computations plus the dense Fraction helpers of
    the star-product scan, the opposite use of the rank layer from
    crosscheck.  ring runs only on cycles and cross polytopes: its scan
    stops at the first non-zero product, so on random inputs its cost
    swings by a factor of five between seeds.  C14 is left out (its ring
    takes about 11 s).
    """
    loop = ("--truncation", str(LOOP_TRUNCATION))
    return [
        Request("ring", (I.cycle(rng, 10),)),
        Request("ring", (I.cycle(rng, 12),)),
        Request("ring", (I.cross_polytope(rng, 5),)),
        Request("betti", (I.cycle(rng, 13),)),
        Request("betti", (I.cross_polytope(rng, 5),)),
        Request("betti", (I.flag(rng, 12),)),
        Request("betti", (I.bounded_random(rng, 12, 4, 12),)),
        Request("loop-ranks", (I.cycle(rng, 11),), loop),
        Request("loop-ranks", (I.cross_polytope(rng, 6),), loop),
        Request("loop-ranks", (I.flag(rng, 14),), loop),
        Request("loop-ranks", (I.bounded_random(rng, 14, 4, 14),), loop),
    ]


WORKLOADS = {
    "verdict": Workload("verdict", 80, verdict),
    "crosscheck": Workload("crosscheck", 80, crosscheck),
    "algebra": Workload("algebra", 75, algebra),
}


def build(name: str, seed: int) -> list[Request]:
    """The requests of one pass; the same (name, seed) gives the same inputs."""
    requests = WORKLOADS[name].build(random.Random(f"{name}:{seed}"))
    for request in requests:
        guard(request)
    return requests


def guard(request: Request) -> None:
    """Refuse inputs the benchmark must not send: a full simplex, or one
    above the command's vertex limit."""
    limit = DEFAULT_LIMIT_N[request.command]
    if "--limit-n" in request.options:
        limit = int(request.options[request.options.index("--limit-n") + 1])
    for case in request.cases:
        if I.is_full_simplex(case):
            raise ValueError(f"{case.name} is a full simplex")
        if case.n > limit:
            raise ValueError(f"{case.name} has n={case.n} above the {request.command} limit {limit}")
