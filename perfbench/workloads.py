"""Seeded inputs of the three workloads and the pass that runs them.

A pass runs every input of a workload once, in order; each input is one
operation.  The seed only chooses parameters: the mix of levels, modes,
angular indices and eigenvalue counts is fixed, so every seed asks for
about the same amount of work.

* block:     ``qes.spectrum`` at 50 digits, field and free mode at
             j = 8, 14, 20 and 8, 12, 16.
* ladder:    ``oracle.suggest_grid`` + ``oracle.refine`` on the default
             8192/16384/32768 ladder: six sextic operators, then three
             particle-in-a-box and three q = 0 oscillator operators whose
             eigenvalues are known in closed form (these six do not depend
             on the seed).
* reconcile: ``sextic compare`` in both modes for j = 0..3, then ``sextic
             verify``, through ``sextic.cli.main`` with an in-memory stream.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from sextic import PhysicalParams, qes
from sextic import cli, oracle

WORKLOADS = ("block", "ladder", "reconcile")

DIGITS = 50
BLOCK_LEVELS = (("field", 8), ("field", 14), ("field", 20),
                ("free", 8), ("free", 12), ("free", 16))
LADDER_N = 8192
SEXTIC_M = (2, 3, 4, 5, 2, 3)
SEXTIC_COUNTS = (3, 4, 5, 6, 7, 8)
BOX_R_MAX = (None, 2.0, 1.0)  # None: the grid suggest_grid picks, (0, pi)
OSCILLATOR_M = (2, 3, 4)
UNIT = PhysicalParams(M=1, omega=1, q=0)


@dataclass(frozen=True)
class LadderInput:
    kind: str  # "sextic", "box" or "oscillator"
    params: Optional[PhysicalParams]
    m: int
    mode: str
    count: int
    r_max: Optional[float] = None  # None: use suggest_grid


def _ratio(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice((2, 3)))


def _block_params(rng: random.Random) -> PhysicalParams:
    # c = hbar = 1 and M, omega, q in {5/2, 7/2, 9/2, 5/3, 7/3, 8/3}: other
    # units and integer values move the root-isolation cost by up to 50%
    # from seed to seed, which would swamp what the workload measures
    def ratio():
        d = rng.choice((2, 3))
        return Fraction(rng.choice([n for n in range(5, 10) if n % d]), d)
    return PhysicalParams(M=ratio(), omega=ratio(), q=ratio())


def _ladder_params(rng: random.Random) -> PhysicalParams:
    return PhysicalParams(M=_ratio(rng), omega=_ratio(rng), q=_ratio(rng),
                          c=rng.choice((Fraction(1, 2), 1, 2)),
                          hbar=rng.choice((Fraction(1, 2), 1, 2)))


def make_inputs(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "block":
        return [(mode, j, _block_params(rng)) for mode, j in BLOCK_LEVELS]
    if workload == "ladder":
        ms, counts = list(SEXTIC_M), list(SEXTIC_COUNTS)
        rng.shuffle(ms)
        rng.shuffle(counts)
        ops = [LadderInput("sextic", _ladder_params(rng), m, ("free", "field")[i % 2], count)
               for i, (m, count) in enumerate(zip(ms, counts))]
        ops += [LadderInput("box", None, 0, "box", 3, r_max) for r_max in BOX_R_MAX]
        ops += [LadderInput("oscillator", UNIT, m, "free", 4) for m in OSCILLATOR_M]
        return ops
    if workload == "reconcile":
        runs = []
        for mode in ("field", "free"):
            for j in range(4):
                values = {key: _ratio(rng) for key in ("M", "omega", "q")}
                argv = ["compare", "--mode", mode, "--j", str(j)]
                for key, value in values.items():
                    argv += [f"--{key}", f"{value.numerator}/{value.denominator}"]
                runs.append(argv)
        runs.append(["verify"])
        return runs
    raise ValueError(f"unknown workload {workload!r}")


def ladder_grid(op: LadderInput) -> oracle.Grid:
    if op.r_max is not None:
        return oracle.Grid(op.r_max, LADDER_N)
    return oracle.suggest_grid(op.params, op.m, op.mode, op.count, n=LADDER_N)


def run_one(workload: str, item):
    """One operation; its output is what the checks examine."""
    if workload == "block":
        mode, j, params = item
        return qes.spectrum(params, j, mode, digits=DIGITS)
    if workload == "ladder":
        return oracle.refine(item.params, item.m, item.mode, item.count, ladder_grid(item))
    buf = io.StringIO()
    code = cli.main(item, stream=buf)
    return code, buf.getvalue()


def run_pass(workload: str, inputs: list) -> list:
    return [run_one(workload, item) for item in inputs]


def closed_form(op: LadderInput, r_max: float) -> list[float]:
    """Exact eigenvalues of the box and q = 0 oscillator operators."""
    if op.kind == "box":
        return [(k * math.pi / r_max) ** 2 for k in range(1, op.count + 1)]
    if op.kind == "oscillator":
        p = op.params
        scale = float(4 * p.c**2 * p.hbar * p.M * p.omega)
        return [scale * (n + 1) for n in range(op.count)]
    raise ValueError(f"{op.kind} has no closed form")
