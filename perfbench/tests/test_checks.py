"""Each benchmark check must reject a wrong result.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sextic import PhysicalParams, cli, oracle, qes  # noqa: E402
from sextic.qes import RootEnclosure  # noqa: E402

PARAMS = PhysicalParams(M="7/2", omega="5/3", q="8/3")


@pytest.fixture(scope="module")
def field_block():
    item = ("field", 4, PARAMS)
    return item, qes.spectrum(PARAMS, 4, "field", digits=workloads.DIGITS)


def test_block_accepts_the_program_output(field_block):
    assert checks.check_block(*field_block) == []


def test_block_rejects_an_enclosure_shifted_by_its_width(field_block):
    item, spec = field_block
    roots = list(spec.roots_reduced)
    enc = roots[1]
    roots[1] = RootEnclosure(enc.lo + enc.width, enc.hi + enc.width)
    wrong = dataclasses.replace(spec, roots_reduced=tuple(roots))
    assert any("no sign change across enclosure 1" in p for p in checks.check_block(item, wrong))


def test_block_rejects_a_wide_enclosure(field_block):
    item, spec = field_block
    roots = list(spec.roots_reduced)
    roots[0] = RootEnclosure(roots[0].lo - 1, roots[0].hi)
    wrong = dataclasses.replace(spec, roots_reduced=tuple(roots))
    assert any("wide" in p for p in checks.check_block(item, wrong))


def test_horner_matches_the_package_polynomial(field_block):
    _, spec = field_block
    x = spec.roots_reduced[0].lo
    assert checks.horner(spec.critical.c, x) == spec.critical(x)


def _refined(op):
    return oracle.refine(op.params, op.m, op.mode, op.count, workloads.ladder_grid(op))


@pytest.fixture(scope="module")
def box():
    op = workloads.LadderInput("box", None, 0, "box", 3)
    return op, _refined(op)


def test_box_bar_covers_at_pi(box):
    assert checks.check_ladder(*box) == ([], False)


def test_ladder_counts_an_eigenvalue_moved_outside_its_bar(box):
    op, spec = box
    rec = spec.records[0]
    moved = dataclasses.replace(rec, extrapolated=rec.extrapolated + 2 * rec.error_estimate)
    wrong = dataclasses.replace(spec, records=(moved,) + spec.records[1:])
    assert checks.check_ladder(op, wrong)[1] is True


def test_ladder_rejects_a_wrong_level(box):
    op, spec = box
    rec = spec.records[2]
    moved = dataclasses.replace(rec, value_h2=rec.value_h2 * (1 + 1e-6))
    wrong = dataclasses.replace(spec, records=spec.records[:2] + (moved,))
    problems, _ = checks.check_ladder(op, wrong)
    assert any("level n=16384" in p for p in problems)


def test_known_box_miss_at_r_max_2():
    op = workloads.LadderInput("box", None, 0, "box", 3, 2.0)
    assert checks.check_ladder(op, _refined(op)) == ([], True)


def test_sextic_reference_rejects_a_shifted_eigenvalue():
    op = workloads.LadderInput("sextic", PARAMS, 3, "field", 3)
    spec = _refined(op)
    assert checks.check_ladder(op, spec) == ([], False)
    rec = spec.records[1]
    moved = dataclasses.replace(rec, extrapolated=rec.extrapolated * (1 + 1e-5))
    wrong = dataclasses.replace(spec, records=(spec.records[0], moved, spec.records[2]))
    problems, _ = checks.check_ladder(op, wrong)
    assert any("fourth-order reference" in p for p in problems)


def test_closed_forms_match_the_known_spectra():
    box = workloads.LadderInput("box", None, 0, "box", 3)
    assert workloads.closed_form(box, math.pi) == pytest.approx([1.0, 4.0, 9.0], rel=1e-15)
    osc = workloads.LadderInput("oscillator", workloads.UNIT, 2, "free", 3)
    assert workloads.closed_form(osc, 1.0) == [4.0, 8.0, 12.0]


@pytest.fixture(scope="module")
def compare_run():
    argv = ["compare", "--mode", "field", "--j", "1", "--oracle-n", "1024"]
    first = workloads.run_one("reconcile", argv)
    return argv, first


def test_reconcile_accepts_the_program_output(compare_run):
    argv, first = compare_run
    assert checks.check_reconcile(argv, first) == []


def test_reconcile_rejects_a_changed_verdict(compare_run):
    argv, (code, text) = compare_run
    wrong = text.replace('"verdict": "', '"verdict": "NOT', 1)
    assert checks.check_reconcile(argv, (code, wrong)) != []


def test_a_changed_byte_breaks_determinism(compare_run):
    argv, (code, text) = compare_run
    at = text.index('"digits": 50') + len('"digits": ')
    changed = text[:at] + "6" + text[at + 1:]
    assert run.first_difference([(code, text)], [(code, changed)]) == 0
    assert run.first_difference([(code, text)], [(code, text)]) is None


def test_reconcile_rejects_a_failing_exit_code(compare_run):
    argv, (_, text) = compare_run
    assert checks.check_reconcile(argv, (1, text)) != []


def test_reconcile_rejects_a_failed_invariant():
    text = "".join(f"PASS check{i}: ok\n" for i in range(11)) + "FAIL x: broken\n11/12 invariants hold\n"
    assert checks.check_reconcile(["verify"], (1, text)) != []
    assert checks.check_reconcile(["verify"], (0, text)) != []


def test_tracer_records_layers_and_restores():
    tracer = tracing.Tracer()
    originals = (qes.spectrum, cli.cmd_compare, cli.spectrum_json)
    restore = tracing.install(tracer)
    try:
        buf = io.StringIO()
        assert cli.main(["compare", "--mode", "free", "--j", "1", "--oracle-n", "1024"],
                        stream=buf) == 0
    finally:
        restore()
    table = tracer.take_pass()
    for metric in ("cli.compare.ms", "qes.critical_roots.ms", "oracle.ladder_n4.ms",
                   "opcalc.reduce.ms", "render.dumps.ms", "cli.self_ms"):
        assert table[metric] > 0, metric
    assert table["oracle.eigenvalues_bisection.calls"] >= 3
    assert table["render.bytes"] == len(buf.getvalue().encode())
    assert (qes.spectrum, cli.cmd_compare, cli.spectrum_json) == originals


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    assert workloads.make_inputs("block", 7) != workloads.make_inputs("block", 8)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(cmd + ["--workload", "block", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
