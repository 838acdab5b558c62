"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line with the measured runtime; tolerances and
time budgets are pinned here, not configured elsewhere.  Polynomial-identity
criteria are certified by evaluation on parameter grids exceeding the
degrees of the coefficient polynomials in the composite variables
(M c^2 hbar omega and q c^4 hbar^3), which is equivalent to the symbolic
statement.
"""

import io
import json
import math
import time
from fractions import Fraction as Q

import pytest

from sextic import oracle as oracle_mod
from sextic.cli import main
from sextic.model import PhysicalParams, radial_operator
from sextic.opcalc import QPoly
from sextic.qes import (critical_roots, derived_recurrence, gauge_search,
                        polynomial_family, spectrum, wavefunction,
                        _sturm_chain, _variations_at)
from sextic.tables import published_field_table, published_free_table
from sextic.verify import (check_module_invariance, check_quotient_residual,
                           check_sl2_relations)

NAT = PhysicalParams(M=1, omega=1, q=1)


def _report(n, detail, dt):
    print(f"PASS criterion {n}: {detail} ({dt:.2f}s)")


def test_criterion_1_sl2_exactness():
    t0 = time.time()
    res = check_sl2_relations()
    dt = time.time() - t0
    assert res.passed, res.detail
    assert dt < 1.0
    _report(1, "sl2 relations are the zero operator for j <= 12, exact arithmetic", dt)


def test_criterion_2_module_invariance():
    t0 = time.time()
    res = check_module_invariance()
    dt = time.time() - t0
    assert res.passed, res.detail
    assert dt < 1.0
    _report(2, "module Hamiltonian restricts exactly for j <= 12, 5 random tuples", dt)


def _free_grid_params():
    out = [PhysicalParams(M=m, omega=1, q=q)
           for m in (1, 2, 3, 5, 7, 11) for q in (1, 2, 3, -2)]
    # composite-variable coverage with non-unit hbar, c
    out.append(PhysicalParams(M=Q(1, 5), c=2, hbar=Q(3, 2), omega=Q(2, 3), q=Q(5, 7)))
    out.append(PhysicalParams(M=3, c=Q(1, 2), hbar=2, omega=Q(7, 4), q=-3))
    return out


def test_criterion_3_free_table_reproduction():
    t0 = time.time()
    verdict4 = True
    for params in _free_grid_params():
        table = {n: p.monic() for n, p in published_free_table(params).items()}
        for j in range(4):
            rec = derived_recurrence(params, j, None, "free")
            crit = polynomial_family(rec).in_physical_variable().critical
            if j <= 2:
                assert crit == table[j + 1], f"degree {j + 1} at {params.as_dict()}"
            else:
                verdict4 = verdict4 and (crit == table[j + 1])
    dt = time.time() - t0
    assert dt < 5.0
    _report(3, "degrees 1..3 match the published field-free table exactly on a "
               f"26-point parameter grid; degree-4 verdict: "
               f"{'MATCH' if verdict4 else 'MISMATCH'} (every term)", dt)


def test_criterion_4_field_table_reproduction():
    t0 = time.time()
    grid = [PhysicalParams(M=1, omega=1, q=q) for q in (1, 2, 3, -1, 5)]
    grid.append(PhysicalParams(M=2, c=Q(1, 3), hbar=3, omega=Q(1, 2), q=Q(4, 9)))
    tail_verdicts = {}
    p9_linear = {}
    for params in grid:
        for j in range(9):
            rec = derived_recurrence(params, j, None, "field")
            crit = polynomial_family(rec).critical
            pub = published_field_table(params, j + 1)
            if j <= 4:
                assert crit == pub, f"degree {j + 1} at {params.as_dict()}"
            else:
                deg = j + 1
                tail_verdicts[deg] = tail_verdicts.get(deg, True) and (crit == pub)
                if deg == 9:
                    p9_linear[params.q] = (crit.coeff(1), pub.coeff(1))
    # the published degree-9 linear coefficient is 88504707; the derivation
    # gives 88504704 (in units of eta^8)
    from sextic.model import eta_squared
    for params in grid:
        u = eta_squared(params)
        got, pub = p9_linear[params.q]
        assert pub == 88504707 * u**4
        assert got == 88504704 * u**4
    dt = time.time() - t0
    assert dt < 5.0
    verd = ", ".join(f"P_{d}: {'MATCH' if ok else 'MISMATCH'}"
                     for d, ok in sorted(tail_verdicts.items()))
    _report(4, "degrees 1..5 match the published magnetic table exactly; "
               f"{verd}; published 88504707 vs derived 88504704 reported", dt)


def test_criterion_5_quotient_ring_residual():
    t0 = time.time()
    res = check_quotient_residual()
    dt = time.time() - t0
    assert res.passed, res.detail
    _report(5, "A F = x F holds identically in Q[x]/(P_{j+1}), both modes, "
               "j <= 6, zero tolerance", dt)


def test_criterion_6_closed_form_residuals():
    t0 = time.time()
    worst = 0.0
    count = 0
    for mode in ("free", "field"):
        for j in range(4):
            spec = spectrum(NAT, j, mode, digits=50)
            for i, ph in enumerate(spec.roots_physical):
                wf = wavefunction(spec, i)
                res = oracle_mod.residual(wf, radial_operator(NAT, j + 2, mode), ph.mpf(50))
                worst = max(worst, res)
                count += 1
                assert res < 1e-10, f"{mode} j={j}: {res}"
    dt = time.time() - t0
    _report(6, f"all {count} block eigenfunctions satisfy the radial ODE on "
               f"[0.5, 2.5]; worst residual {worst:.2e} < 1e-10", dt)


def test_criterion_7_oracle_validation():
    t0 = time.time()
    box = oracle_mod.refine(None, 0, "box", 3, oracle_mod.Grid(math.pi, 1024))
    box_err = max(abs(v - e) for v, e in zip(box.eigenvalues, (1.0, 4.0, 9.0)))
    assert box_err < 1e-8
    orders = [r.observed_order for r in box.records]

    q0 = PhysicalParams(M=1, omega=1, q=0)
    osc_err = 0.0
    for m in (2, 3):
        grid = oracle_mod.suggest_grid(q0, m, "free", 3, n=2048)
        spec = oracle_mod.refine(q0, m, "free", 3, grid)
        orders += [r.observed_order for r in spec.records]
        osc_err = max(osc_err, max(abs(v - e) for v, e in
                                   zip(spec.eigenvalues, (4.0, 8.0, 12.0))))
    assert osc_err < 1e-6
    assert all(o is not None and abs(o - 2.0) <= 0.3 for o in orders)

    for rec, target in zip(box.records[:2], (1.0, 4.0)):
        ev = oracle_mod.shoot(oracle_mod.BOX, target, (target - 0.5, target + 0.5),
                              math.pi)
        assert abs(ev - rec.extrapolated) <= rec.error_estimate + 1e-7
    grid = oracle_mod.suggest_grid(q0, 2, "free", 2, n=1024)
    spec = oracle_mod.refine(q0, 2, "free", 2, grid)
    for rec, target in zip(spec.records, (4.0, 8.0)):
        ev = oracle_mod.shoot(radial_operator(q0, 2, "free"), target, (target - 1, target + 1),
                              grid.r_max)
        assert abs(ev - rec.extrapolated) <= rec.error_estimate + 1e-6
    dt = time.time() - t0
    assert dt < 60.0
    _report(7, f"box error {box_err:.1e} < 1e-8, oscillator error {osc_err:.1e} "
               f"< 1e-6, orders within 2.0 +- 0.3, refine/shoot agree", dt)


def test_criterion_8_physicality_report():
    t0 = time.time()
    runs = [("field", j) for j in range(4)] + [("free", j) for j in range(3)]
    outputs = []
    for mode, j in runs:
        argv = ["compare", "--mode", mode, "--j", str(j), "--oracle-n", "1024",
                "--count", str(j + 5), "--tol", "1e-4"]
        buf1, buf2 = io.StringIO(), io.StringIO()
        assert main(argv, stream=buf1) == 0
        assert main(argv, stream=buf2) == 0
        assert buf1.getvalue() == buf2.getvalue()  # byte-identical reruns
        rep = json.loads(buf1.getvalue())
        mr = rep["match_report"]
        assert mr["tolerance"] == 1e-4
        assert mr["ledger_shifts_agree"] is True
        assert mr["ledger_shift_pipeline"] == mr["ledger_shift_direct"]
        for entry in mr["entries"]:
            assert entry["verdict"] in ("MATCHED", "UNMATCHED")
        outputs.append((mode, j, mr["matched"], mr["unmatched"]))
    dt = time.time() - t0
    summary = "; ".join(f"{m} j={j}: {ma}M/{um}U" for m, j, ma, um in outputs)
    _report(8, f"deterministic reconciliation reports with exactly agreeing "
               f"ledger derivations ({summary})", dt)


def test_criterion_9_root_properties():
    t0 = time.time()
    params = PhysicalParams(M=1, omega=1, q=2)
    for mode in ("free", "field"):
        for j in range(9):
            rec = derived_recurrence(params, j, None, mode)
            fam = polynomial_family(rec)
            roots = critical_roots(fam, digits=50)
            assert len(roots) == j + 1  # Sturm count equals the degree
            if j >= 1:
                chain = _sturm_chain(fam.polys[j])
                inside = sum(_variations_at(chain, e.lo) - _variations_at(chain, e.hi)
                             for e in roots if not e.exact)
                assert inside == 0
                gaps = sum(_variations_at(chain, a.hi) - _variations_at(chain, b.lo)
                           for a, b in zip(roots, roots[1:]))
                assert gaps == j  # interlacing: one P_j root in every gap
            if mode == "field":
                mids = sorted(e.midpoint for e in roots)
                assert mids == sorted(-v for v in mids)
                sign = -1 if (j + 1) % 2 else 1
                mirrored = QPoly([a * (sign if i % 2 == 0 else -sign)
                                  for i, a in enumerate(fam.critical.c)])
                assert mirrored == fam.critical
    dt = time.time() - t0
    _report(9, "j+1 simple real roots, interlacing and magnetic-mode symmetry "
               "for j <= 8, both modes, zero violations", dt)


def test_criterion_10_performance():
    # exact pipeline at level 10, magnetic mode, 50-digit roots
    t0 = time.time()
    cands = gauge_search(NAT, 10, "field")
    rec = derived_recurrence(NAT, 10, None, "field")
    fam = polynomial_family(rec)
    roots = critical_roots(fam, digits=50)
    dt_exact = time.time() - t0
    assert len(roots) == 11
    assert all(r.width < Q(1, 10**50) for r in roots)
    assert dt_exact < 1.0

    # 20000-point solve for 10 eigenvalues
    grid = oracle_mod.Grid(4.0, 20000)
    diag, off = oracle_mod.discretize(radial_operator(NAT, 3, "field"), grid)
    oracle_mod.sturm_count(diag, off, 0.0)  # warm-up: one LAPACK dstebz call, untimed
    t1 = time.time()
    vals = oracle_mod.eigenvalues_bisection(diag, off, 10)
    dt_solve = time.time() - t1
    assert len(vals) == 10 and all(a < b for a, b in zip(vals, vals[1:]))
    assert dt_solve < 5.0
    _report(10, f"level-10 exact pipeline {dt_exact:.2f}s < 1s; 20000-point "
                f"10-eigenvalue solve {dt_solve:.2f}s < 5s", dt_exact + dt_solve)


def test_field_j40_root_budget():
    # beside criterion 10: level 40, magnetic mode, 50-digit certified roots
    t0 = time.time()
    rec = derived_recurrence(NAT, 40, None, "field")
    roots = critical_roots(polynomial_family(rec), digits=50)
    dt = time.time() - t0
    assert len(roots) == 41
    assert all(r.width < Q(1, 10**50) for r in roots)
    assert dt < 1.0


@pytest.mark.parametrize("mode", ["field", "free"])
def test_j60_root_budget(mode):
    # level 60: the integer Newton roots certify in well under a second
    fam = polynomial_family(derived_recurrence(NAT, 60, None, mode))
    t0 = time.time()
    roots = critical_roots(fam, digits=50)
    dt = time.time() - t0
    assert len(roots) == 61
    assert all(r.width < Q(1, 10**50) for r in roots)
    assert dt < 1.0
