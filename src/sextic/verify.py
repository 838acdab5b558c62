"""Invariant suite: every structural claim of the construction, checkable on demand.

Exact-arithmetic checks (algebra relations, module invariance, table
reproduction, quotient-ring residuals, root properties, ledger consistency)
run in well under a second; the numerical-solver checks can be skipped with
``fast=True``.  ``fault`` injects a deliberate sign error into one named
check, as a negative control that the suite actually detects breakage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import oracle, tables
from .model import PhysicalParams, radial_operator
from .opcalc import Q, QPoly, commutator, monomial_matrix
from .qes import (algebraic_hamiltonian, canonical_gauge, critical_roots,
                  crosspath_comparison, derived_recurrence, ledger_shift_direct,
                  polynomial_family, run_recurrence, sl2_generators, spectrum,
                  wavefunction, _sturm_chain, _variations_at)

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES", "FAULT_NAMES"]

#: The names ``fault`` accepts; each flips one sign inside one check.
FAULT_NAMES = ("sl2-sign", "quotient-sign", "parity-sign", "ledger-sign")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _params_grid() -> list[PhysicalParams]:
    rng = random.Random(20250810)
    out = []
    for _ in range(5):
        out.append(PhysicalParams(
            M=Q(rng.randint(1, 9), rng.randint(1, 3)),
            c=Q(rng.choice([1, 1, 2]), 1),
            hbar=Q(rng.choice([1, 1, 1, 2]), rng.choice([1, 2])),
            omega=Q(rng.randint(1, 7), rng.randint(1, 3)),
            q=Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)),
        ))
    return out


def check_sl2_relations(fault: Optional[str] = None) -> CheckResult:
    """[cartan, J+-] = +-J+- and [J+, J-] = -2 cartan, exact, j <= 12."""
    sign = -1 if fault == "sl2-sign" else 1
    for j in range(13):
        g = sl2_generators(j)
        if commutator(g.cartan, g.raising) - sign * g.raising:
            return CheckResult("sl2-relations", False, f"[J0,J+] != J+ at j={j}")
        if commutator(g.cartan, g.lowering) + g.lowering:
            return CheckResult("sl2-relations", False, f"[J0,J-] != -J- at j={j}")
        if commutator(g.raising, g.lowering) + 2 * g.cartan:
            return CheckResult("sl2-relations", False, f"[J+,J-] != -2J0 at j={j}")
        if g.raising.apply(QPoly.monomial(j)):
            return CheckResult("sl2-relations", False, f"J+ rho^j != 0 at j={j}")
    return CheckResult("sl2-relations", True, "zero operator residuals for j <= 12")


def check_module_invariance(fault: Optional[str] = None) -> CheckResult:
    """The sl2 combination maps span(1..rho^j) into itself, exactly, j <= 12."""
    for params in _params_grid():
        for j in range(13):
            ham = algebraic_hamiltonian(params, j)
            try:
                monomial_matrix(ham, j)
            except Exception as exc:
                return CheckResult("module-invariance", False, f"j={j}: {exc}")
    return CheckResult("module-invariance", True,
                       "exact (j+1)x(j+1) restriction for j <= 12, 5 parameter tuples")


def _free_table_comparison(params: PhysicalParams) -> dict[int, bool]:
    table = tables.published_free_table(params)
    out = {}
    for j in range(4):
        fam = polynomial_family(derived_recurrence(params, j, None, "free"))
        out[j] = fam.critical_physical == table[j + 1].monic()
    return out


def check_free_table(fault: Optional[str] = None) -> CheckResult:
    """Derived field-free critical polynomials match the published table.

    Degrees 1..3 must match exactly; the degree-4 entry is compared and its
    verdict reported either way.
    """
    verdict4 = []
    for params in _params_grid():
        got = _free_table_comparison(params)
        for j in range(3):
            if not got[j]:
                return CheckResult("free-table", False, f"degree {j + 1} mismatch at {params.as_dict()}")
        verdict4.append(got[3])
    detail = "degrees 1..3 exact; degree 4 verdict: " + \
        ("MATCH" if all(verdict4) else "MISMATCH")
    return CheckResult("free-table", True, detail)


def check_field_table(fault: Optional[str] = None) -> CheckResult:
    """Derived magnetic-mode critical polynomials match the published table.

    Degrees 1..5 must match exactly; degrees 6..9 are compared per term and
    reported (the degree-9 linear coefficient is the published 88504707
    against the derived 88504704).
    """
    report = []
    for params in _params_grid():
        for j in range(9):
            fam = polynomial_family(derived_recurrence(params, j, None, "field"))
            pub = tables.published_field_table(params, j + 1)
            same = fam.critical == pub
            if j <= 4 and not same:
                return CheckResult("field-table", False,
                                   f"degree {j + 1} mismatch at {params.as_dict()}")
            if j > 4:
                report.append((j + 1, same))
    tail = {}
    for deg, same in report:
        tail.setdefault(deg, True)
        tail[deg] = tail[deg] and same
    detail = "degrees 1..5 exact; " + ", ".join(
        f"degree {d}: {'MATCH' if ok else 'MISMATCH'}" for d, ok in sorted(tail.items()))
    return CheckResult("field-table", True, detail)


def check_quotient_residual(fault: Optional[str] = None) -> CheckResult:
    """A F - x F vanishes identically in Q[x]/(P_{j+1}), both modes, j <= 6."""
    params = PhysicalParams(M=1, omega=1, q=1)
    extra = PhysicalParams(M=Q(3, 2), omega=Q(2, 3), q=Q(-5, 4))
    x = QPoly.x()
    for p in (params, extra):
        for mode in ("free", "field"):
            for j in range(7):
                rec = derived_recurrence(p, j, None, mode)
                # F = sum_k P_k(x) rho^k with the unscaled P_0..P_j
                *fs, crit = run_recurrence(rec, x, j + 1)
                crit = crit.monic()
                if fault == "quotient-sign":
                    crit = crit + 1
                image = rec.operator.apply_coeffs(fs)
                for i, g in enumerate(image):
                    lhs = g - (x * fs[i] if i < len(fs) else QPoly())
                    if lhs % crit:
                        return CheckResult(
                            "quotient-residual", False,
                            f"{mode} j={j}: rho^{i} residual {lhs % crit!r} mod critical")
    return CheckResult("quotient-residual", True,
                       "A F = x F in Q[x]/(P_{j+1}) for both modes, j <= 6, 2 parameter sets")


def check_wavefunction_residual(fault: Optional[str] = None) -> CheckResult:
    """Closed-form block eigenfunctions satisfy the radial ODE to < 1e-10."""
    params = PhysicalParams(M=1, omega=1, q=1)
    worst = 0.0
    for mode in ("free", "field"):
        for j in range(4):
            spec = spectrum(params, j, mode)
            for i, ph in enumerate(spec.roots_physical):
                res = oracle.residual(wavefunction(spec, i), radial_operator(params, j + 2, mode),
                                      ph.mpf(50))
                worst = max(worst, res)
                if res >= 1e-10:
                    return CheckResult("wavefunction-residual", False,
                                       f"{mode} j={j}: residual {res:.3e}")
    return CheckResult("wavefunction-residual", True, f"worst residual {worst:.3e}")


def _count_roots_between(chain, lo: Fraction, hi: Fraction) -> int:
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def check_root_properties(fault: Optional[str] = None) -> CheckResult:
    """For q > 0, j <= 8: j+1 simple real roots, interlacing, field symmetry."""
    params = PhysicalParams(M=1, omega=1, q=2)
    for mode in ("free", "field"):
        for j in range(9):
            fam = polynomial_family(derived_recurrence(params, j, None, mode))
            roots = critical_roots(fam)
            if len(roots) != j + 1:
                return CheckResult("root-properties", False, f"{mode} j={j}: root count")
            if j >= 1:
                chain = _sturm_chain(fam.polys[j])
                if any(_count_roots_between(chain, e.lo, e.hi) for e in roots if not e.exact):
                    return CheckResult("root-properties", False,
                                       f"{mode} j={j}: P_j root inside an enclosure")
                gaps = sum(_count_roots_between(chain, a.hi, b.lo)
                           for a, b in zip(roots, roots[1:]))
                if gaps != j:
                    return CheckResult("root-properties", False,
                                       f"{mode} j={j}: interlacing count {gaps} != {j}")
            if mode == "field":
                crit = fam.critical
                sign = -1 if (j + 1) % 2 else 1
                mirrored = QPoly([a * (sign if i % 2 == 0 else -sign)
                                  for i, a in enumerate(crit.c)])
                if fault == "parity-sign":
                    mirrored = mirrored + 1
                if mirrored != crit:
                    return CheckResult("root-properties", False,
                                       f"field j={j}: critical polynomial not parity-symmetric")
                mids = sorted(e.midpoint for e in roots)
                if mids != sorted(-v for v in mids):
                    return CheckResult("root-properties", False,
                                       f"field j={j}: root set not symmetric about 0")
    return CheckResult("root-properties", True,
                       "count, simplicity, interlacing and field symmetry hold for j <= 8")


def check_ledger_consistency(fault: Optional[str] = None) -> CheckResult:
    """Pipeline ledger shift equals the closed-form derivation, exactly."""
    for params in _params_grid():
        for mode in ("free", "field"):
            for j in (0, 1, 3):
                gauge = canonical_gauge(params, j + 2, mode)
                ledger = derived_recurrence(params, j, gauge, mode).ledger
                direct = ledger_shift_direct(params, j + 2, mode, gauge)
                if fault == "ledger-sign":
                    direct = -direct
                if ledger.shift != direct:
                    return CheckResult("ledger-consistency", False,
                                       f"{mode} j={j}: pipeline {ledger.shift} != direct {direct}")
    return CheckResult("ledger-consistency", True,
                       "pipeline and closed-form shifts agree exactly (both modes)")


def check_crosspath(fault: Optional[str] = None) -> CheckResult:
    """Module-Hamiltonian spectrum equals the derived block under the implied map.

    The implied identification flips the sign of q and offsets by
    2 m M c^2 hbar omega; the published offset (2 M c^2 hbar omega, no m)
    must fail, which is part of the reconciliation record.
    """
    for params in _params_grid():
        for j in range(7):
            rep = crosspath_comparison(params, j)
            if not rep["implied_offset_matches"]:
                return CheckResult("crosspath", False, f"implied map fails at j={j}")
            if rep["published_offset_matches"] and params.omega:
                return CheckResult("crosspath", False,
                                   f"published offset unexpectedly matches at j={j}")
    return CheckResult("crosspath", True,
                       "char-poly equals derived critical under q-flip and 2mMc^2hw offset, j <= 6")


def check_oracle_box(fault: Optional[str] = None) -> CheckResult:
    """Dirichlet box on (0, pi): eigenvalues 1, 4, 9 within 1e-8 after extrapolation."""
    spec = oracle.refine(None, 0, "box", 3, oracle.Grid(math.pi, 1024))
    errs = [abs(v - e) for v, e in zip(spec.eigenvalues, (1.0, 4.0, 9.0))]
    orders = [r.observed_order for r in spec.records]
    if any(e > 1e-8 for e in errs):
        return CheckResult("oracle-box", False, f"errors {errs}")
    if any(o is None or not (1.7 <= o <= 2.3) for o in orders):
        return CheckResult("oracle-box", False, f"orders {orders}")
    return CheckResult("oracle-box", True, f"max error {max(errs):.2e}, orders {min(orders):.2f}..{max(orders):.2f}")


def check_oracle_oscillator(fault: Optional[str] = None) -> CheckResult:
    """q = 0 reference: eps^2 = 4(n+1) for m in {2, 3}, within 1e-6."""
    params = PhysicalParams(M=1, omega=1, q=0)
    worst = 0.0
    for m in (2, 3):
        grid = oracle.suggest_grid(params, m, "free", 3, n=2048)
        spec = oracle.refine(params, m, "free", 3, grid)
        for v, e in zip(spec.eigenvalues, (4.0, 8.0, 12.0)):
            worst = max(worst, abs(v - e))
    if worst > 1e-6:
        return CheckResult("oracle-oscillator", False, f"worst error {worst:.3e}")
    return CheckResult("oracle-oscillator", True, f"worst error {worst:.3e}")


def check_refine_shoot(fault: Optional[str] = None) -> CheckResult:
    """The two numerical methods agree within combined error bounds."""
    grid = oracle.Grid(math.pi, 1024)
    spec = oracle.refine(None, 0, "box", 2, grid)
    for rec, target in zip(spec.records, (1.0, 4.0)):
        ev = oracle.shoot(oracle.BOX, target, (target - 0.5, target + 0.5), math.pi)
        if abs(ev - rec.extrapolated) > rec.error_estimate + 1e-7:
            return CheckResult("refine-shoot", False,
                               f"box target {target}: {ev} vs {rec.extrapolated}")
    params = PhysicalParams(M=1, omega=1, q=0)
    grid = oracle.suggest_grid(params, 2, "free", 2, n=2048)
    spec = oracle.refine(params, 2, "free", 2, grid)
    op = radial_operator(params, 2, "free")
    for rec, target in zip(spec.records, (4.0, 8.0)):
        ev = oracle.shoot(op, target, (target - 1.0, target + 1.0), grid.r_max)
        if abs(ev - rec.extrapolated) > rec.error_estimate + 1e-6:
            return CheckResult("refine-shoot", False,
                               f"oscillator target {target}: {ev} vs {rec.extrapolated}")
    return CheckResult("refine-shoot", True, "bisection and shooting agree on analytic cases")


_EXACT_CHECKS: list[Callable] = [
    check_sl2_relations,
    check_module_invariance,
    check_free_table,
    check_field_table,
    check_quotient_residual,
    check_wavefunction_residual,
    check_root_properties,
    check_ledger_consistency,
    check_crosspath,
]

_ORACLE_CHECKS: list[Callable] = [
    check_oracle_box,
    check_oracle_oscillator,
    check_refine_shoot,
]

CHECK_NAMES = [fn.__name__.removeprefix("check_").replace("_", "-")
               for fn in _EXACT_CHECKS + _ORACLE_CHECKS]


def run_checks(fast: bool = False, fault: Optional[str] = None) -> list[CheckResult]:
    """Run the invariant suite; ``fast`` skips the numerical-solver checks."""
    checks = list(_EXACT_CHECKS) + ([] if fast else list(_ORACLE_CHECKS))
    return [fn(fault) for fn in checks]
