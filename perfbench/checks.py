"""Correctness checks that do not compare against a stored copy of the output.

Each ``check_*`` function returns a list of problems (empty when the output
is right).  ``check_ladder`` also returns whether an error bar missed a
closed-form eigenvalue: that is the oracle's known fault, counted as a
failed operation rather than a wrong result.

The references are computed here, apart from the program:

* block: exact sign changes of the returned critical polynomial, evaluated
  by this module's Fraction Horner code, and ``mpmath.polyroots``;
* ladder: the radial operator rebuilt from the model's formula, each ladder
  level re-solved by ARPACK in shift-invert mode (a Lanczos method, not the
  bisection the program uses), and each extrapolated value compared with a
  fourth-order (five-point) discretization solved by LAPACK ``dsbevx``;
* reconcile: exit codes, the invariant summary and the properties a match
  report must have.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
import numpy as np

from workloads import DIGITS, LADDER_N, closed_form

EPS = float(np.finfo(float).eps)
VERDICTS = ("MATCHED", "UNMATCHED")
CHECK_COUNT = 12


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def horner(coeffs, x: Fraction) -> Fraction:
    """Value at x of the polynomial with coefficients ``coeffs``, constant first."""
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def check_block(item, spec) -> list[str]:
    mode, j, _ = item
    where = f"{mode} j={j}"
    coeffs = list(spec.critical.c)
    roots = list(spec.roots_reduced)
    if len(coeffs) != j + 2 or coeffs[-1] != 1:
        return [f"{where}: critical polynomial is not monic of degree {j + 1}"]
    if len(roots) != j + 1:
        return [f"{where}: {len(roots)} enclosures for degree {j + 1}"]
    problems = []
    width = Fraction(1, 10**DIGITS)
    for i, enc in enumerate(roots):
        if not enc.hi - enc.lo < width:
            problems.append(f"{where}: enclosure {i} is {float(enc.hi - enc.lo):.1e} wide")
        lo, hi = _sign(horner(coeffs, enc.lo)), _sign(horner(coeffs, enc.hi))
        if enc.lo == enc.hi:
            if lo != 0:
                problems.append(f"{where}: exact root {i} is not a root")
        elif lo * hi != -1:
            problems.append(f"{where}: no sign change across enclosure {i}")
    for i, (left, right) in enumerate(zip(roots, roots[1:])):
        if not left.hi < right.lo:
            problems.append(f"{where}: enclosures {i} and {i + 1} are not disjoint")
    if mode == "field":
        # the field-mode critical polynomial has parity j + 1, so the mirror
        # image of each enclosure meets the enclosure of the mirrored root
        for enc, mirror in zip(roots, reversed(roots)):
            if -enc.hi > mirror.hi or -enc.lo < mirror.lo:
                problems.append(f"{where}: roots are not symmetric about 0")
                break
    shifts = {(p.lo - r.lo, p.hi - r.hi) for p, r in zip(spec.roots_physical, roots)}
    if len(shifts) != 1 or len({a for a, b in shifts} | {b for a, b in shifts}) != 1:
        problems.append(f"{where}: physical roots are not one constant shift of the reduced ones")
    if not problems:
        problems += _against_polyroots(where, coeffs, roots)
    return problems


def _against_polyroots(where: str, coeffs, roots) -> list[str]:
    with mpmath.workdps(DIGITS + 30):
        found = mpmath.polyroots([mpmath.mpf(a.numerator) / a.denominator
                                  for a in reversed(coeffs)],
                                 maxsteps=400, extraprec=4 * DIGITS)
        if any(abs(mpmath.im(z)) > mpmath.mpf(10) ** (-DIGITS) for z in found):
            return [f"{where}: mpmath.polyroots finds complex roots"]
        found = sorted(mpmath.re(z) for z in found)
        tol = mpmath.mpf(10) ** (10 - DIGITS)
        for i, (enc, z) in enumerate(zip(roots, found)):
            mid = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
            if abs(mid - z) > tol * max(1, abs(z)):
                return [f"{where}: root {i} is {mpmath.nstr(mid, 20)}, "
                        f"mpmath.polyroots gives {mpmath.nstr(z, 20)}"]
    return []


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def _multiplicative(op):
    """(c^2 hbar^2, U(r)) of the radial operator, from the model's formula.

    -c^2 hbar^2 f'' + c^2 [V(r) + 2 hbar M omega (1 - m)] f = eps^2 f, with
    V the sextic potential; in field mode B = 2 M omega / e cancels the r^4
    term and adds the constant -hbar e B (m - 1).
    """
    if op.kind == "box":
        return 1.0, lambda r: np.zeros_like(r)
    p = op.params
    c2, h, mw, q, m = float(p.c) ** 2, float(p.hbar), float(p.M * p.omega), float(p.q), op.m
    coeff = {-2: h * h * (m * m - 0.25), 6: q * q}
    if op.mode == "free":
        coeff[4] = -2 * mw * q
        coeff[2] = mw * mw + 2 * h * q * (m - 2)
        coeff[0] = 2 * h * mw * (1 - m)
    else:
        coeff[2] = 2 * h * q * (m - 2)
        coeff[0] = -4 * h * mw * (m - 1)
    return c2 * h * h, lambda r: c2 * sum(v * r**e for e, v in coeff.items())


def _second_order(kin, u, r_max: float, n: int):
    h = r_max / n
    r = h * np.arange(1, n)
    diag = 2 * kin / h**2 + u(r)
    off = np.full(n - 2, -kin / h**2)
    return diag, off, float(np.max(np.abs(diag)) + 2 * kin / h**2)


def _arpack_lowest(diag, off, count: int) -> np.ndarray:
    import scipy.sparse
    from scipy.sparse.linalg import eigsh
    t = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    sigma = float(np.min(diag) - 2 * np.max(np.abs(off))) - 1.0  # below the spectrum
    return np.sort(eigsh(t, k=count, sigma=sigma, which="LM", tol=0,
                         return_eigenvectors=False))


def _fourth_order(kin, u, r_max: float, n: int, count: int):
    """Lowest eigenvalues of the five-point discretization, and eps * ||T||.

    The wavefunction is continued oddly through both Dirichlet ends, which
    only changes the first and last diagonal entries.
    """
    from scipy.linalg import eig_banded
    h = r_max / n
    r = h * np.arange(1, n)
    s = kin / (12 * h * h)
    band = np.zeros((3, n - 1))
    band[0, 2:] = s
    band[1, 1:] = -16 * s
    band[2] = 30 * s + u(r)
    band[2, 0] -= s
    band[2, -1] -= s
    vals = eig_banded(band, eigvals_only=True, select="i", select_range=(0, count - 1))
    return vals, EPS * float(np.max(np.abs(band[2])) + 34 * s)


def reference(op, r_max: float, n: int = 4096):
    """Fourth-order values extrapolated over n, 2n, and a bound on their error."""
    kin, u = _multiplicative(op)
    coarse, _ = _fourth_order(kin, u, r_max, n, op.count)
    fine, floor = _fourth_order(kin, u, r_max, 2 * n, op.count)
    step = (fine - coarse) / 15.0
    return fine + step, np.abs(step) + 4 * floor


def check_ladder(op, spec) -> tuple[list[str], bool]:
    """(problems, whether an error bar missed a closed-form eigenvalue)."""
    where = f"{op.kind} m={op.m} {op.mode} count={op.count}"
    records = spec.records
    if len(records) != op.count or spec.grid.n != LADDER_N:
        return [f"{where}: {len(records)} records on n={spec.grid.n}"], False
    kin, u = _multiplicative(op)
    r_max = spec.grid.r_max
    problems = []
    floor = 0.0
    for factor, field in ((1, "value_h"), (2, "value_h2"), (4, "value_h4")):
        diag, off, norm = _second_order(kin, u, r_max, LADDER_N * factor)
        floor = EPS * norm
        want = _arpack_lowest(diag, off, op.count)
        got = np.array([getattr(rec, field) for rec in records])
        worst = float(np.max(np.abs(got - want)))
        if worst > 4 * floor:
            problems.append(f"{where}: level n={LADDER_N * factor} is {worst:.2e} "
                            f"from ARPACK, rounding floor {floor:.2e}")
    if op.kind == "sextic":
        ref, ref_err = reference(op, r_max)
        for rec, value, err in zip(records, ref, ref_err):
            # the program's bar omits the rounding floor; add it here
            tol = rec.error_estimate + 4 * floor + err
            if abs(rec.extrapolated - value) > tol:
                problems.append(f"{where}: eigenvalue {rec.index} {rec.extrapolated!r} is "
                                f"{abs(rec.extrapolated - value):.2e} from the fourth-order "
                                f"reference, allowed {tol:.2e}")
        return problems, False
    exact = closed_form(op, r_max)
    missed = any(abs(rec.extrapolated - value) > rec.error_estimate
                 for rec, value in zip(records, exact))
    return problems, missed


# ---------------------------------------------------------------------------
# reconcile
# ---------------------------------------------------------------------------


def check_reconcile(argv, output) -> list[str]:
    code, text = output
    where = " ".join(argv[:5])
    if code != 0:
        return [f"{where}: exit code {code}"]
    if argv[0] == "verify":
        lines = text.splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS "))
        if passed != CHECK_COUNT or lines[-1:] != [f"{CHECK_COUNT}/{CHECK_COUNT} invariants hold"]:
            return [f"{where}: {passed} checks pass, summary {lines[-1:]}"]
        return []
    report = json.loads(text)
    mr = report["match_report"]
    problems = []
    if mr["ledger_shifts_agree"] is not True or mr["ledger_shift_pipeline"] != mr["ledger_shift_direct"]:
        problems.append(f"{where}: ledger shifts disagree")
    verdicts = [e["verdict"] for e in mr["entries"]]
    if any(v not in VERDICTS for v in verdicts):
        problems.append(f"{where}: verdicts {verdicts}")
    if len(verdicts) != int(argv[4]) + 1 or mr["matched"] != verdicts.count("MATCHED") \
            or mr["unmatched"] != verdicts.count("UNMATCHED"):
        problems.append(f"{where}: match counts do not add up")
    return problems
