"""The algebraic (quasi-exactly-solvable) block of the sextic oscillator.

The hidden structure is an sl2 triple realized by first-order operators on
polynomials in rho (Sl2Realization).  The combination
:func:`algebraic_hamiltonian` preserves the span of 1..rho^j, so a finite
block of the spectrum is a matrix eigenproblem; equivalently, the gauged and
substituted radial operator induces a three-term recurrence on power-series
coefficients whose polynomial solutions in the eigenvalue symbol are the
energy polynomials.  When the band closes (gamma_{j+1} = 0, the module
1..rho^j is invariant) the roots of the critical polynomial P_{j+1} form the
algebraic block.

Two recurrence sources are first class and never merged:

* ``derived``  - the mechanical pipeline radial operator -> gauge
  conjugation -> change of variable -> series recurrence, with every
  eigenvalue shift tracked in a :class:`~sextic.opcalc.SpectralLedger`;
* ``published`` - the recurrences exactly as published, degeneracies and
  all, so the comparison report can show where the published coefficients
  disagree with the published tables.

Roots are approximated, rounded to dyadic cells narrower than
10^-(digits+10) (default 50 digits) and certified by exact integer sign
evaluation of the critical polynomial; no approximate value decides a sign.
Every root is an eigenvalue of an exact Jacobi matrix (b_k, c_k > 0): the
band's own when it symmetrizes, else the one read off the exact Sturm chain,
whose count also names a failure (complex or multiple roots).  LAPACK float
eigenvalues of that matrix, refined by exact integer Newton on the cell grid,
come first; mpf eigenvalues (``mpmath.eigsy``) at doubling precision back
them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from . import tables
from .model import (DomainError, PhysicalParams, coupling_constant,
                    energy_from_epsilon2, eta_squared, radial_operator,
                    SpectralValue)
from .opcalc import (DiffOperator, GaugeAnsatz, GaugeError, LaurentPoly,
                     NotQesError, OperatorError, Q, QPoly, SpectralLedger,
                     _over_common, change_variable_sqrt, compose, gauge_conjugate,
                     series_recurrence)

__all__ = [
    "QesError", "OpenModuleError", "Sl2Realization", "sl2_generators",
    "algebraic_hamiltonian",
    "ThreeTermRecurrence", "published_recurrence", "derived_recurrence",
    "PolynomialFamily", "polynomial_family", "run_recurrence", "FamilyConstructionError",
    "RootEnclosure", "RootPropertyError", "critical_roots", "isolate_real_roots",
    "QesSpectrum", "spectrum", "RadialWavefunction", "wavefunction",
    "GaugeCandidate", "gauge_search", "canonical_gauge",
    "ledger_shift_direct", "crosspath_comparison",
]


class QesError(ValueError):
    pass


class FamilyConstructionError(QesError):
    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class OpenModuleError(QesError):
    """A derived band whose module 1..rho^j does not close (gamma_{j+1} != 0):
    its roots and closed forms solve nothing, so no block is built from it."""

    def __init__(self, rec: "ThreeTermRecurrence"):
        g = rec.gauge
        super().__init__(
            f"gauge r^({g.power}) b={g.gaussian} a={g.quartic} does not close the module "
            f"1..rho^{rec.j}: gamma_{rec.j + 1} = {rec.gamma(Q(rec.j + 1))}, not 0")


class RootPropertyError(QesError):
    """Fewer simple real roots than the degree: a reportable finding."""

    def __init__(self, message: str, poly: QPoly, count: int):
        super().__init__(message)
        self.poly = poly
        self.count = count


# ---------------------------------------------------------------------------
# sl2 realization and the preserved-module Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sl2Realization:
    """First-order sl2 triple on polynomials in rho at level j.

    raising  = rho^2 D - j rho   (kills rho^j: the module 1..rho^j is preserved)
    lowering = D
    cartan   = rho D - j/2

    Satisfies [cartan, raising] = raising, [cartan, lowering] = -lowering and
    [raising, lowering] = -2 cartan, exactly.
    """

    j: int
    raising: DiffOperator
    lowering: DiffOperator
    cartan: DiffOperator


def sl2_generators(j: int) -> Sl2Realization:
    if j < 0 or int(j) != j:
        raise DomainError("j must be a non-negative integer")
    j = int(j)
    raising = DiffOperator({1: LaurentPoly({2: 1}), 0: LaurentPoly({1: -j})}, var="rho")
    lowering = DiffOperator.derivative("rho")
    cartan = DiffOperator({1: LaurentPoly({1: 1}), 0: LaurentPoly({0: Q(-j, 2)})}, var="rho")
    return Sl2Realization(j, raising, lowering, cartan)


def algebraic_hamiltonian(params: PhysicalParams, j: int) -> DiffOperator:
    """The published sl2 combination preserving the (j+1)-dimensional module:

        -J0 J- + (j+2)/2 J- + 16 c^4 hbar^3 q J+ + 4 c^2 hbar M omega J0

    Its restriction to 1..rho^j is exact; see :func:`crosspath_comparison`
    for how its spectrum relates to the derived critical polynomials (the
    published eigenvalue offset is not the one this operator realizes).
    """
    params.require_qes()
    g = sl2_generators(j)
    u = eta_squared(params)
    w = 4 * params.c**2 * params.hbar * params.M * params.omega
    return (-compose(g.cartan, g.lowering)
            + Q(j + 2, 2) * g.lowering
            + u * g.raising
            + w * g.cartan)


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeTermRecurrence:
    """Exact band coefficients of ``alpha_k f_{k+1} = (x - beta_k) f_k - gamma_k f_{k-1}``.

    ``alpha``, ``beta``, ``gamma`` are polynomials in the row index k.
    ``variable`` records what the eigenvalue symbol x means: "physical" is
    eps^2 itself, "reduced" is the swept operator's eigenvalue, mapped to
    eps^2 by ``ledger``.  ``params`` are the mode's parameters the band was
    built from; ``operator`` the reduced rho-operator it was read from and
    ``gauge`` the gauge that conjugated it (derived recurrences only).
    """

    j: int
    alpha: QPoly
    beta: QPoly
    gamma: QPoly
    source: str
    mode: str
    variable: str
    ledger: SpectralLedger
    params: PhysicalParams
    operator: Optional[DiffOperator] = field(default=None, compare=False)
    gauge: Optional[GaugeAnsatz] = None

    def coefficients_at(self, k: int) -> tuple[Fraction, Fraction, Fraction]:
        kk = Q(k)
        return self.alpha(kk), self.beta(kk), self.gamma(kk)

    def degenerate_rows(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.j + 1) if not self.alpha(Q(k)))

    @property
    def closes(self) -> bool:
        """gamma_{j+1} = 0: the band's raising part kills rho^j, so the module
        1..rho^j is invariant.  A derived block solves the radial equation
        only when its band closes."""
        return not self.gamma(Q(self.j + 1))


def _field_ledger(params: PhysicalParams, m: int) -> SpectralLedger:
    shift = params.c**2 * 4 * params.hbar * params.M * params.omega * (1 - m)
    return SpectralLedger(shift=shift, provenance=(
        "published reduced operator omits the radial constant; shift restores eps^2",))


def published_recurrence(params: PhysicalParams, j: int, mode: str) -> ThreeTermRecurrence:
    """The three-term recurrences exactly as published.

    free (row sign normalized so alpha multiplies the forward term):
        eta^2 (j-k) P_{k+1} = (x + 4 M c^2 hbar omega (j-k+1)) P_k - k (j-k+2) P_{k-1}
    with x the physical eps^2; the leading coefficient vanishes at k = j
    (degeneracy flag), where the row becomes the truncation constraint.

    field:
        eta^2 P_{k+1} = x P_k - k (j+2-k) P_{k-1}
    with x the reduced eigenvalue (the published form never restores the
    radial constant; the attached ledger does).
    """
    params.require_qes()
    if j < 0 or int(j) != j:
        raise DomainError("j must be a non-negative integer")
    j = int(j)
    m = j + 2
    params = params.for_mode(mode)
    u = eta_squared(params)
    w = 4 * params.M * params.c**2 * params.hbar * params.omega
    k = QPoly.x()
    if mode == "free":
        alpha = u * (Q(j) - k)
        beta = -w * (Q(j + 1) - k)
        gamma = k * (Q(j + 2) - k)
        return ThreeTermRecurrence(j, alpha, beta, gamma, "published", "free", "physical",
                                   SpectralLedger(), params)
    if mode == "field":
        alpha = QPoly.const(u)
        beta = QPoly()
        gamma = k * (Q(j + 2) - k)
        return ThreeTermRecurrence(j, alpha, beta, gamma, "published", "field", "reduced",
                                   _field_ledger(params, m), params)
    raise DomainError(f"unknown mode {mode!r}")


def canonical_gauge(params: PhysicalParams, m: int, mode: str) -> GaugeAnsatz:
    """The gauge that reproduces the published reduced operators.

    Both published wavefunction factors carry sign misprints; the factor that
    actually cancels the quartic and sextic growths of the potential is
    r^(1/2-m) exp(+q r^4/4hbar) with, in free mode, the decaying gaussian
    exp(-M omega r^2/2hbar).  Its divergence classification is computed and
    reported downstream, never assumed away.
    """
    b = params.M * params.omega if mode == "free" else Q(0)
    return GaugeAnsatz(power=Q(1, 2) - m, gaussian=b, quartic=-params.q)


def derived_recurrence(params: PhysicalParams, j: int, gauge: GaugeAnsatz | None,
                       mode: str) -> ThreeTermRecurrence:
    """Mechanical pipeline: radial operator -> gauge -> rho variable -> recurrence.

    The only place the pipeline runs.  Returns the recurrence in the reduced
    (constant-free) eigenvalue, carrying the reduced operator and the ledger
    mapping it back to eps^2.  Gauge failures and band violations propagate
    as GaugeError / NotQesError.
    """
    params.require_qes()
    if j < 0 or int(j) != j:
        raise DomainError("j must be a non-negative integer")
    j = int(j)
    m = j + 2
    params = params.for_mode(mode)
    if gauge is None:
        gauge = canonical_gauge(params, m, mode)
    radial = radial_operator(params, m, mode)
    conjugated, ledger = gauge_conjugate(radial, gauge, params.hbar)
    reduced = change_variable_sqrt(conjugated, 2 * params.c * params.hbar)
    return ThreeTermRecurrence(j, *series_recurrence(reduced), "derived", mode, "reduced",
                               ledger, params, reduced, gauge)


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialFamily:
    """Monic energy polynomials P_0..P_{j+1}: the continuants of a three-term band.

    P_0 = 1, P_1 = x - b_0 and P_{k+1} = (x - b_k) P_k - c_k P_{k-1}, with
    b_k = beta_k and c_k = alpha_{k-1} gamma_k.  The last entry is the
    critical polynomial whose roots form the algebraic block.  Row j reads
    alpha_{j-1}, never alpha_j, so the published free-mode degeneracy
    alpha_j = 0 (flagged in ``degenerate_rows``) needs no special case.
    ``jacobi`` is (b, c) when every c_k > 0, a Jacobi matrix whose
    eigenvalues are the critical roots; None when the band cannot be
    symmetrized.
    """

    j: int
    polys: tuple[QPoly, ...]
    variable: str
    ledger: SpectralLedger
    degenerate_rows: tuple[int, ...] = ()
    jacobi: Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = None

    @property
    def critical(self) -> QPoly:
        return self.polys[self.j + 1]

    @property
    def critical_physical(self) -> QPoly:
        """The critical polynomial against the physical eps^2, monic."""
        return self._physical(self.critical)

    def in_physical_variable(self) -> "PolynomialFamily":
        """Rewrite every polynomial against the physical eps^2, monic."""
        if self.variable == "physical":
            return self
        jacobi = self.jacobi and (tuple(map(self.ledger.to_physical, self.jacobi[0])),
                                  self.jacobi[1])
        return PolynomialFamily(self.j, tuple(map(self._physical, self.polys)), "physical",
                                SpectralLedger(), self.degenerate_rows, jacobi)

    def _physical(self, p: QPoly) -> QPoly:
        return p if self.variable == "physical" else p.shifted(-self.ledger.shift)


def polynomial_family(rec: ThreeTermRecurrence) -> PolynomialFamily:
    """The monic continuants of the band, exactly in x.  A vanishing alpha_k
    for k < j decouples the band: construction stops, the error carrying the row."""
    band = [rec.coefficients_at(k) for k in range(rec.j + 1)]
    x, b, c = QPoly.x(), tuple(beta for _, beta, _ in band), []
    polys = [QPoly([1]), x - b[0]]
    for k in range(1, rec.j + 1):
        if not band[k - 1][0]:
            raise FamilyConstructionError(
                f"recurrence row {k - 1} is degenerate: cannot generate P_{k}", row=k - 1)
        c.append(band[k - 1][0] * band[k][2])
        polys.append((x - b[k]) * polys[-1] - c[-1] * polys[-2])
    jacobi = (b, tuple(c)) if all(v > 0 for v in c) else None
    return PolynomialFamily(rec.j, tuple(polys), rec.variable, rec.ledger,
                            rec.degenerate_rows(), jacobi)


def run_recurrence(rec: ThreeTermRecurrence, x, rows: int, band=None) -> list:
    """The series coefficients f_0 = 1, f_1, ..., f_rows of the recurrence at ``x``.

    ``x`` is a Fraction or mpf root (exact band coefficients enter mpf runs
    as mpf), or QPoly.x() for the unscaled f_k as polynomials in x.
    ``band`` is the rows' (alpha_k, beta_k, gamma_k) already in that ring,
    for a caller that runs the recurrence at many roots.  Every alpha_k of
    rows 0..rows-1 must be nonzero.
    """
    if band is None:
        scalar = (lambda v: v) if isinstance(x, (QPoly, Fraction, int)) else _to_mpf
        band = [tuple(scalar(v) for v in rec.coefficients_at(k)) for k in range(rows)]
    fs, prev = [x * 0 + 1], x * 0
    for k in range(rows):
        ak, bk, gk = band[k]
        fs.append(((x - bk) * fs[-1] - gk * prev) / ak)
        prev = fs[-2]
    return fs


def _to_mpf(qv: Fraction):
    return mpmath.mpf(qv.numerator) / mpmath.mpf(qv.denominator)


# ---------------------------------------------------------------------------
# Exact real-root certification: approximate, round to a dyadic cell, verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootEnclosure:
    """Rational interval certified to contain exactly one simple real root."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def shifted(self, ledger: SpectralLedger) -> "RootEnclosure":
        return RootEnclosure(ledger.to_physical(self.lo), ledger.to_physical(self.hi))

    def mpf(self, digits: int):
        with mpmath.workdps(digits + 10):
            return _to_mpf(self.midpoint)


def _sturm_chain(p: QPoly) -> list[QPoly]:
    chain = [p, p.derivative()]
    while chain[-1]:
        rem = chain[-2] % chain[-1]
        if not rem:
            break
        chain.append(-rem)
    return [c for c in chain if c]


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(chain: Sequence[QPoly], x: Fraction) -> int:
    return _sign_changes([c(x) for c in chain])


def _sturm_jacobi(p: QPoly) -> tuple[list[Fraction], list[Fraction]]:
    """(b_k, c_k) of a Jacobi matrix whose eigenvalues are the roots of ``p``,
    read off its exact Sturm chain.  Raise RootPropertyError when the Sturm
    count of distinct real roots (signs at +-infinity are leading signs) falls
    short of the degree.  A full count leaves one chain entry of each degree i
    with leading coefficients l_i of one sign, so the monic P_i obey
    P_{k+1} = (x - b_k) P_k - c_k P_{k-1} with c_k = l_{k-1} / l_{k+1} > 0."""
    chain = _sturm_chain(p)
    at_neg = [c.leading * (-1) ** c.degree for c in chain]
    count = _sign_changes(at_neg) - _sign_changes([c.leading for c in chain])
    if count < p.degree:
        raise RootPropertyError(
            f"only {count} distinct real roots for degree {p.degree}", p, count=count)
    chain.reverse()  # entry i has degree i
    lead = [c.leading for c in chain]
    s = [e.coeff(i - 1) / lead[i] for i, e in enumerate(chain)]
    b = [s[k] - s[k + 1] for k in range(p.degree)]
    c = [lead[k - 1] / lead[k + 1] for k in range(1, p.degree)]
    return b, c


#: cap on the integer Newton steps per root; from a float seed (53 bits) a
#: simple root needs about log2(k / 53) + 2
_NEWTON_STEPS = 30


def _horner(coeffs: Sequence[int], num: int, k: int) -> tuple[int, int]:
    """(P, P') at ``num`` for the integer polynomial P(num) = 2^(k deg) p(num / 2^k),
    from p's integer coefficients (constant first), by one integer Horner: no
    gcd work.  P has the sign of p(num / 2^k); P' = dP/dnum."""
    acc, dacc, shift = coeffs[-1], 0, 0
    for a in reversed(coeffs[:-1]):
        shift += k
        dacc = dacc * num + acc
        acc = acc * num + (a << shift)
    return acc, dacc


def _sign_at(coeffs: Sequence[int], num: int, k: int) -> int:
    """Sign of p(num / 2^k)."""
    v = _horner(coeffs, num, k)[0]
    return (v > 0) - (v < 0)


def _newton_centres(coeffs: Sequence[int], jacobi, k: int) -> Optional[list[int]]:
    """Roots as ascending integer numerators over 2^k: numpy (LAPACK) eigenvalues
    of the dense float symmetrized Jacobi matrix (b_k, sqrt(c_k)), each refined
    by Newton in exact integers on that grid (step round(P/P'), done once
    |step| <= 1).  None when an entry overflows a float, a seed is not
    finite, P' vanishes or a root does not converge in _NEWTON_STEPS."""
    diag, offsq = jacobi
    try:
        off = [math.sqrt(float(c)) for c in offsq]
        seeds = np.linalg.eigvalsh(np.diag([float(b) for b in diag])
                                   + np.diag(off, 1) + np.diag(off, -1))
    except (OverflowError, np.linalg.LinAlgError):
        return None
    if not np.isfinite(seeds).all():
        return None
    centres = []
    for seed in seeds:
        n, den = float(seed).as_integer_ratio()
        num = (n << k) // den
        for _ in range(_NEWTON_STEPS):
            v, dv = _horner(coeffs, num, k)
            if not dv:
                return None
            step = (2 * v + dv) // (2 * dv)  # floor(v / dv + 1/2) for either sign of dv
            num -= step
            if abs(step) <= 1:
                break
        else:
            return None
        centres.append(num)
    return sorted(centres)


def _centres(jacobi, dps: int, k: int) -> list[int]:
    """mpf eigenvalues (``mpmath.eigsy``) of the Jacobi matrix (b_k, sqrt(c_k))
    at ``dps`` digits, rounded to ascending integer numerators over 2^k: the
    fallback after :func:`_newton_centres`."""
    diag, offsq = jacobi
    with mpmath.workdps(dps):
        mat = mpmath.diag([_to_mpf(b) for b in diag])
        for i, ci in enumerate(offsq, 1):
            mat[i, i - 1] = mat[i - 1, i] = mpmath.sqrt(_to_mpf(ci))
        approx = mpmath.eigsy(mat, eigvals_only=True)
        return sorted(int(mpmath.nint(mpmath.ldexp(x, k))) for x in approx)


def _certified(p: QPoly, coeffs: Sequence[int], centres: list[int],
               k: int) -> Optional[list[RootEnclosure]]:
    """Cells [c-1, c+1]/2^k across which p changes sign ([c, c]/2^k where p
    vanishes), one per root and disjoint, or None when any check fails.  A
    parity-symmetric p has its positive roots certified and mirrored; 0 is
    then a root exactly when the degree is odd."""
    d = p.degree
    if len(centres) != d:
        return None
    parity = not any(p.c[d - 1::-2])
    cells = []
    for c in centres[d - d // 2:] if parity else centres:
        if not _sign_at(coeffs, c, k):
            cells.append(RootEnclosure(Q(c, 1 << k), Q(c, 1 << k)))
        elif _sign_at(coeffs, c - 1, k) * _sign_at(coeffs, c + 1, k) < 0:
            cells.append(RootEnclosure(Q(c - 1, 1 << k), Q(c + 1, 1 << k)))
        else:
            return None
    if parity:
        if cells and cells[0].lo <= 0:
            return None
        cells = ([RootEnclosure(-e.hi, -e.lo) for e in reversed(cells)]
                 + [RootEnclosure(Q(0), Q(0))] * (d % 2) + cells)
    if any(a.hi >= b.lo for a, b in zip(cells, cells[1:])):
        return None
    return cells


def isolate_real_roots(p: QPoly, digits: int = 50, jacobi=None) -> list[RootEnclosure]:
    """Disjoint enclosures of all real roots of ``p``, each of width < 10^-(digits+10).

    Approximate the eigenvalues of a Jacobi matrix ``jacobi`` = (b_k, c_k),
    every c_k > 0, whose monic continuant is ``p``; round them to dyadic cells
    and certify each by exact integer signs: deg p disjoint sign changes prove
    every root real, simple and isolated.  Without ``jacobi`` the matrix is
    read off the exact Sturm chain, whose count raises
    :class:`RootPropertyError` when the distinct real roots fall short of the
    degree (complex or multiple roots: a reportable property violation).
    LAPACK float seeds refined by exact integer Newton on the cell grid come
    first; if those cells fail, mpf eigenvalues (``mpmath.eigsy``), retried
    at doubled precision on each failed certification.
    """
    if p.degree < 1:
        raise QesError("constant polynomial has no roots to isolate")
    if jacobi is None:
        jacobi = _sturm_jacobi(p)
    coeffs = _over_common(p.c)[0]
    k = (10 ** (digits + 10)).bit_length() + 1
    centres = _newton_centres(coeffs, jacobi, k)
    cells = None if centres is None else _certified(p, coeffs, centres, k)
    if cells is not None:
        return cells
    # 10 guard digits past the cell, plus the bits of the Fujiwara root bound
    # 2 max |a_{d-i}/a_d|^(1/i): approximation errors scale with the roots
    lead = abs(coeffs[-1]).bit_length()
    bits = max((abs(a).bit_length() - lead) // (p.degree - i) + 3 for i, a in enumerate(coeffs[:-1]))
    dps0 = dps = digits + 20 + max(0, bits) * 3 // 10 + 1
    for _ in range(6):
        # the cell narrows with the precision so that close roots separate
        k = (10 ** (digits + 10 + (dps - dps0) // 2)).bit_length() + 1
        cells = _certified(p, coeffs, _centres(jacobi, dps, k), k)
        if cells is not None:
            return cells
        dps *= 2
    raise QesError(f"degree-{p.degree} roots not certified at {dps // 2} digits")


def critical_roots(family: PolynomialFamily, digits: int = 50) -> list[RootEnclosure]:
    """Certified enclosures of the j+1 roots of the critical polynomial."""
    return isolate_real_roots(family.critical, digits, family.jacobi)


# ---------------------------------------------------------------------------
# Spectra and wavefunctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QesSpectrum:
    """The algebraic block at level j: roots, energies, expansion coefficients.

    ``recurrence`` and ``family`` are the records the block was built from;
    the parameters, critical polynomial, variable, ledger and gauge (None for
    a published block) are read from them.  ``coefficients[i]`` is the series
    c_0..c_j at root i as mpf values computed at ``digits + 10`` digits; do
    arithmetic on them inside ``mpmath.workdps(digits + 10)``.
    """

    recurrence: ThreeTermRecurrence
    family: PolynomialFamily
    roots_reduced: tuple[RootEnclosure, ...]
    roots_physical: tuple[RootEnclosure, ...]
    energies: tuple[SpectralValue, ...]
    coefficients: tuple[tuple, ...]
    digits: int

    params = property(lambda self: self.recurrence.params)
    j = property(lambda self: self.recurrence.j)
    m = property(lambda self: self.recurrence.j + 2)
    mode = property(lambda self: self.recurrence.mode)
    source = property(lambda self: self.recurrence.source)
    ledger = property(lambda self: self.recurrence.ledger)
    gauge = property(lambda self: self.recurrence.gauge)
    critical = property(lambda self: self.family.critical)
    variable = property(lambda self: self.family.variable)


def spectrum(params: PhysicalParams, j: int, mode: str, digits: int = 50,
             recurrence: ThreeTermRecurrence | None = None) -> QesSpectrum:
    """Assemble the algebraic block: isolate roots, map through the ledger,
    attach energy pairs (or subcritical flags) and series coefficients.

    ``recurrence`` is the band the block is built from: a derived one (a
    gauge-search candidate's) or the published one
    (:func:`published_recurrence`); without one, the canonical gauge's derived
    band is used.  A ``recurrence`` of another level or mode, of neither
    source, or built from other parameters raises :class:`QesError`.  A
    derived band that does not close raises :class:`OpenModuleError`.
    """
    params.require_qes()
    params = params.for_mode(mode)
    rec = recurrence or derived_recurrence(params, j, None, mode)
    if (rec.j, rec.mode) != (j, mode) or rec.source not in ("derived", "published"):
        raise QesError(f"a {rec.source} j = {rec.j} {rec.mode}-mode recurrence cannot "
                       f"build the {rec.source} j = {j} {mode}-mode block")
    differ = [f"{f.name} = {getattr(rec.params, f.name)} (block: {getattr(params, f.name)})"
              for f in fields(params) if getattr(rec.params, f.name) != getattr(params, f.name)]
    if differ:
        raise QesError(f"a recurrence built at {', '.join(differ)} cannot build this block")
    if rec.source == "derived" and not rec.closes:
        raise OpenModuleError(rec)
    fam = polynomial_family(rec)
    roots = critical_roots(fam, digits)
    physical = tuple(r.shifted(rec.ledger) for r in roots)
    energies = tuple(energy_from_epsilon2(params, r.midpoint, digits) for r in physical)

    coeff_rows = []
    with mpmath.workdps(digits + 10):
        # coefficient vectors only need rows 0..j-1, so the published
        # free-mode degeneracy at row j never blocks them
        band = [tuple(_to_mpf(v) for v in rec.coefficients_at(k)) for k in range(j)]
        for r in roots:
            coeff_rows.append(tuple(run_recurrence(rec, r.mpf(digits), j, band)))
    return QesSpectrum(rec, fam, tuple(roots), physical, energies, tuple(coeff_rows), digits)


@dataclass(frozen=True)
class RadialWavefunction:
    """Closed form f(r) = r^s exp(-b r^2/2h - a r^4/4h) sum_k c_k rho^k.

    rho = r^2 / scale^2 with scale = 2 c hbar.  Coefficients are mpmath
    values evaluated at one root.  The normalizability class is computed from
    the gauge, never asserted.
    """

    gauge: GaugeAnsatz
    scale: Fraction
    coefficients: tuple
    hbar: Fraction

    @property
    def normalizability(self) -> str:
        return self.gauge.normalizability

    def polynomial_in_r(self) -> dict[int, object]:
        """The polynomial factor as {power of r: coefficient}."""
        s2 = self.scale**2
        return {2 * k: ck / _to_mpf(s2**k) for k, ck in enumerate(self.coefficients)}

    def prefactor(self, r):
        """The gauge factor r^s exp(-b r^2/2h - a r^4/4h) at an mpf r."""
        g = self.gauge
        h = _to_mpf(self.hbar)
        return r ** _to_mpf(g.power) * mpmath.exp(
            -_to_mpf(g.gaussian) * r**2 / (2 * h) - _to_mpf(g.quartic) * r**4 / (4 * h))

    def __call__(self, r):
        """Evaluate at r > 0 with mpmath (use inside mpmath.workdps)."""
        r = mpmath.mpf(r) if not isinstance(r, mpmath.mpf) else r
        poly = mpmath.mpf(0)
        for e, ce in sorted(self.polynomial_in_r().items()):
            poly += ce * r**e
        return self.prefactor(r) * poly


def wavefunction(spec: QesSpectrum, index: int) -> RadialWavefunction:
    """The closed-form eigenfunction of a derived block at its root ``index``.

    The series coefficients are the block's own row ``spec.coefficients[index]``.
    A published block has no gauge, hence no closed form: :class:`QesError`.
    """
    if spec.gauge is None:
        raise QesError(f"a {spec.source} block has no gauge and so no closed-form eigenfunction")
    p = spec.params
    return RadialWavefunction(spec.gauge, 2 * p.c * p.hbar, spec.coefficients[index], p.hbar)


# ---------------------------------------------------------------------------
# Gauge search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeCandidate:
    gauge: GaugeAnsatz
    recurrence: Optional[ThreeTermRecurrence]
    diagnostics: dict
    error: Optional[str] = None

    @property
    def viable(self) -> bool:
        return self.error is None


def gauge_search(params: PhysicalParams, j: int, mode: str,
                 include_failures: bool = False) -> list[GaugeCandidate]:
    """Enumerate the finite gauge candidate set and keep the banded ones.

    Candidates: s in {m+1/2, 1/2-m} (both indicial branches), gaussian in
    {+M omega, -M omega, 0}, quartic in {+q, -q}.  Each kept candidate is
    annotated with whether its reduced operator reproduces the published one;
    the published forms drop the radial constant, so the annotation also
    records whether the pipeline's ledger shift matches the published
    constant (free: yes; field: the published form conflates the two
    eigenvalue symbols).  The normalizability class, the ledger and closure
    are read off the candidate's gauge and recurrence.  The sign of the field
    constant, which ``params`` carries, moves only the ledger.
    """
    params.require_qes()
    m = j + 2
    params = params.for_mode(mode)
    published_op = tables.published_reduced_operator(params, m, mode)
    published_const = published_op.coeff(0).constant_term
    published_swept = published_op - DiffOperator.multiplication(published_const, "rho")

    results: list[GaugeCandidate] = []
    for s in (Q(m) + Q(1, 2), Q(1, 2) - m):
        for b in (params.M * params.omega, -params.M * params.omega, Q(0)):
            for a in (params.q, -params.q):
                g = GaugeAnsatz(s, b, a)
                try:
                    rec = derived_recurrence(params, j, g, mode)
                except (GaugeError, NotQesError) as exc:
                    if include_failures:
                        results.append(GaugeCandidate(g, None, {}, error=str(exc)))
                    continue
                diagnostics = {
                    "reproduces_published_ode": rec.operator == published_swept,
                    "published_constant": published_const,
                    "constant_consistent": published_const == rec.ledger.shift,
                }
                results.append(GaugeCandidate(g, rec, diagnostics))
    viable = [c for c in results if c.viable]
    if not viable:
        raise NotQesError("no gauge candidate yields a banded operator")
    return results if include_failures else viable


# ---------------------------------------------------------------------------
# Ledger cross-derivation and operator cross-path
# ---------------------------------------------------------------------------


def ledger_shift_direct(params: PhysicalParams, m: int, mode: str,
                        gauge: GaugeAnsatz) -> Fraction:
    """Ledger shift re-derived from closed forms, bypassing the operator pipeline.

    The shift is the radial operator's constant (potential constant plus
    oscillator coupling, times c^2) plus the constant generated by the
    gaussian gauge factor, c^2 hbar b (1 + 2s).  Must agree exactly with the
    pipeline ledger; the comparison report asserts this.
    """
    from .model import potential_coefficients
    c2 = params.c**2
    v_const = potential_coefficients(params.for_mode(mode), m, mode).get(0, Q(0))
    radial_const = c2 * (v_const + coupling_constant(params, m))
    gauge_const = c2 * params.hbar * gauge.gaussian * (1 + 2 * gauge.power)
    return radial_const + gauge_const


def crosspath_comparison(params: PhysicalParams, j: int,
                         recurrence: ThreeTermRecurrence | None = None) -> dict:
    """Relate the module Hamiltonian's spectrum to the derived free-mode block.

    The published combination realizes, on the module 1..rho^j, the reduced
    free operator with the sign of q flipped, and its published eigenvalue
    offset 2 M c^2 hbar omega is inconsistent with the published tables; the
    offset the operator actually realizes is m-dependent, 2 m M c^2 hbar
    omega.  Both identifications are evaluated here and the implied one is
    checked exactly against the derived critical polynomial.  ``recurrence``
    is reused when it is that block's band (level j, free mode, these
    parameters, canonical gauge); otherwise the band is derived here.

    On the module the Hamiltonian is tridiagonal (the sl2 generators move
    the degree by at most one), so its characteristic polynomial
    det(x - H) is the continuant of its band: the monic P_{j+1} of the
    recurrence read from it.  A term off the band raises NotQesError; a
    module that does not close (gamma_{j+1} != 0) raises OperatorError.
    """
    params.require_qes()
    m = j + 2
    flipped = replace(params, q=-params.q)
    ham = algebraic_hamiltonian(flipped, j)
    module = ThreeTermRecurrence(j, *series_recurrence(ham), "module", "free", "reduced",
                                 SpectralLedger(), flipped, ham)
    if not module.closes:
        raise OperatorError(f"image of rho^{j} has a rho^{j + 1} term: "
                            f"span(1..rho^{j}) not invariant")
    cp = polynomial_family(module).critical

    canonical = canonical_gauge(params, m, "free")
    if (recurrence is None or (recurrence.j, recurrence.mode, recurrence.params,
                               recurrence.gauge) != (j, "free", params, canonical)):
        recurrence = derived_recurrence(params, j, canonical, "free")
    critical = polynomial_family(recurrence).critical_physical
    offset_published = 2 * params.M * params.c**2 * params.hbar * params.omega
    offset_implied = offset_published * m
    match_implied = cp.shifted(offset_implied) == critical
    match_published = cp.shifted(offset_published) == critical
    return {
        "charpoly_module": cp,
        "offset_published": offset_published,
        "offset_implied": offset_implied,
        "q_flipped_in_module_hamiltonian": True,
        "published_offset_matches": match_published,
        "implied_offset_matches": match_implied,
    }
