"""Independent numerical eigensolver for the radial operators.

Finite differences on a uniform Dirichlet grid (first node at h, which
handles the centrifugal singularity without special-casing), Sturm-count
bisection (LAPACK dstebz) for the lowest eigenvalues, Richardson
extrapolation over h, h/2, h/4 with the observed convergence order recorded
per eigenvalue, and an independent shooting method (outward regular branch,
inward decaying tail, eigenvalue at the Wronskian root) for
cross-validation.

This solver always discretizes the physical operator, constants included;
algebraic-block eigenvalues are mapped onto the same scale by their ledger
before any comparison.  A MATCHED/UNMATCHED verdict is an empirical
statement about the operator's self-adjoint spectrum, nothing more: the
closed-form block wavefunctions need not be square integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import DomainError, PhysicalParams, radial_operator
from .opcalc import Q
from .qes import QesSpectrum, RadialWavefunction, _to_mpf

__all__ = [
    "Grid", "OracleSpectrum", "EigenvalueRecord", "MatchReport", "MatchEntry",
    "discretize", "potential_on_grid", "sturm_count", "eigenvalues_bisection",
    "refine", "shoot", "residual", "ode_residual", "match_report", "suggest_grid",
]

_ORDER_WINDOW = (1.7, 2.3)


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet grid: nodes i*h for i = 1..n-1, h = r_max / n."""

    r_max: float
    n: int

    def __post_init__(self):
        if self.n < 64:
            raise DomainError("grid needs at least 64 intervals")
        if not math.isfinite(self.r_max) or self.r_max <= 0:
            raise DomainError(f"r_max must be finite and positive, got {self.r_max}")

    @property
    def h(self) -> float:
        return self.r_max / self.n

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n)

    def refined(self, factor: int) -> "Grid":
        return Grid(self.r_max, self.n * factor)


def _operator_floats(params: Optional[PhysicalParams], m: int, mode: str,
                     convention: str = "consistent"):
    """(kinetic coefficient c^2 hbar^2, multiplicative coefficients {power: float})."""
    if mode == "box":
        return 1.0, {0: 0.0}
    if params is None:
        raise DomainError("physical modes need parameters")
    op = radial_operator(params, m, mode, convention)
    kin = -float(op.coeff(2).constant_term)
    mult = {e: float(v) for e, v in op.coeff(0).d.items()}
    return kin, mult


def _power_sum(coeffs: dict, r):
    """Sum of c * r^e over ``coeffs`` {e: c}, at a float node, an array of nodes or an mpf."""
    u = 0.0 * r
    for e, c in coeffs.items():
        u = u + (c * r**e if e else c)
    return u


def potential_on_grid(params: Optional[PhysicalParams], m: int, mode: str,
                      grid: Grid, convention: str = "consistent") -> np.ndarray:
    """The full multiplicative term c^2 [V + coupling] at the interior nodes."""
    _, mult = _operator_floats(params, m, mode, convention)
    return _power_sum(mult, grid.nodes())


def discretize(params: Optional[PhysicalParams], m: int, mode: str, grid: Grid,
               convention: str = "consistent") -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal system: second-order central differences.

    diagonal[i] = 2 c^2 hbar^2 / h^2 + U(r_i), off-diagonal = -c^2 hbar^2 / h^2.
    """
    kin, mult = _operator_floats(params, m, mode, convention)
    u = _power_sum(mult, grid.nodes())
    if not np.all(np.isfinite(u)):
        raise DomainError("potential overflows at the grid nodes; reduce r_max")
    h2 = grid.h * grid.h
    diag = 2.0 * kin / h2 + u
    off = np.full(len(u) - 1, -kin / h2)
    return diag, off


def sturm_count(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the tridiagonal system strictly below sigma.

    Counts the negative pivots of the LDL^T factorization of T - sigma.  A
    zero pivot is replaced by -1e-300; the next quotient may then overflow to
    an IEEE infinity, which the recurrence absorbs.  The loop runs on Python
    floats, where that overflow is silent.
    """
    sigma = float(sigma)
    off2 = [0.0] + (np.asarray(off, dtype=np.float64) ** 2).tolist()
    count = 0
    d = 1.0
    for a, b2 in zip(np.asarray(diag, dtype=np.float64).tolist(), off2):
        d = (a - sigma) - b2 / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def eigenvalues_bisection(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues by Sturm-count bisection.

    LAPACK ``dstebz`` (Barth-Martin-Wilkinson bisection with a pivot guard),
    run to the smallest positive absolute tolerance.  The accuracy is
    LAPACK's: each eigenvalue is bisected down to the rounding floor of
    about eps * ||T||.
    """
    n = len(diag)
    if count < 0:
        raise DomainError(f"eigenvalue count must be non-negative, got {count}")
    if count > n:
        raise DomainError(f"asked for {count} eigenvalues of a {n}-dimensional system")
    if count == 0:
        return np.empty(0)
    return eigh_tridiagonal(np.asarray(diag, dtype=np.float64),
                            np.asarray(off, dtype=np.float64), eigvals_only=True,
                            select="i", select_range=(0, count - 1),
                            lapack_driver="stebz", tol=np.finfo(float).tiny)


@dataclass(frozen=True)
class EigenvalueRecord:
    """Convergence record of one eigenvalue over the h, h/2, h/4 ladder."""

    index: int
    value_h: float
    value_h2: float
    value_h4: float
    extrapolated: float
    observed_order: Optional[float]
    error_estimate: float
    flags: tuple[str, ...] = ()

    @property
    def trusted(self) -> bool:
        return "non-monotone" not in self.flags


@dataclass(frozen=True)
class OracleSpectrum:
    """Numerically certified lowest eigenvalues of one radial operator."""

    mode: str
    m: int
    params: Optional[PhysicalParams]
    grid: Grid
    records: tuple[EigenvalueRecord, ...]

    @property
    def eigenvalues(self) -> list[float]:
        return [rec.extrapolated for rec in self.records]


def refine(params: Optional[PhysicalParams], m: int, mode: str, count: int,
           grid: Grid, convention: str = "consistent") -> OracleSpectrum:
    """Solve at h, h/2, h/4 and Richardson-extrapolate assuming second order.

    The observed order log2((v_h - v_h2)/(v_h2 - v_h4)) is recorded per
    eigenvalue and flagged when it leaves [1.7, 2.3]; non-monotone ladders
    are flagged and excluded from match verdicts.
    """
    levels = []
    for factor in (1, 2, 4):
        diag, off = discretize(params, m, mode, grid.refined(factor), convention)
        levels.append(eigenvalues_bisection(diag, off, count))
    v1, v2, v3 = levels
    records = []
    prev = -math.inf
    for i in range(count):
        d12, d23 = v1[i] - v2[i], v2[i] - v3[i]
        # second-order ansatz: e(h) = C h^2, so the limit is v3 + (v3 - v2)/3
        extrap = v3[i] + (v3[i] - v2[i]) / 3.0
        flags = []
        order = None
        if d12 * d23 <= 0 or d23 == 0:
            flags.append("non-monotone")
            extrap = float(v3[i])
            err = abs(d23) + abs(d12)
        else:
            order = math.log2(abs(d12) / abs(d23))
            err = abs(d23) / 3.0
            if not (_ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]):
                flags.append("order-out-of-window")
        if extrap <= prev:
            flags.append("ordering")
        prev = extrap
        records.append(EigenvalueRecord(i, float(v1[i]), float(v2[i]), float(v3[i]),
                                        float(extrap), order, float(err), tuple(flags)))
    return OracleSpectrum(mode, m, params, grid, tuple(records))


# ---------------------------------------------------------------------------
# Shooting method
# ---------------------------------------------------------------------------


def _integrate(w, x, r0, r1, y0, segments=8):
    """Integrate f'' = w(r, x) f over [r0, r1] with per-segment renormalization."""
    from scipy.integrate import solve_ivp

    y = np.array(y0, dtype=float)
    rs = np.linspace(r0, r1, segments + 1)
    for a, b in zip(rs[:-1], rs[1:]):
        sol = solve_ivp(lambda r, yy: [yy[1], w(r, x) * yy[0]], (a, b), y,
                        method="DOP853", rtol=1e-11, atol=1e-14, dense_output=False)
        y = sol.y[:, -1]
        scale = max(abs(y[0]), abs(y[1]))
        if scale > 0:
            y = y / scale
    return y


def shoot(params: Optional[PhysicalParams], m: int, mode: str, target: float,
          bracket: tuple[float, float], r_max: float,
          convention: str = "consistent") -> float:
    """Locate an eigenvalue near ``target`` as a root of the matching Wronskian.

    Integrates outward from the regular indicial behavior r^(m+1/2) (f = r for
    the box case) and inward from a decaying WKB tail (a Dirichlet node when
    the boundary is classically allowed); raises if the bracket shows no sign
    change, which is itself informative for UNMATCHED verdicts.
    """
    from scipy.optimize import brentq

    kin, mult = _operator_floats(params, m, mode, convention)

    def w(r: float, x: float) -> float:
        return (_power_sum(mult, r) - x) / kin

    r0 = 1e-4 * r_max
    if mode == "box":
        y_origin = [r0, 1.0]
    else:
        s = m + 0.5
        y_origin = [r0**s, s * r0 ** (s - 1.0)]
    # the ODE is linear: normalize the start vector so r0^(m+1/2) never
    # sits below the integrator's absolute tolerance
    norm = max(abs(y_origin[0]), abs(y_origin[1]))
    y_origin = [y_origin[0] / norm, y_origin[1] / norm]

    probe = np.linspace(r0, r_max, 257)
    wt = np.array([w(r, target) for r in probe])
    i_min = int(np.argmin(wt))
    r_mid = float(min(max(probe[i_min], 0.2 * r_max), 0.8 * r_max))

    def wronskian(x: float) -> float:
        f_out = _integrate(w, x, r0, r_mid, y_origin)
        w_end = w(r_max, x)
        if w_end > 0:
            y_inf = [1.0, -math.sqrt(w_end)]
        else:
            y_inf = [0.0, -1.0]
        f_in = _integrate(w, x, r_max, r_mid, y_inf)
        denom = math.hypot(*f_out) * math.hypot(*f_in)
        return (f_out[0] * f_in[1] - f_out[1] * f_in[0]) / denom

    a, b = bracket
    wa, wb = wronskian(a), wronskian(b)
    if wa * wb > 0:
        raise DomainError(
            f"no Wronskian sign change in bracket ({a}, {b}): no eigenvalue located")
    return float(brentq(wronskian, a, b, xtol=1e-12 * max(1.0, abs(target)), rtol=1e-12))


# ---------------------------------------------------------------------------
# Residual of closed-form candidates
# ---------------------------------------------------------------------------


def ode_residual(f, d2f, potential, kinetic, x, window: tuple[float, float],
                 samples: int = 33) -> float:
    """max |kinetic*(-f'') + potential*f - x f| over the window, relative.

    Normalized by max(1, |x|) * sup |f| so a root at exactly zero stays
    well-posed (for |x| >= 1 this coincides with sup |x f|).  ``f``, ``d2f``
    and ``potential`` are callables of r (mpmath-friendly); run inside an
    mpmath.workdps context matching the data's precision.
    """
    a, b = window
    num = mpmath.mpf(0)
    fmax = mpmath.mpf(0)
    for i in range(samples):
        r = mpmath.mpf(a) + (mpmath.mpf(b) - mpmath.mpf(a)) * i / (samples - 1)
        fv = f(r)
        hv = -kinetic * d2f(r) + potential(r) * fv
        num = max(num, abs(hv - x * fv))
        fmax = max(fmax, abs(fv))
    den = fmax * max(mpmath.mpf(1), abs(x))
    if den == 0:
        return float(mpmath.inf) if num else 0.0
    return float(num / den)


def residual(wf: RadialWavefunction, params: PhysicalParams, m: int, mode: str,
             x, window: tuple[float, float] = (0.5, 2.5), samples: int = 33,
             digits: int = 50, convention: str = "consistent") -> float:
    """Relative residual of the closed-form wavefunction against the radial operator.

    The second derivative is formed symbolically (the gauge factor's
    logarithmic derivative is a Laurent polynomial; the series part is a
    polynomial), floats enter only in the final evaluation.  For an algebraic
    block root this vanishes to root precision whether or not the function is
    normalizable.
    """
    op = radial_operator(params, m, mode, convention)
    kin = -op.coeff(2).constant_term

    with mpmath.workdps(digits + 10):
        mult = {e: _to_mpf(v) for e, v in op.coeff(0).d.items()}
        h = _to_mpf(params.hbar)
        s = _to_mpf(wf.gauge.power)
        bg = _to_mpf(wf.gauge.gaussian)
        aq = _to_mpf(wf.gauge.quartic)
        poly = {e: (c if isinstance(c, mpmath.mpf) else _to_mpf(Q(c)))
                for e, c in wf.polynomial_in_r().items()}
        dpoly = {e - 1: e * c for e, c in poly.items() if e}
        d2poly = {e - 1: e * c for e, c in dpoly.items() if e}

        def wprime(r):
            return s / r - bg * r / h - aq * r**3 / h

        def wsecond(r):
            return -s / r**2 - bg / h - 3 * aq * r**2 / h

        def prefactor(r):
            return r**s * mpmath.exp(-bg * r**2 / (2 * h) - aq * r**4 / (4 * h))

        def f(r):
            return prefactor(r) * _power_sum(poly, r)

        def d2f(r):
            qv = _power_sum(poly, r)
            dq = _power_sum(dpoly, r)
            d2q = _power_sum(d2poly, r)
            wp = wprime(r)
            return prefactor(r) * (d2q + 2 * wp * dq + (wsecond(r) + wp * wp) * qv)

        xv = x if isinstance(x, mpmath.mpf) else _to_mpf(Q(x)) if isinstance(x, (int, Fraction)) else mpmath.mpf(x)
        return ode_residual(f, d2f, partial(_power_sum, mult), _to_mpf(kin), xv, window, samples)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchEntry:
    root_index: int
    qes_value: float
    nearest_oracle: Optional[float]
    oracle_index: Optional[int]
    absolute_gap: Optional[float]
    relative_gap: Optional[float]
    verdict: str


@dataclass(frozen=True)
class MatchReport:
    """Nearest-neighbor comparison of ledger-aligned block roots vs solver eigenvalues."""

    mode: str
    m: int
    tolerance: float
    ledger_shift: str
    entries: tuple[MatchEntry, ...]

    @property
    def matched(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "MATCHED")


def match_report(qes: QesSpectrum, oracle: OracleSpectrum, tol: float = 1e-4) -> MatchReport:
    """Deterministic verdicts: MATCHED iff |q - o| / max(1, |q|) <= tol.

    Only trusted oracle eigenvalues (monotone refinement ladder) participate.
    """
    if qes.mode != oracle.mode or qes.m != oracle.m:
        raise DomainError("spectra to match must share mode and m")
    usable = [(i, rec.extrapolated) for i, rec in enumerate(oracle.records) if rec.trusted]
    entries = []
    for idx, enc in enumerate(qes.roots_physical):
        qv = float(enc.midpoint)
        if usable:
            oi, ov = min(usable, key=lambda t: abs(t[1] - qv))
            gap = abs(ov - qv)
            rel = gap / max(1.0, abs(qv))
            verdict = "MATCHED" if rel <= tol else "UNMATCHED"
            entries.append(MatchEntry(idx, qv, ov, oi, gap, rel, verdict))
        else:
            entries.append(MatchEntry(idx, qv, None, None, None, None, "UNMATCHED"))
    return MatchReport(qes.mode, qes.m, tol, str(qes.ledger.shift), tuple(entries))


# ---------------------------------------------------------------------------
# Grid selection
# ---------------------------------------------------------------------------


def suggest_grid(params: Optional[PhysicalParams], m: int, mode: str, count: int,
                 n: int = 8192, margin: float = 1.5, v_margin: float = 4.0,
                 convention: str = "consistent") -> Grid:
    """Domain size from the turning point of the largest sought eigenvalue.

    A coarse solve estimates the top eigenvalue; r_max is the classical
    turning point times ``margin``, grown until the potential there exceeds
    the eigenvalue scale ``v_margin`` times over.  The sextic growth keeps
    the domains modest.
    """
    if mode == "box":
        return Grid(math.pi, n)
    _, mult = _operator_floats(params, m, mode, convention)
    u = partial(_power_sum, mult)
    r_max = 4.0
    for _ in range(3):
        coarse = Grid(r_max, 512)
        diag, off = discretize(params, m, mode, coarse, convention)
        lam = eigenvalues_bisection(diag, off, count)
        lam_top = float(lam[-1])
        scale = max(abs(lam_top), 1.0)
        # outer classical turning point: bisect from the well minimum, not
        # from the origin, or the centrifugal wall's inner crossing wins
        hi = r_max
        while u(hi) < lam_top:
            hi *= 2.0
        probe = np.linspace(hi / 512, hi, 512)
        lo = float(probe[int(np.argmin([u(r) for r in probe]))])
        if u(lo) >= lam_top:
            r_turn = lo
        else:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if u(mid) < lam_top:
                    lo = mid
                else:
                    hi = mid
            r_turn = hi
        r_new = margin * max(r_turn, 1e-2)
        while u(r_new) < v_margin * scale:
            r_new *= 1.2
        if abs(r_new - r_max) / r_max < 0.05:
            r_max = r_new
            break
        r_max = r_new
    return Grid(r_max, n)
