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
    "DEFAULT_N", "Grid", "OracleSpectrum", "EigenvalueRecord", "MatchReport", "MatchEntry",
    "discretize", "potential_on_grid", "sturm_count", "eigenvalues_bisection",
    "refine", "shoot", "residual", "ode_residual", "match_report", "suggest_grid",
]

DEFAULT_N = 1024
"""Base intervals of the h, h/2, h/4 ladder: the one default of ``suggest_grid``
and of the ``compare``, ``spectrum --oracle`` and ``oracle`` commands.

Near this n discretization and rounding errors are of one size: the h^4
estimate of :func:`refine` is within 3e-11 of the q = 0 oscillator
eigenvalues 4, 8, 12, 16, where base 8192 is 2e-9 off and its finest level
has a rounding floor eps * ||T|| of 2e-8 to 5e-8."""

_EPS = float(np.finfo(float).eps)
_ORDER_WINDOW = (1.7, 2.3)
_ROUNDING_FLOORS = 4  # a ladder step below this many floors is rounding-limited


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
        h2 = self.h * self.h
        if h2 == 0.0 or not math.isfinite(1.0 / h2):
            raise DomainError(f"rmax = {self.r_max!r} is too small for {self.n} intervals: "
                              "1/h^2 is not finite")

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

    LAPACK ``dstebz`` over the value range (-inf, sigma'], sigma' the float
    just below sigma: the count comes from the Sturm sequence of T - sigma',
    and the largest float as tolerance asks for no bisection.  An eigenvalue
    within rounding of sigma may fall on either side.
    """
    below = float(np.nextafter(float(sigma), -np.inf))
    found = eigh_tridiagonal(np.asarray(diag, dtype=np.float64),
                             np.asarray(off, dtype=np.float64), eigvals_only=True,
                             select="v", select_range=(-np.inf, below),
                             lapack_driver="stebz", tol=np.finfo(float).max)
    return len(found)


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
    """Convergence record of one eigenvalue over the h, h/2, h/4 ladder.

    ``flags`` name what weakens the record (see :func:`refine`).  A
    ``non-monotone`` record is not trusted, nor is one both
    ``rounding-limited`` and ``order-out-of-window``: its step is lost in
    rounding and the ladder shows it.  A ``rounding-limited`` record whose
    order stays in the window is trusted, since rounding did not disturb it.
    """

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
        if "non-monotone" in self.flags:
            return False
        return not {"rounding-limited", "order-out-of-window"} <= set(self.flags)


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
    """Solve at h, h/2, h/4 and Richardson-extrapolate the h^2 and h^4 terms away.

    With d12 = v_h - v_h2 and d23 = v_h2 - v_h4, R0 = v_h2 - d12/3 and
    R1 = v_h4 - d23/3 remove the h^2 term from levels 1-2 and 2-3; the
    reported value R1 + (R1 - R0)/15 also removes the h^4 term.  Its bar is
    |R1 - R0|/15 plus the rounding floor eps * ||T|| of the finest level.
    For |m| < 2 outside the box the error has an odd power of h below h^4,
    so the value stays R1 with the bar |d23|/3 + eps * ||T||.
    ``observed_order`` is the raw ladder's log2(d12/d23).

    Flags, each with its cause:

    * ``non-monotone``: d12 and d23 differ in sign or d23 = 0.  The value is
      v_h4 and the bar |d12| + |d23|.
    * ``rounding-limited``: |d23| is below 4 rounding floors.  The floor
      bounds bisection's error from above and is often far above it, so
      the flag alone says only that the bar is set by rounding; the
      observed order tells whether rounding has disturbed the ladder.
    * ``order-out-of-window``: the observed order leaves [1.7, 2.3], so the
      h^2 ansatz behind R0 and R1 does not hold.
    * ``near-degenerate``: a neighbour at the finest level is closer than the
      coarse step |d12|, so the ladder has not resolved the pair.  The top
      record's upper neighbour is seen by one Sturm count of the finest
      system at v_h4 + |d12|.
    * ``ordering``: the value is not above the previous record's.

    ``order-out-of-window`` and ``near-degenerate`` records carry the
    conservative bar |d12| + |d23| + eps * ||T||.  ``non-monotone`` records,
    and ``rounding-limited`` ones whose order also leaves the window, are
    excluded from match verdicts (:attr:`EigenvalueRecord.trusted`).
    """
    levels = []
    for factor in (1, 2, 4):
        diag, off = discretize(params, m, mode, grid.refined(factor), convention)
        levels.append(eigenvalues_bisection(diag, off, count))
    # eps * ||T|| of the finest level, ||T|| = max|diag| + 2 max|off|: bisection
    # is accurate to a small multiple of it (Demmel 1997, section 5.3)
    floor = _EPS * (float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off))))
    v1, v2, v3 = levels
    # near the origin the solution goes as r^(m+1/2), which adds an h^(2m+1)
    # term to the error: the h^4 step needs it past h^4, so |m| >= 2 (the box
    # solution is smooth)
    even_h4 = mode == "box" or abs(m) >= 2
    records = []
    prev = -math.inf
    for i in range(count):
        d12, d23 = float(v1[i] - v2[i]), float(v2[i] - v3[i])
        if i + 1 < count:
            upper = v3[i + 1] - v3[i] < abs(d12)
        else:  # one Sturm count: does the next eigenvalue lie within |d12|?
            upper = sturm_count(diag, off, v3[i] + abs(d12)) > count
        lower = i > 0 and v3[i] - v3[i - 1] < abs(d12)
        flags = []
        order = None
        if d12 * d23 <= 0 or d23 == 0:
            flags.append("non-monotone")
            extrap = float(v3[i])
            err = abs(d23) + abs(d12)
        else:
            order = math.log2(abs(d12) / abs(d23))
            r0, r1 = v2[i] - d12 / 3.0, v3[i] - d23 / 3.0
            if even_h4:
                extrap, err = r1 + (r1 - r0) / 15.0, abs(r1 - r0) / 15.0 + floor
            else:
                extrap, err = r1, abs(d23) / 3.0 + floor
            if not (_ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]):
                flags.append("order-out-of-window")
        if abs(d23) < _ROUNDING_FLOORS * floor:
            flags.append("rounding-limited")
        if lower or upper:
            flags.append("near-degenerate")
        if order is not None and {"order-out-of-window", "near-degenerate"} & set(flags):
            err = abs(d12) + abs(d23) + floor
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
    oracle_flags: tuple[str, ...] = ()


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

    Trust policy: only trusted oracle records take part, so a
    ``non-monotone`` ladder (no convergence) never decides a verdict, nor
    does a ladder both ``rounding-limited`` and ``order-out-of-window`` (its
    step lost in rounding, as at a far too fine grid or a huge r_max).  Any
    other record is trusted: a ``rounding-limited`` ladder of regular order
    converged cleanly (its bar is set by the floor), ``order-out-of-window``
    and ``near-degenerate`` records already carry the conservative bar, and
    ``ordering`` concerns the record's neighbour.
    Every entry names the flags of the record it used in ``oracle_flags``, so
    that no flagged record feeds a MATCHED verdict silently.
    """
    if qes.mode != oracle.mode or qes.m != oracle.m:
        raise DomainError("spectra to match must share mode and m")
    usable = [rec for rec in oracle.records if rec.trusted]
    entries = []
    for idx, enc in enumerate(qes.roots_physical):
        qv = float(enc.midpoint)
        if usable:
            rec = min(usable, key=lambda r: abs(r.extrapolated - qv))
            gap = abs(rec.extrapolated - qv)
            rel = gap / max(1.0, abs(qv))
            verdict = "MATCHED" if rel <= tol else "UNMATCHED"
            entries.append(MatchEntry(idx, qv, rec.extrapolated, rec.index, gap, rel,
                                      verdict, rec.flags))
        else:
            entries.append(MatchEntry(idx, qv, None, None, None, None, "UNMATCHED"))
    return MatchReport(qes.mode, qes.m, tol, str(qes.ledger.shift), tuple(entries))


# ---------------------------------------------------------------------------
# Grid selection
# ---------------------------------------------------------------------------


def suggest_grid(params: Optional[PhysicalParams], m: int, mode: str, count: int,
                 n: int = DEFAULT_N, margin: float = 1.5, v_margin: float = 4.0,
                 convention: str = "consistent") -> Grid:
    """Domain size from the turning point of the largest sought eigenvalue.

    A coarse solve on max(512, 2 * count) intervals estimates the top
    eigenvalue; r_max is the classical turning point times ``margin``, grown
    until the potential there exceeds the eigenvalue scale ``v_margin``
    times over, and then until the wall moves the top eigenvalue by less
    than the rounding floor of the ladder's finest level.  The sextic growth
    keeps the domains modest.  ``count`` may be at most n - 1, the unknowns
    of the n-interval grid asked for.
    """
    if count > n - 1:
        raise DomainError(f"asked for {count} eigenvalues of the {n - 1}-dimensional "
                          f"system of a grid of n = {n} intervals")
    if mode == "box":
        return Grid(math.pi, n)
    kin, mult = _operator_floats(params, m, mode, convention)
    u = partial(_power_sum, mult)
    r_max = 4.0
    for _ in range(3):
        coarse = Grid(r_max, max(512, 2 * count))
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
    # past the turning point the top eigenfunction decays as exp(-S), S the
    # integral of sqrt((u - lam)/kin), and the wall at r_max shifts the
    # eigenvalue by about lam * exp(-2 S), which no error bar covers: grow the
    # domain until that shift is below the rounding floor eps * 4 kin / h^2
    # of the finest level, h = r_max / (4 n)
    while scale * math.exp(-2.0 * _decay(u, kin, lam_top, r_turn, r_max)) > \
            _EPS * 4.0 * kin * (4 * n / r_max) ** 2:
        r_max *= 1.2
    return Grid(r_max, n)


def _decay(u, kin: float, lam: float, r_from: float, r_to: float) -> float:
    """Midpoint rule for the WKB exponent: integral of sqrt(max(u - lam, 0) / kin)."""
    edges = np.linspace(r_from, r_to, 257)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(np.sqrt(np.maximum(u(mids) - lam, 0.0) / kin)) * (edges[1] - edges[0]))
