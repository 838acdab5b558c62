"""Independent numerical eigensolver for the radial operators.

Finite differences on a uniform Dirichlet grid (first node at h, which
handles the centrifugal singularity without special-casing), Sturm-count
bisection (LAPACK dstebz) for the lowest eigenvalues down to a small
fraction of the rounding floor eps * ||T||, Richardson extrapolation over
h, h/2, h/4 with the observed convergence order recorded per eigenvalue
(each level bisected inside brackets that the levels below it predict,
after two cheap predictor levels at 4h and 2h), and an independent shooting
method (outward regular branch, inward decaying tail, eigenvalue at the
Wronskian root) for cross-validation.  Shooting carries each branch
through 2048 fixed steps of a fourth-order Magnus propagator (Iserles &
Norsett 1999; Blanes, Casas, Oteo & Ros 2009), built in numpy.  That count
suffices: on the r_max every caller passes (``suggest_grid``'s, or pi for
the box) doubling it moves no root by more than 6e-13 relative.

``dstebz`` is that of the ILP64 OpenBLAS that numpy bundles, bound through
ctypes, which releases the GIL; only where numpy exports no such symbol
(MKL, Accelerate, numpy 1.x) does the entry point that
``scipy.linalg.cython_lapack`` publishes stand in.  Shooting finds its root
by a port of scipy's ``brentq``, so with numpy's own OpenBLAS no command
imports scipy.  The solves that do not depend on each other run together on
one thread pool, a worker per CPU the process may use: the two coarsest
levels of the ladder side by side, and each bracketed level's brackets in
one group per worker, each group counted at its ends and then bisected by
one call of ``dlaebz``, the kernel of ``dstebz``.  Only private helpers run
on the pool; every public function runs on its caller's thread.

This solver always discretizes the physical operator, constants included;
algebraic-block eigenvalues are mapped onto the same scale by their ledger
before any comparison.  A MATCHED/UNMATCHED verdict is an empirical
statement about the operator's self-adjoint spectrum, nothing more: the
closed-form block wavefunctions need not be square integrable.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import mpmath
import numpy as np

from .model import DomainError, PhysicalParams, radial_operator
from .opcalc import DiffOperator, LaurentPoly, Q
from .qes import QesSpectrum, RadialWavefunction, _to_mpf

__all__ = [
    "BOX", "DEFAULT_N", "Grid", "OracleSpectrum", "EigenvalueRecord", "MatchReport",
    "MatchEntry", "discretize", "sturm_count", "eigenvalues_bisection",
    "refine", "shoot", "residual", "match_report", "suggest_grid",
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
# dstebz bisects down to eps * ||T|| / 64: each level is then within 1/128 of its
# floor, and the reported (64 v_h4 - 20 v_h2 + v_h)/45 within 0.012 of the finest's
_FLOOR_FRACTION = 64
# ||T|| range where LAPACK dstebz is sound: its Sturm recurrence squares the
# off-diagonals, which overflow past sqrt(float max) ~ 1.3e154 and, below
# sqrt(float min) ~ 1.5e-154, are dropped as if the system split.  Inside
# the range no square overflows, and a drop moves an eigenvalue by less
# than eps * ||T||
_STEBZ_NORMS = (1e-135, 1e135)
_SAFMIN = float(np.finfo(float).tiny)  # LAPACK's DLAMCH('S'); its DLAMCH('P') is _EPS
_MARGIN, _V_MARGIN = 1.5, 4.0  # suggest_grid: turning-point and potential margins
_STEPS = 2048  # Magnus steps per shooting leg, a power of two for the pairwise product
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])


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


BOX = DiffOperator({2: LaurentPoly.const(-1)})
"""-D^2, the operator of the Dirichlet box."""


def _kinetic(op: DiffOperator) -> Fraction:
    """k of op = -k D^2 + U(r), the one shape the oracle solves, else :class:`DomainError`."""
    kin = -op.coeff(2).constant_term
    if set(op.terms) - {0, 2} or op.coeff(2) != -kin or kin <= 0:
        raise DomainError(f"the oracle solves -k D^2 + U(r) with a constant k > 0, "
                          f"not {op.canonical_text()}")
    return kin


def _operator_floats(op: DiffOperator):
    """(k, the coefficients of U as {power: float}) of op = -k D^2 + U(r).

    :class:`DomainError` when a coefficient overflows a float or a non-zero one
    rounds to 0.0 (c = 1e-300 loses the kinetic term, q = 1e-300 the r^6 wall).
    """
    exact = {"kinetic": _kinetic(op), **op.coeff(0).d}
    try:
        floats = {e: float(v) for e, v in exact.items()}
    except OverflowError as exc:
        raise DomainError("a coefficient of the radial operator does not fit a float") from exc
    if any(v == 0.0 and exact[e] for e, v in floats.items()):
        raise DomainError("a non-zero coefficient of the radial operator rounds to 0.0 as a float")
    return floats.pop("kinetic"), floats


def _power_sum(coeffs: dict, r, powers: Optional[dict] = None):
    """Sum of c * r^e over ``coeffs`` {e: c}, at a float node, an array of nodes or an mpf;
    ``powers`` {e: r^e} holds powers of r already formed."""
    u = 0.0 * r
    for e, c in coeffs.items():
        u = u + (c * (powers[e] if powers else r**e) if e else c)
    return u


def discretize(op: DiffOperator, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal system of op = -k D^2 + U(r) by central differences.

    diagonal[i] = 2 k / h^2 + U(r_i), off-diagonal = -k / h^2.
    """
    kin, mult = _operator_floats(op)
    h2 = grid.h * grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        diag = 2.0 * kin / h2 + _power_sum(mult, grid.nodes())
    if not np.all(np.isfinite(diag)):
        raise DomainError("potential overflows at the grid nodes; reduce r_max")
    return diag, np.full(len(diag) - 1, -kin / h2)


def _norm(diag: np.ndarray, off: np.ndarray) -> float:
    """||T|| = max|diag| + 2 max|off|, which bounds the spectral radius."""
    return (float(np.max(np.abs(diag), initial=0.0))
            + 2.0 * float(np.max(np.abs(off), initial=0.0)))


def _check_norm(norm: float) -> None:
    """:class:`DomainError` when ||T|| leaves [1e-135, 1e135], where ``dstebz``'s
    answers go silently wrong."""
    if not _STEBZ_NORMS[0] <= norm <= _STEBZ_NORMS[1]:
        raise DomainError(f"the tridiagonal system has norm {norm:.3g}, outside "
                          f"[{_STEBZ_NORMS[0]:g}, {_STEBZ_NORMS[1]:g}] where LAPACK dstebz "
                          "is sound; rescale the parameters or r_max")


_DSTEBZ = None
_ARGS = {"dstebz": 18, "dlaebz": 20}  # LAPACK routine: its arguments, all pointers


def _numpy_dstebz():
    """``dstebz`` and ``dlaebz``, the bisection kernel it calls, of the ILP64 OpenBLAS
    that numpy's wheels bundle and ``import numpy`` loads, looked up through numpy's
    extension module; None where numpy exports no such symbols (MKL, Accelerate,
    numpy 1.x)."""
    import ctypes
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        funcs = [getattr(lib, f"scipy_{name}_64_") for name in _ARGS]
    except (AttributeError, OSError):
        return None
    # every argument is a pointer (dstebz: RANGE, ORDER, N, VL, ..., INFO).  Undeclared,
    # they would be passed as C ints, which truncates the array addresses
    for func, args in zip(funcs, _ARGS.values()):
        func.argtypes, func.restype = [ctypes.c_void_p] * args, None
    return funcs


def _scipy_dstebz():
    """``dstebz`` and ``dlaebz`` as scipy publishes them in ``cython_lapack``, with
    32-bit integers."""
    import ctypes
    try:
        from scipy.linalg.cython_lapack import __pyx_capi__
    except ImportError as exc:
        raise ImportError("no LAPACK dstebz: numpy's OpenBLAS exports no scipy_dstebz_64_ "
                          "and scipy.linalg.cython_lapack does not import") from exc
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return [ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * args)(
        pointer(__pyx_capi__[routine], name(__pyx_capi__[routine])))
        for routine, args in _ARGS.items()]


def _dstebz():
    """(LAPACK ``dstebz``, LAPACK ``dlaebz``, their integer ctype, their integer dtype),
    bound through ctypes, whose foreign calls release the GIL, on the first call:
    numpy's own with 64-bit integers, else scipy's with 32-bit ones, the one case
    that imports scipy."""
    global _DSTEBZ
    if _DSTEBZ is None:
        import ctypes
        funcs = _numpy_dstebz()
        _DSTEBZ = ((*_scipy_dstebz(), ctypes.c_int, np.intc) if funcs is None
                   else (*funcs, ctypes.c_int64, np.int64))
    return _DSTEBZ


def _stebz(diag: np.ndarray, off: np.ndarray, norm: float, select: str, select_range,
           tol: float) -> np.ndarray:
    """LAPACK ``dstebz`` on the system of norm ``norm`` = ||T||, refused by
    :func:`_check_norm` outside [1e-135, 1e135].

    The call and its arguments are those of scipy's ``eigh_tridiagonal(diag, off,
    eigvals_only=True, select=select, select_range=select_range,
    lapack_driver="stebz", tol=tol)``: RANGE 'V' over (a, b] or 'I' over the
    0-based indices (a, b), ORDER 'E', ABSTOL ``tol``.  The work arrays come
    uninitialised from ``np.empty``, and the GIL is released for the call, so
    solves on other threads run alongside.  The values returned are a view of
    a buffer of n values.  ``info`` != 0 raises ``np.linalg.LinAlgError``, a
    ``ValueError`` as scipy's own errors for it are.
    """
    import ctypes

    _check_norm(norm)
    diag, off = (np.ascontiguousarray(v, dtype=np.float64) for v in (diag, off))
    n = len(diag)
    if diag.ndim != 1 or off.shape != (n - 1,):  # dstebz reads n and n - 1 values
        raise ValueError(f"d {diag.shape} must be 1-D with one more element than e {off.shape}")
    a, b = select_range
    vl, vu, il, iu = (a, b, 1, 1) if select == "v" else (0.0, 1.0, a + 1, b + 1)
    dstebz, _, num, inum = _dstebz()
    m, nsplit, info = num(), num(), num()
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=inum) for k in (1, 1, 3))
    ref, dbl = ctypes.byref, ctypes.c_double
    dstebz(select.upper().encode(), b"E", ref(num(n)), ref(dbl(vl)), ref(dbl(vu)),
           ref(num(il)), ref(num(iu)), ref(dbl(tol)), diag.ctypes.data, off.ctypes.data,
           ref(m), ref(nsplit), w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
           work.ctypes.data, iwork.ctypes.data, ref(info))
    if info.value < 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info.value} of dstebz")
    if info.value:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info.value})")
    return w[:m.value]


def _laebz(job: int, ab: np.ndarray, nab: np.ndarray, *, diag: np.ndarray, off: np.ndarray,
           e2: np.ndarray, pivmin: float, tol: float, nitmax: int) -> None:
    """One LAPACK ``dlaebz`` call, the kernel of ``dstebz``, on the k intervals
    (ab[0, j], ab[1, j]] of the system with e2 = off * off, ``ab`` and ``nab`` of
    shape (2, k) and updated in place; its other inputs are those ``dstebz``
    passes: the pivot guard ``pivmin``, the absolute tolerance ``tol``, the
    relative tolerance 2 ulp and no vector loop.

    Job 1 sets ``nab`` to the number of eigenvalues <= each end.  Job 2, given
    those counts, bisects every interval in at most ``nitmax`` steps, each of
    which holds one eigenvalue; it may return them in another order, each with
    its counts.  Non-convergence raises ``np.linalg.LinAlgError``, as does an
    interval that holds several (more than k intervals would come back).
    """
    import ctypes

    _, dlaebz, num, _ = _dstebz()
    k = ab.shape[1]
    c, work, iwork = np.empty(k), np.empty(k), np.empty(k, dtype=nab.dtype)
    mout, info = num(), num()  # MOUT: k intervals, none of which splits
    ref, dbl = ctypes.byref, ctypes.c_double
    dlaebz(ref(num(job)), ref(num(nitmax)), ref(num(len(diag))), ref(num(k)), ref(num(k)),
           ref(num(0)), ref(dbl(tol)), ref(dbl(2 * _EPS)), ref(dbl(pivmin)), diag.ctypes.data,
           off.ctypes.data, e2.ctypes.data, None, ab.ctypes.data, c.ctypes.data, ref(mout),
           nab.ctypes.data, work.ctypes.data, iwork.ctypes.data, ref(info))  # NVAL unread
    if info.value:
        raise np.linalg.LinAlgError(f"dlaebz did not converge (LAPACK info={info.value})")


_POOL = (None, None, 0)  # (pid, executor, workers): a forked child starts a pool of its own
_POOL_LOCK = threading.Lock()


def _pool():
    """(the module's thread pool, its worker count), one worker per CPU this process
    may use, made on first use.  Only private helpers run on it: the public
    functions stay on the caller's thread."""
    global _POOL
    with _POOL_LOCK:
        if _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _dstebz()  # bound once, here, before any worker runs
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count()) or 1
            _POOL = (os.getpid(), ThreadPoolExecutor(cpus, thread_name_prefix="sextic-dstebz"),
                     cpus)
        return _POOL[1:]


def sturm_count(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the tridiagonal system strictly below sigma.

    LAPACK ``dstebz`` over the value range (-inf, sigma'], sigma' the float
    just below sigma: the count comes from the Sturm sequence of T - sigma'.
    An eigenvalue within rounding of sigma may fall on either side.  ||T||
    comes from ``diag`` and ``off``.  sigma = -inf counts 0 without a solve
    (LAPACK refuses the empty range); a NaN sigma raises :class:`DomainError`.
    """
    sigma = float(sigma)
    if math.isnan(sigma):
        raise DomainError("sturm_count needs a number sigma, got nan")
    if sigma == -math.inf:
        return 0
    diag, off = np.asarray(diag, dtype=np.float64), np.asarray(off, dtype=np.float64)
    below = float(np.nextafter(sigma, -np.inf))
    # the largest float as tolerance asks for no bisection
    return len(_stebz(diag, off, _norm(diag, off), "v", (-np.inf, below), np.finfo(float).max))


def _prepare(diag: np.ndarray, off: np.ndarray, count: int):
    """(||T||, bisection tolerance eps * ||T|| / 64) of :func:`eigenvalues_bisection`,
    after its checks: :class:`DomainError` for a count outside 0..n and, when
    count > 0, for a norm outside the range of :func:`_check_norm`."""
    if count < 0:
        raise DomainError(f"eigenvalue count must be non-negative, got {count}")
    if count > len(diag):
        raise DomainError(f"asked for {count} eigenvalues of a {len(diag)}-dimensional system")
    norm = _norm(diag, off)
    if count:
        _check_norm(norm)
    return norm, _EPS * norm / _FLOOR_FRACTION


def _lowest(diag: np.ndarray, off: np.ndarray, count: int, norm: float, tol: float) -> np.ndarray:
    """The lowest ``count`` eigenvalues by one ``dstebz`` call by index."""
    if count == 0:
        return np.empty(0)
    # a copy: dstebz's values are a view of its buffer of n values
    return _stebz(diag, off, norm, "i", (0, count - 1), tol).copy()


def eigenvalues_bisection(diag: np.ndarray, off: np.ndarray, count: int,
                          near: Optional[tuple] = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues by Sturm-count bisection.

    LAPACK ``dstebz`` (Barth-Martin-Wilkinson bisection with a pivot guard)
    with the absolute tolerance eps * ||T|| / 64, ||T|| = max|diag| + 2 max|off|
    formed from the system itself.  Bisection's own error is
    of the order of the rounding floor eps * ||T|| (Demmel 1997, section
    5.3), so halving further adds nothing; this stops 6 halvings past it.

    ``near = (centres, half_widths)`` asks for a bracket per eigenvalue,
    each bisected over the value range (c - w, c + w] as ``dstebz`` would
    bisect it alone, bit for bit.  The brackets are split into one group per
    worker of the module's thread pool, the caller's thread taking one, and
    each group is counted at its ends by one LAPACK ``dlaebz`` call.  Their
    values are returned only when the brackets are disjoint and the counts
    show that bracket j holds eigenvalue j alone: then each group is bisected
    by one more ``dlaebz`` call, and they are the lowest ``count``
    eigenvalues.  Otherwise, and without ``near``, one ``dstebz`` call by
    index from the Gershgorin bounds finds them; so too where ``dstebz``
    would bisect another interval than a bracket, in a system it splits or
    for a bracket outside the Gershgorin interval.
    """
    diag, off = np.asarray(diag, dtype=np.float64), np.asarray(off, dtype=np.float64)
    norm, tol = _prepare(diag, off, count)
    if near is not None and count:
        found = _bracketed(diag, off, norm, count, tol, *near)
        if found is not None:
            return found
    return _lowest(diag, off, count, norm, tol)


def _on_pool(pool, tasks: list) -> list:
    """The results of ``tasks``, callables run together: the first on the caller's
    thread, the others on ``pool``.  Every result is read."""
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        rest = [future.result() for future in futures]
    return [first, *rest]


def _bracketed(diag, off, norm, count, tol, centres, half_widths) -> Optional[np.ndarray]:
    """The bracket solves of :func:`eigenvalues_bisection`, or None when they are not
    certified to be the lowest ``count`` eigenvalues or ``dstebz`` would not bisect
    the brackets as given."""
    centres, half_widths = np.asarray(centres, dtype=float), np.asarray(half_widths, dtype=float)
    lo, hi = centres - half_widths, centres + half_widths
    # dstebz answers one unknown without bisection.  Over (lo, hi] it splits the system
    # where |d_j d_j-1| ulp^2 + safmin > e_j-1^2, and bisects from the bracket clipped
    # to its block's Gershgorin interval, widened by a fudge.  With no split and every
    # bracket inside the unwidened interval it bisects the bracket itself, with the
    # inputs dlaebz is given here
    if (len(lo) != count or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
            or np.any(lo[1:] < hi[:-1]) or len(diag) < 2):
        return None
    e2 = off * off
    edge = np.abs(np.concatenate(([0.0], off, [0.0])))
    if (np.any(np.abs(diag[1:] * diag[:-1]) * _EPS**2 + _SAFMIN > e2)
            or lo[0] < np.min(diag - edge[:-1] - edge[1:])
            or hi[-1] > np.max(diag + edge[:-1] + edge[1:])):
        return None
    pivmin = max(1.0, float(np.max(e2))) * _SAFMIN
    # dstebz's iteration cap of the widest bracket; each converges long before its own
    nitmax = int(np.max((np.log(hi - lo + pivmin) - math.log(pivmin)) / math.log(2.0))) + 2
    pool, workers = _pool()
    ends = [count * i // workers for i in range(workers + 1)]
    groups = [(np.array([lo[a:b], hi[a:b]]), np.empty((2, b - a), dtype=_dstebz()[3]))
              for a, b in zip(ends, ends[1:]) if a < b]
    solve = partial(_laebz, diag=diag, off=off, e2=e2, pivmin=pivmin, tol=tol, nitmax=nitmax)
    # the counts at every bracket end, all read before any bracket is bisected: the
    # brackets hold the lowest eigenvalues when bracket j holds eigenvalue j alone
    _on_pool(pool, [partial(solve, 1, ab, nab) for ab, nab in groups])
    if not np.array_equal(np.concatenate([nab for _, nab in groups], axis=1),
                          [np.arange(count), np.arange(1, count + 1)]):
        return None
    _on_pool(pool, [partial(solve, 2, ab, nab) for ab, nab in groups])
    values = np.empty(count)
    for ab, nab in groups:  # dlaebz reorders the intervals, each with its counts
        values[nab[0]] = 0.5 * (ab[0] + ab[1])
    return values


def _levels(op: DiffOperator, grid: Grid, count: int):
    """The systems (diag, off) of :func:`refine`'s chain of levels, coarsest first,
    each discretized when it is asked for: the predictors on n/4 and n/2
    intervals, each dropped where it is refused (n/4 also where n/2 is), then n,
    2n and 4n."""
    coarse = []
    for k in (2, 4):
        if grid.n % k:
            break
        try:
            system = discretize(op, Grid(grid.r_max, grid.n // k))
            _prepare(*system, count)
        except DomainError:
            break
        coarse.append(system)
    while coarse:
        yield coarse.pop()
    for factor in (1, 2, 4):
        yield discretize(op, grid.refined(factor))


def _predicted(values: list, floor: float, even_h4: bool):
    """(centres, half-widths) of the next level's brackets from the ``values`` of the
    levels below it, coarsest first (see :func:`refine`); ``floor`` is eps * ||T||
    of the next level."""
    d2 = values[-2] - values[-1]
    if even_h4 and len(values) > 2:
        fourth = values[-3] - values[-2] - 4.0 * d2
        return (values[-1] - d2 / 4.0 + fourth / 64.0,
                np.abs(fourth) / 32.0 + _ROUNDING_FLOORS * floor)
    return values[-1] - d2 / 4.0, np.abs(d2) + _ROUNDING_FLOORS * floor


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
    grid: Grid
    records: tuple[EigenvalueRecord, ...]

    @property
    def eigenvalues(self) -> list[float]:
        return [rec.extrapolated for rec in self.records]


def refine(params: Optional[PhysicalParams], m: int, mode: str, count: int,
           grid: Grid) -> OracleSpectrum:
    """Solve at h, h/2, h/4 and Richardson-extrapolate the h^2 and h^4 terms away.

    With d12 = v_h - v_h2 and d23 = v_h2 - v_h4, R0 = v_h2 - d12/3 and
    R1 = v_h4 - d23/3 remove the h^2 term from levels 1-2 and 2-3; the
    reported value R1 + (R1 - R0)/15 also removes the h^4 term.  Its bar is
    |R1 - R0|/15 plus the rounding floor eps * ||T|| of the finest level.
    For |m| = 1 outside the box the error has an odd power of h below h^4,
    so the value stays R1 with the bar |d23|/3 + eps * ||T||.  At m = 0
    outside the box the ladder converges at order about 0.2 and no bar
    covers the error: :class:`DomainError`.
    ``observed_order`` is the raw ladder's log2(d12/d23).

    The levels form one chain, each h half the one before: predictor levels
    at 4h and 2h, then h, h/2 and h/4.  A predictor is dropped where n is
    not divisible by its factor, its grid is invalid or
    :func:`eigenvalues_bisection` would refuse its system, so with an odd n
    the chain is h, h/2, h/4 alone.  The two coarsest levels are solved from
    the Gershgorin bounds, together; every later level is bisected inside
    brackets that the levels below it predict.  With h' the step of the
    level below, d1 = v(4h') - v(2h') and d2 = v(2h') - v(h'), the h^2 term
    puts the level near v(h') - d2/4 and each bracket reaches
    |d2| + 4 eps * ||T|| either side.  Where the reported value takes the h^4
    step (the box, and |m| >= 2) and three levels are known, the h^4 term
    moves the centre by (d1 - 4 d2)/64 and each bracket reaches twice that
    plus 4 eps * ||T||.  :func:`eigenvalues_bisection` certifies that the
    brackets hold the lowest ``count`` eigenvalues, and otherwise solves from
    the Gershgorin bounds.

    Flags, each with its cause:

    * ``non-monotone``: d12 and d23 differ in sign or d23 = 0.  The value is
      v_h4 and the bar |d12| + |d23| + eps * ||T||.
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
    if m == 0 and mode != "box":
        raise DomainError("the oracle needs m >= 1 outside the box: at m = 0 the ladder "
                          "converges at order about 0.2 and no error bar covers it")
    op = BOX if mode == "box" else radial_operator(params, m, mode)
    # near the origin the solution goes as r^(m+1/2), which adds an h^(2m+1)
    # term to the error: the h^4 step needs it past h^4, so |m| >= 2 (the box
    # solution is smooth)
    even_h4 = mode == "box" or abs(m) >= 2
    levels = _levels(op, grid, count)
    # the two coarsest levels are solved by index: the first's checks run here, then
    # its solve runs on the pool while the second is solved here; its error, if
    # any, wins, as when the two ran in turn
    diag, off = next(levels)
    first = _pool()[0].submit(_lowest, diag, off, count, *_prepare(diag, off, count))
    try:
        second = eigenvalues_bisection(*next(levels), count)
    finally:
        values = [first.result()]
    values.append(second)
    for diag, off in levels:
        # eps * ||T||, ||T|| = max|diag| + 2 max|off|: bisection is accurate to a
        # small multiple of it (Demmel 1997, section 5.3).  The records below
        # read diag, off and floor of the last level, the finest
        floor = _EPS * _norm(diag, off)
        values.append(eigenvalues_bisection(diag, off, count, _predicted(values, floor, even_h4)))
    v1, v2, v3 = values[-3:]
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
            err = abs(d23) + abs(d12) + floor
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
    return OracleSpectrum(mode, m, grid, tuple(records))


# ---------------------------------------------------------------------------
# Shooting method
# ---------------------------------------------------------------------------


def _propagate(h: float, w: np.ndarray, y0) -> np.ndarray:
    """Carry (f, f') of f'' = w f over one leg of fixed steps h, w sampled at each
    step's two Gauss points (shape (steps, 2)); the result is scaled to max |y| = 1.

    Fourth-order Magnus: Omega = [[a, h], [h (w1 + w2) / 2, -a]] with
    a = sqrt(3) h^2 (w1 - w2) / 12 is traceless, so Omega^2 = kappa^2 I and
    exp(Omega) = cosh(kappa) I + sinh(kappa) / kappa * Omega.  Each step is
    scaled by e^(-kappa) on the hyperbolic side, so none overflows, and the
    pairwise product is renormalized level by level; every factor is positive.
    """
    a = math.sqrt(3.0) / 12.0 * h * h * (w[:, 0] - w[:, 1])
    c = 0.5 * h * (w[:, 0] + w[:, 1])
    k2 = a * a + h * c
    k = np.sqrt(np.abs(k2))
    hyper, safe = k2 > 0.0, np.where(k > 0.0, k, 1.0)
    diag = np.where(hyper, 0.5 * (1.0 + np.exp(-2.0 * k)), np.cos(k))
    coef = np.where(hyper, -np.expm1(-2.0 * k) / (2.0 * safe),
                    np.where(k > 0.0, np.sin(k) / safe, 1.0))  # e^-k sinh(k) / k or sin(k) / k
    m = np.empty((len(w), 2, 2))
    m[:, 0, 0], m[:, 0, 1] = diag + coef * a, coef * h
    m[:, 1, 0], m[:, 1, 1] = coef * c, diag - coef * a
    while len(m) > 1:
        m = m[1::2] @ m[0::2]
        m /= np.abs(m).reshape(-1, 4).max(axis=1)[:, None, None]
    y = m[0] @ np.asarray(y0, dtype=float)
    return y / np.max(np.abs(y))


def _brentq(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4), given
    fa = f(a) and fb = f(b) of opposite signs or one of them zero.

    A port of scipy's ``brentq.c``: it steps exactly as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`` does and returns
    its root bit for bit, without calling ``f`` at the ends again.  After 100
    iterations without convergence it raises ``RuntimeError``, as ``brentq`` does.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def shoot(op: DiffOperator, target: float, bracket: tuple[float, float],
          r_max: float) -> float:
    """An eigenvalue of op = -k D^2 + U(r) near ``target``: a matching Wronskian's root.

    Propagates outward from the regular indicial behavior r^s at r0 = 1e-4 r_max,
    where s(s - 1) = c_-2 / k and c_-2 is the r^-2 coefficient of U (from the
    exact data f(0) = 0, f'(0) = 1 at the origin when U has no r^-2 term, as
    for the box), and inward from a decaying WKB tail at r_max (a
    Dirichlet node when the boundary is classically allowed), each leg in
    ``_STEPS`` fourth-order Magnus steps; raises if the bracket shows no sign
    change, which is itself informative for UNMATCHED verdicts.  The step
    count suffices on the box at pi and on q = 0 oscillator and field-mode
    sextic levels at ``suggest_grid``'s r_max: doubling it moves no root by
    more than 6e-13 relative.  :class:`DomainError` when the potential or a
    step overflows (r_max too large).
    """
    kin, mult = _operator_floats(op)
    r0 = 1e-4 * r_max
    probe = np.linspace(r0, r_max, 257)
    centrifugal = op.coeff(0).coeff(-2) / _kinetic(op)  # s(s - 1), exactly
    if not centrifugal:
        r0, y_origin = 0.0, (0.0, 1.0)
    elif 4 * centrifugal >= -1:  # (f, f') of r^s, divided by r0^(s-1)
        y_origin = (r0, 0.5 + math.sqrt(0.25 + centrifugal))
    else:
        raise DomainError(f"r^-2 term {centrifugal} k/r^2 is below -k/4r^2: no regular solution")

    def leg(start: float):
        """(step, U at each step's Gauss points) of the leg from ``start`` to r_mid."""
        h = (r_mid - start) / _STEPS
        return h, _power_sum(mult, start + h * (np.arange(_STEPS)[:, None] + _GAUSS))

    with np.errstate(over="ignore", invalid="ignore"):
        # U, the multiplicative term, is evaluated once; every Wronskian reads
        # w = (U - x) / kin off it
        u_probe = _power_sum(mult, probe)
        r_mid = float(min(max(probe[int(np.argmin((u_probe - target) / kin))], 0.2 * r_max),
                          0.8 * r_max))
        (h_out, u_out), (h_in, u_in) = leg(r0), leg(r_max)
    if not all(np.all(np.isfinite(u)) for u in (u_probe, u_out, u_in)):
        raise DomainError("potential overflows on the shooting legs; reduce r_max")

    def wronskian(x: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            f_out = _propagate(h_out, (u_out - x) / kin, y_origin)
            w_end = (u_probe[-1] - x) / kin
            f_in = _propagate(h_in, (u_in - x) / kin,
                              (1.0, -math.sqrt(w_end)) if w_end > 0 else (0.0, -1.0))
            value = float(f_out[0] * f_in[1] - f_out[1] * f_in[0]) / (
                math.hypot(*f_out) * math.hypot(*f_in))
        if not math.isfinite(value):
            raise DomainError("the shooting steps overflow; reduce r_max")
        return value

    a, b = bracket
    wa, wb = wronskian(a), wronskian(b)
    if wa and wb and (wa > 0) == (wb > 0):  # a product could underflow to 0
        raise DomainError(
            f"no Wronskian sign change in bracket ({a}, {b}): no eigenvalue located")
    return float(_brentq(wronskian, a, b, wa, wb, 1e-12 * max(1.0, abs(target)), 1e-12))


# ---------------------------------------------------------------------------
# Residual of closed-form candidates
# ---------------------------------------------------------------------------


def _max_relative(sample, x, window: tuple[float, float], samples: int) -> float:
    """max |h - x f| / (max(1, |x|) sup |f|) over ``samples`` even nodes of the
    window, with sample(r) = (f(r), h(r))."""
    a, b = window
    num = mpmath.mpf(0)
    fmax = mpmath.mpf(0)
    for i in range(samples):
        r = mpmath.mpf(a) + (mpmath.mpf(b) - mpmath.mpf(a)) * i / (samples - 1)
        fv, hv = sample(r)
        num = max(num, abs(hv - x * fv))
        fmax = max(fmax, abs(fv))
    den = fmax * max(mpmath.mpf(1), abs(x))
    if den == 0:
        return float(mpmath.inf) if num else 0.0
    return float(num / den)


def residual(wf: RadialWavefunction, op: DiffOperator, x) -> float:
    """Relative residual of the closed-form wavefunction against op = -k D^2 + U(r).

    max |-k f'' + U f - x f| / (max(1, |x|) sup |f|) over 33 even nodes of r
    in [0.5, 2.5], worked at 60 digits; the max(1, |x|) keeps a root at
    exactly zero well-posed.  The second derivative is formed symbolically
    (the gauge factor's logarithmic derivative is a Laurent polynomial; the
    series part is a polynomial), floats enter only in the final evaluation.
    For an algebraic block root this vanishes to root precision whether or
    not the function is normalizable.
    """
    kin = _kinetic(op)
    g = wf.gauge
    w = g.log_derivative(wf.hbar)

    with mpmath.workdps(60):
        mult, wc, dwc = ({e: _to_mpf(v) for e, v in lp.d.items()}
                         for lp in (op.coeff(0), w, w.derivative()))
        poly = wf.polynomial_in_r()
        dpoly = {e - 1: e * c for e, c in poly.items() if e}
        d2poly = {e - 1: e * c for e, c in dpoly.items() if e}
        exponents = {2, 4}.union(mult, wc, dwc, poly, dpoly, d2poly) - {0}
        kv, h, power = _to_mpf(kin), _to_mpf(wf.hbar), _to_mpf(g.power)
        gaussian, quartic = _to_mpf(g.gaussian), _to_mpf(g.quartic)
        h2, h4 = 2 * h, 4 * h

        def sample(r):
            # f = g q with g the gauge factor (wf.prefactor) and w = (log g)':
            # f'' = g (q'' + 2 w q' + (w' + w^2) q); g and each r^e are formed once
            rp = {e: r**e for e in exponents}
            gr = r ** power * mpmath.exp(-gaussian * rp[2] / h2 - quartic * rp[4] / h4)
            wr, qr = _power_sum(wc, r, rp), _power_sum(poly, r, rp)
            fv = gr * qr
            d2 = gr * (_power_sum(d2poly, r, rp) + 2 * wr * _power_sum(dpoly, r, rp)
                       + (_power_sum(dwc, r, rp) + wr * wr) * qr)
            return fv, -kv * d2 + _power_sum(mult, r, rp) * fv

        xv = x if isinstance(x, mpmath.mpf) else _to_mpf(Q(x)) if isinstance(x, (int, Fraction)) else mpmath.mpf(x)
        return _max_relative(sample, xv, (0.5, 2.5), 33)


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
    """Nearest-neighbor comparison of ledger-aligned block roots vs solver eigenvalues:
    one :class:`MatchEntry` per block root, in root order."""

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
    A trusted record takes part only when its bar is within the tolerance,
    ``error_estimate <= tol * max(1, |value|)``: a record whose bar exceeds
    the tolerance cannot tell MATCHED from UNMATCHED, so it decides neither
    (a root with no such record is UNMATCHED with no nearest value).
    Every entry names the flags of the record it used in ``oracle_flags``, so
    that no flagged record feeds a MATCHED verdict silently.
    """
    if qes.mode != oracle.mode or qes.m != oracle.m:
        raise DomainError("spectra to match must share mode and m")
    usable = [rec for rec in oracle.records if rec.trusted
              and rec.error_estimate <= tol * max(1.0, abs(rec.extrapolated))]
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
    return MatchReport(tuple(entries))


# ---------------------------------------------------------------------------
# Grid selection
# ---------------------------------------------------------------------------


def suggest_grid(params: Optional[PhysicalParams], m: int, mode: str, count: int,
                 n: int = DEFAULT_N) -> Grid:
    """Domain size from the turning point of the largest sought eigenvalue.

    A coarse solve on max(512, 2 * count) intervals estimates the top
    eigenvalue; r_max is the classical turning point times 1.5, grown until
    the potential there exceeds the eigenvalue scale 4 times over, and then
    until the wall moves the top eigenvalue by less than the rounding floor
    of the ladder's finest level.  The sextic growth
    keeps the domains modest.  ``count`` may be at most n - 1, the unknowns
    of the n-interval grid asked for.
    """
    if count > n - 1:
        raise DomainError(f"asked for {count} eigenvalues of the {n - 1}-dimensional "
                          f"system of a grid of n = {n} intervals")
    if mode == "box":
        return Grid(math.pi, n)
    try:
        return Grid(_domain(radial_operator(params, m, mode), count, n), n)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"no confining domain: the float potential fails to rise above "
                          f"the sought eigenvalues ({exc})") from exc


@np.errstate(over="raise", invalid="raise", divide="raise")
def _domain(op: DiffOperator, count: int, n: int) -> float:
    """r_max of :func:`suggest_grid`; a potential that overflows or never rises above
    the sought eigenvalues (free mode at q = omega = 0) raises instead of warning."""
    kin, mult = _operator_floats(op)
    u = partial(_power_sum, mult)
    r_max = 4.0
    for _ in range(3):
        coarse = Grid(r_max, max(512, 2 * count))
        diag, off = discretize(op, coarse)
        lam = eigenvalues_bisection(diag, off, count)
        lam_top = float(lam[-1])
        scale = max(abs(lam_top), 1.0)
        # outer classical turning point: bisect from the well minimum, not
        # from the origin, or the centrifugal wall's inner crossing wins
        hi = r_max
        while u(hi) < lam_top:
            hi *= 2.0
        probe = np.linspace(hi / 512, hi, 512)
        lo = float(probe[int(np.argmin(u(probe)))])
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
        r_new = _MARGIN * max(r_turn, 1e-2)
        while u(r_new) < _V_MARGIN * scale:
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
    return r_max


def _decay(u, kin: float, lam: float, r_from: float, r_to: float) -> float:
    """Midpoint rule for the WKB exponent: integral of sqrt(max(u - lam, 0) / kin)."""
    edges = np.linspace(r_from, r_to, 257)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(np.sqrt(np.maximum(u(mids) - lam, 0.0) / kin)) * (edges[1] - edges[0]))
