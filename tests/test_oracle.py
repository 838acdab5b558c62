"""Numerical-solver tests: discretization, Sturm counts, refinement, shooting."""

import concurrent.futures
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction as Q
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sextic import oracle
from sextic.model import DomainError, PhysicalParams, radial_operator
from sextic.opcalc import DiffOperator, GaugeAnsatz, LaurentPoly
from sextic.oracle import (BOX, DEFAULT_N, EigenvalueRecord, Grid, OracleSpectrum,
                           discretize, eigenvalues_bisection, match_report,
                           refine, residual, shoot, sturm_count, suggest_grid)
from sextic.qes import RadialWavefunction, spectrum, wavefunction

ROOT = Path(__file__).resolve().parents[1]


def natural(**kw):
    base = dict(M=1, omega=1, q=1)
    base.update(kw)
    return PhysicalParams(**base)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def test_discretize_box_structure():
    g = Grid(math.pi, 64)
    diag, off = discretize(BOX, g)
    assert len(diag) == 63 and len(off) == 62
    h2 = g.h * g.h
    assert np.all(diag == 2.0 / h2)
    # exactly symmetric: the single off-diagonal array is bitwise constant
    assert np.all(off == off[0])


def test_discretize_potential_alignment():
    p = natural()
    g = Grid(4.0, 128)
    diag, _ = discretize(radial_operator(p, 2, "free"), g)
    u = diag - 2 * float(p.c * p.hbar) ** 2 / g.h**2
    r1 = g.h
    from sextic.model import potential_coefficients, coupling_constant
    r = Q(r1).limit_denominator(10**12)
    want = float(sum(v * r**e for e, v in potential_coefficients(p, 2, "free").items()) +
                 coupling_constant(p, 2))
    assert u[0] == pytest.approx(want, rel=1e-9)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(1.0, 32)
    with pytest.raises(DomainError):
        Grid(-1.0, 128)


def test_grid_rejects_an_underflowing_spacing():
    # h = 1e-300 / 1024 squares to 0, so 1/h^2 is not finite
    with pytest.raises(DomainError, match="rmax"):
        Grid(1e-300, 1024)


# ---------------------------------------------------------------------------
# Sturm counts and bisection
# ---------------------------------------------------------------------------


def test_bisection_2x2_analytic():
    vals = eigenvalues_bisection(np.array([2.0, 2.0]), np.array([-1.0]), 2)
    assert vals == pytest.approx([1.0, 3.0], abs=1e-12)


def test_bisection_diagonal():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    vals = eigenvalues_bisection(d, np.zeros(3), 4)
    assert vals == pytest.approx(sorted(d), abs=1e-12)


def test_bisection_count_edges():
    diag, off = np.array([2.0, 2.0]), np.array([-1.0])
    assert eigenvalues_bisection(diag, off, 0).shape == (0,)
    for bad in (-1, 3):
        with pytest.raises(DomainError):
            eigenvalues_bisection(diag, off, bad)


def test_sturm_count_zero_pivot_is_silent():
    # sigma sits on the first diagonal entry, so the Sturm sequence of T - sigma'
    # (sigma' the float just below sigma) starts with a pivot of one ulp and
    # then a quotient near -1e20 / ulp: dstebz must neither warn nor miscount
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sturm_count(np.array([1.0, 1.0]), np.array([1e10]), 1.0) == 1


def test_sturm_count_is_strictly_below_sigma():
    # tridiag(1, 2, 1) of order 5 has the eigenvalues 2 - sqrt 3, 1, 2, 3, 2 + sqrt 3;
    # a few rounding floors eps * ||T|| either side of 1, 2 and 3 the count steps
    diag, off = np.full(5, 2.0), np.ones(4)
    floor = np.finfo(float).eps * 4.0
    for below, lam in enumerate((1.0, 2.0, 3.0), start=1):
        for k in (1, 3):
            assert sturm_count(diag, off, lam - k * floor) == below
            assert sturm_count(diag, off, lam + k * floor) == below + 1


def test_sturm_count_at_infinite_and_nan_sigma(capfd):
    # dstebz refuses the empty range (-inf, -inf] and fails to converge on NaN,
    # and its error handler prints on stdout: neither value may reach it
    diag, off = np.full(5, 2.0), np.ones(4)
    assert sturm_count(diag, off, -math.inf) == 0
    assert sturm_count(diag, off, math.inf) == 5
    with pytest.raises(DomainError, match="nan"):
        sturm_count(diag, off, math.nan)
    assert capfd.readouterr().out == ""


def test_sturm_count_matches_dense_diagonalization():
    rng = np.random.default_rng(5)
    diag = rng.normal(size=64)
    off = rng.normal(size=63)
    full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvalsh(full)
    for sigma in (-2.5, -0.3, 0.0, 0.7, 3.1):
        assert sturm_count(diag, off, sigma) == int(np.sum(ev < sigma))


@pytest.mark.parametrize("s", [1e154, 1e-154, 1e136, 1e-136])
def test_dstebz_out_of_range_raises(s):
    # dstebz squares the off-diagonals: on tridiag(-s, 2s, -s) it returned 2s and
    # a count of 500 (the truth: 3.9e-5 s and 333) once s passed 1e+-154
    diag, off = np.full(500, 2 * s), np.full(499, -s)
    with pytest.raises(DomainError, match="dstebz"):
        eigenvalues_bisection(diag, off, 2)
    with pytest.raises(DomainError, match="dstebz"):
        sturm_count(diag, off, 3 * s)


@pytest.mark.parametrize("s", [1e134, 1e-134, 1.0])
def test_dstebz_inside_the_range_is_exact(s):
    diag, off = np.full(500, 2 * s), np.full(499, -s)
    lowest = 2 * s * (1 - math.cos(math.pi / 501))
    assert eigenvalues_bisection(diag, off, 1)[0] == pytest.approx(lowest, rel=1e-9)
    assert sturm_count(diag, off, 3 * s) == 333


def _stebz_cases():
    """(diag, off) of random systems of 1, 2 and 500 unknowns and of tridiag(-s, 2s, -s)."""
    rng = np.random.default_rng(21)
    for n in (1, 2, 500):
        yield rng.normal(size=n), rng.normal(size=n - 1)
    for s in (1e130, 1e-130):
        yield np.full(500, 2 * s), np.full(499, -s)


def _rebind(monkeypatch, numpy_symbol=True):
    """Forget the bound dstebz; without ``numpy_symbol``, numpy's lookup fails, so
    that the next solve binds scipy's ``cython_lapack`` fallback."""
    if not numpy_symbol:
        monkeypatch.setattr(oracle, "_numpy_dstebz", lambda: None)
    monkeypatch.setattr(oracle, "_DSTEBZ", None)


@pytest.fixture(params=["numpy", "cython_lapack"])
def binding(request, monkeypatch):
    """dstebz bound afresh: numpy's own, or the forced ``cython_lapack`` fallback."""
    if request.param == "numpy" and oracle._numpy_dstebz() is None:
        pytest.skip("numpy exports no scipy_dstebz_64_")
    _rebind(monkeypatch, numpy_symbol=request.param == "numpy")
    oracle._dstebz()  # bound before any pool worker reads it
    return request.param


_STEBZ_IDS = ["random-1", "random-2", "random-500", "s-1e130", "s-1e-130"]


@pytest.mark.parametrize("binding, diag, off",
                         [(b, *case) for b in ("numpy", "cython_lapack") for case in _stebz_cases()],
                         ids=[p + i for p in ("", "cython_lapack-") for i in _STEBZ_IDS],
                         indirect=["binding"])
def test_the_binding_equals_scipys_stebz_bit_for_bit(binding, diag, off):
    assert oracle._dstebz()[-1] is {"numpy": np.int64, "cython_lapack": np.intc}[binding]
    norm = oracle._norm(diag, off)
    n, eps = len(diag), np.finfo(float).eps
    lam = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    low, top, span = float(lam[0]), float(lam[-1]), float(lam[-1] - lam[0]) or 1.0
    selects = [("i", (0, 0)), ("i", (0, min(n, 5) - 1)), ("i", (n // 2, n - 1)),
               ("v", (-np.inf, float(lam[n // 2]))), ("v", (low - span, low)),
               ("v", (top + span, top + 2 * span))]  # the last holds no eigenvalue
    for select, select_range in selects:
        for tol in (0.0, eps * norm / 64, np.finfo(float).max):
            got = oracle._stebz(diag, off, norm, select, select_range, tol)
            want = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select=select,
                                                 select_range=select_range,
                                                 lapack_driver="stebz", tol=tol)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                (select, select_range, tol)


def test_the_fallback_binding_refines_bit_for_bit(monkeypatch):
    p = PhysicalParams(M=Q(8, 3), omega=2, q=4, hbar=Q(1, 2))

    def solve():
        return repr(refine(p, 3, "field", 4, suggest_grid(p, 3, "field", 4)))

    default = solve()
    _rebind(monkeypatch, numpy_symbol=False)
    assert oracle._dstebz()[-1] is np.intc
    assert solve() == default


def test_no_binding_names_both_it_looked_for(monkeypatch):
    _rebind(monkeypatch, numpy_symbol=False)
    monkeypatch.setitem(sys.modules, "scipy.linalg.cython_lapack", None)  # import fails
    with pytest.raises(ImportError, match="numpy.*scipy_dstebz_64_.*scipy.linalg.cython_lapack"):
        eigenvalues_bisection(np.ones(4), np.zeros(3), 1)


def test_the_binding_raises_on_a_lapack_error():
    diag, off = np.ones(4), np.zeros(3)
    with pytest.raises(np.linalg.LinAlgError, match="argument 7 of dstebz"):
        oracle._stebz(diag, off, 1.0, "i", (2, 1), 0.0)  # IU < IL


def test_bisection_against_lapack():
    rng = np.random.default_rng(12)
    diag = rng.normal(size=400)
    off = rng.normal(size=399)
    mine = eigenvalues_bisection(diag, off, 7)
    ref = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                        select_range=(0, 6), eigvals_only=True)
    assert mine == pytest.approx(ref, abs=1e-10)


def test_box_single_grid_accuracy():
    # pre-extrapolation accuracy at n = 4096
    diag, off = discretize(BOX, Grid(math.pi, 4096))
    vals = eigenvalues_bisection(diag, off, 3)
    assert vals == pytest.approx([1.0, 4.0, 9.0], abs=1e-5)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def test_refine_box():
    spec = refine(None, 0, "box", 3, Grid(math.pi, 1024))
    for rec, want in zip(spec.records, (1.0, 4.0, 9.0)):
        assert abs(rec.extrapolated - want) < 1e-8
        assert 1.7 <= rec.observed_order <= 2.3
        assert rec.trusted


def test_refine_oscillator_q0():
    p = natural(q=0)
    for m in (2, 3):
        grid = suggest_grid(p, m, "free", 3, n=1024)
        spec = refine(p, m, "free", 3, grid)
        for rec, want in zip(spec.records, (4.0, 8.0, 12.0)):
            assert abs(rec.extrapolated - want) < 1e-6


def test_refine_eigenvalues_increasing():
    p = natural()
    grid = suggest_grid(p, 3, "field", 6, n=512)
    spec = refine(p, 3, "field", 6, grid)
    ev = spec.eigenvalues
    assert all(a < b for a, b in zip(ev, ev[1:]))


def test_domain_size_stability():
    # enlarging r_max at fixed h moves converged eigenvalues by less than
    # the reported error bound
    p = natural(q=0)
    g1 = Grid(8.0, 1024)
    g2 = Grid(10.0, 1280)
    s1 = refine(p, 2, "free", 2, g1)
    s2 = refine(p, 2, "free", 2, g2)
    for r1, r2 in zip(s1.records, s2.records):
        assert abs(r1.extrapolated - r2.extrapolated) <= \
            r1.error_estimate + r2.error_estimate + 1e-9


# ---------------------------------------------------------------------------
# Bisection tolerance and finest-level brackets
# ---------------------------------------------------------------------------


def _floor(diag, off):
    return np.finfo(float).eps * (np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))


def _direct(diag, off, count):
    """The lowest eigenvalues by dstebz from the Gershgorin bounds, bisected to the end."""
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, count - 1), lapack_driver="stebz",
                                         tol=np.finfo(float).tiny)


def _record_solves(monkeypatch):
    """[(system size, kind, brackets)] of every LAPACK call the oracle makes: kind "i"
    or "v" for a ``dstebz`` solve by index or by value (0 brackets), "count" or
    "bisect" for a ``dlaebz`` call that counts at the ends of, or bisects, a group
    of ``brackets`` brackets."""
    calls, stebz, laebz = [], oracle._stebz, oracle._laebz

    def recorded_stebz(diag, off, norm, select, select_range, tol):
        calls.append((len(diag), select, 0))
        return stebz(diag, off, norm, select, select_range, tol)

    def recorded_laebz(job, ab, nab, **system):
        calls.append((len(system["diag"]), {1: "count", 2: "bisect"}[job], ab.shape[1]))
        return laebz(job, ab, nab, **system)

    monkeypatch.setattr(oracle, "_stebz", recorded_stebz)
    monkeypatch.setattr(oracle, "_laebz", recorded_laebz)
    return calls


def _brackets(calls, size, kind):
    """(dlaebz calls of ``kind`` on the system of ``size`` unknowns, their brackets)."""
    groups = [brackets for n, k, brackets in calls if (n, k) == (size, kind)]
    return len(groups), sum(groups)


def _index_solves(calls):
    return sorted(size for size, select, _ in calls if select == "i")


def _assert_levels_match_direct(spec, op):
    for factor, level in ((1, "value_h"), (2, "value_h2"), (4, "value_h4")):
        diag, off = discretize(op, spec.grid.refined(factor))
        got = np.array([getattr(rec, level) for rec in spec.records])
        assert np.all(np.abs(got - _direct(diag, off, len(got))) <= _floor(diag, off) / 4), level


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.sampled_from([256, 512, 1024]), m=st.integers(1, 5), count=st.integers(1, 5),
       mode=st.sampled_from(["free", "field"]),
       M=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       omega=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       q=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       c=st.sampled_from([Q(1, 2), 1, 2]), hbar=st.sampled_from([Q(1, 2), 1, 2]),
       length=st.floats(0.5, 8.0))
def test_every_level_agrees_with_a_direct_solve(n, m, count, mode, M, omega, q, c, hbar, length):
    # the tolerance eps * ||T|| / 64 and the brackets of the finest level move no
    # level by more than a quarter of its own rounding floor
    p = PhysicalParams(M=M, omega=omega, q=q, c=c, hbar=hbar)
    _assert_levels_match_direct(refine(p, m, mode, count, suggest_grid(p, m, mode, count, n=n)),
                                radial_operator(p, m, mode))
    _assert_levels_match_direct(refine(None, 0, "box", count, Grid(length, n)), BOX)
    p0 = PhysicalParams(M=M, omega=omega, q=0, c=c, hbar=hbar)
    _assert_levels_match_direct(refine(p0, m, "free", count,
                                       suggest_grid(p0, m, "free", count, n=n)),
                                radial_operator(p0, m, "free"))


_BRACKETED = pytest.mark.parametrize("params, m, mode, count", [
    (None, 0, "box", 3),
    (natural(q=0), 2, "free", 4),
    (natural(), 3, "field", 4),
    (PhysicalParams(M=Q(8, 3), omega=2, q=4, hbar=Q(1, 2)), 2, "free", 5),
], ids=["box", "oscillator", "field", "sextic"])


@_BRACKETED
def test_the_finest_level_is_bisected_inside_its_brackets(monkeypatch, params, m, mode, count):
    # one dlaebz group per pool worker, each counted at its ends, then bisected
    grid = Grid(math.pi, 1024) if mode == "box" else suggest_grid(params, m, mode, count)
    calls = _record_solves(monkeypatch)
    spec = refine(params, m, mode, count, grid)
    finest, groups = 4 * grid.n - 1, min(count, oracle._pool()[1])
    assert (finest, "i", 0) not in calls
    assert _brackets(calls, finest, "count") == _brackets(calls, finest, "bisect") == (groups, count)
    assert calls.count((finest, "v", 0)) == 1  # the upper neighbour's Sturm count
    assert not any("near-degenerate" in rec.flags for rec in spec.records)


@_BRACKETED
def test_only_the_predictor_levels_are_solved_by_index(monkeypatch, params, m, mode, count):
    # the n/4 and n/2 predictors are solved from the Gershgorin bounds; the three
    # reported levels n, 2n and 4n are each bisected inside their brackets
    grid = Grid(math.pi, 1024) if mode == "box" else suggest_grid(params, m, mode, count)
    calls = _record_solves(monkeypatch)
    refine(params, m, mode, count, grid)
    n = grid.n
    assert _index_solves(calls) == [n // 4 - 1, n // 2 - 1]
    for size in (n - 1, 2 * n - 1, 4 * n - 1):
        assert _brackets(calls, size, "bisect")[1] == count, size


@pytest.mark.parametrize("params, m, mode", [(None, 0, "box"), (natural(q=0), 2, "free")],
                         ids=["box", "oscillator"])
def test_an_odd_n_has_no_predictor(monkeypatch, params, m, mode):
    # the h and h/2 levels are solved by index, the finest inside its brackets
    grid = Grid(math.pi, 1001) if mode == "box" else suggest_grid(params, m, mode, 3, n=1001)
    calls = _record_solves(monkeypatch)
    spec = refine(params, m, mode, 3, grid)
    n = grid.n
    assert {size for size, _, _ in calls} == {n - 1, 2 * n - 1, 4 * n - 1}
    assert _index_solves(calls) == [n - 1, 2 * n - 1]
    assert _brackets(calls, 4 * n - 1, "bisect")[1] == 3
    assert calls.count((4 * n - 1, "v", 0)) == 1
    _assert_levels_match_direct(spec, BOX if mode == "box" else radial_operator(params, m, mode))


@pytest.mark.parametrize("r_max, count, coarsest", [
    # the n/4 system has 63 unknowns, fewer than the 70 eigenvalues asked for
    (math.pi, 70, 128),
    # ||T|| = 4 / h^2 is 8e-135 at the h level, 2e-135 at n/2 and 5e-136 at n/4
    (256 * math.sqrt(5e134), 3, 128),
    # 2e-135 at the h level: both predictors fall below 1e-135
    (256 * math.sqrt(2e135), 3, 256),
], ids=["count", "n/4-norm", "both-norms"])
def test_a_refused_predictor_is_dropped(monkeypatch, r_max, count, coarsest):
    grid = Grid(r_max, 256)
    calls = _record_solves(monkeypatch)
    spec = refine(None, 0, "box", count, grid)
    assert {size for size, _, _ in calls} == {k - 1 for k in (64, 128, 256, 512, 1024)
                                           if k >= coarsest}
    assert _index_solves(calls)[:2] == [coarsest - 1, 2 * coarsest - 1]
    _assert_levels_match_direct(spec, BOX)


def test_overlapping_brackets_fall_back_to_the_plain_solve(monkeypatch):
    # tunnelling-split pairs near eps^2 = 22.58 and 43.52: the brackets overlap
    p = PhysicalParams(M=3, omega=2, q=Q(1, 3))
    grid = suggest_grid(p, 2, "free", 5)
    calls = _record_solves(monkeypatch)
    spec = refine(p, 2, "free", 5, grid)
    assert (4 * grid.n - 1, "i", 0) in calls
    diag, off = discretize(radial_operator(p, 2, "free"), grid.refined(4))
    assert [rec.value_h4 for rec in spec.records] == list(eigenvalues_bisection(diag, off, 5))


def test_a_refused_bracket_batch_is_never_bisected(monkeypatch):
    # oracle --mode free --m 2 --count 70 --oracle-n 256: the counts at the ends of the
    # finest level's brackets refuse them, so that level is solved by index at once
    p = natural()
    grid = suggest_grid(p, 2, "free", 70, n=256)
    calls = _record_solves(monkeypatch)
    spec = refine(p, 2, "free", 70, grid)
    finest = 4 * grid.n - 1
    assert _brackets(calls, finest, "count")[1] == 70
    assert _brackets(calls, finest, "bisect") == (0, 0)
    assert (finest, "i", 0) in calls
    diag, off = discretize(radial_operator(p, 2, "free"), grid.refined(4))
    assert [rec.value_h4 for rec in spec.records] == list(eigenvalues_bisection(diag, off, 70))


def _gershgorin(diag, off):
    edge = np.abs(np.concatenate(([0.0], off, [0.0])))
    return np.min(diag - edge[:-1] - edge[1:]), np.max(diag + edge[:-1] + edge[1:])


def _brackets_around(diag, off, count, rng):
    """(centres, half-widths) of disjoint random brackets, each around one of the
    lowest ``count`` eigenvalues and inside the Gershgorin interval."""
    lam = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    low, top = _gershgorin(diag, off)
    below = np.concatenate(([low], lam[:count - 1]))
    above = np.concatenate((lam[1:count], [lam[count] if count < len(lam) else top]))
    lo = lam[:count] - rng.uniform(0.01, 0.49, count) * (lam[:count] - below)
    hi = lam[:count] + rng.uniform(0.01, 0.49, count) * (above - lam[:count])
    return (lo + hi) / 2, (hi - lo) / 2


def _bracket_systems():
    """(diag, off, count) of random systems, of tridiag(-s, 2s, -s) and of a
    discretized sextic."""
    rng = np.random.default_rng(29)
    for n, count in ((2, 2), (60, 8), (500, 9), (3000, 5)):
        yield rng.normal(size=n), rng.normal(size=n - 1), count
    for s in (1e130, 1e-130):
        yield np.full(500, 2 * s), np.full(499, -s), 4
    p = PhysicalParams(M=Q(8, 3), omega=2, q=4, hbar=Q(1, 2))
    yield (*discretize(radial_operator(p, 2, "field"), Grid(6.0, 4096)), 6)


def _stebz_per_bracket(diag, off, centres, half_widths, tol):
    return np.concatenate([
        scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                      select_range=(c - w, c + w), lapack_driver="stebz", tol=tol)
        for c, w in zip(centres, half_widths)])


@pytest.mark.parametrize("groups", [None, 1, 3], ids=["pool", "one-group", "three-groups"])
def test_the_bracket_groups_equal_scipys_stebz_bit_for_bit(binding, monkeypatch, groups):
    # dstebz over each (c - w, c + w] alone, against one dlaebz group per worker
    if groups is not None:
        monkeypatch.setattr(oracle, "_pool", lambda: (_InlineExecutor(), groups))
    rng = np.random.default_rng(7)
    for diag, off, count in _bracket_systems():
        norm, eps = oracle._norm(diag, off), np.finfo(float).eps
        near = _brackets_around(diag, off, count, rng)
        for tol in (eps * norm / 64, 1e-6 * norm, np.finfo(float).tiny):
            got = oracle._bracketed(diag, off, norm, count, tol, *near)
            want = _stebz_per_bracket(diag, off, *near, tol)
            assert len(want) == count and got.tobytes() == want.tobytes(), (len(diag), tol)


def test_a_split_system_and_a_bracket_below_gershgorin_are_declined(binding, monkeypatch):
    # dstebz would bisect another interval than the bracket: a block of the split
    # system, or the Gershgorin bound above the bracket's lower end
    rng = np.random.default_rng(11)
    diag, off = rng.normal(size=300), rng.normal(size=299)
    split = off.copy()
    split[150] = 1e-170  # its square is below the smallest normal float
    centres, half_widths = _brackets_around(diag, off, 5, rng)
    low = _gershgorin(diag, off)[0]
    below = (np.concatenate(([(low - 1.0 + centres[0] + half_widths[0]) / 2], centres[1:])),
             np.concatenate(([(centres[0] + half_widths[0] - low + 1.0) / 2], half_widths[1:])))
    declined = [(diag, split, _brackets_around(diag, split, 5, rng)), (diag, off, below)]
    calls = _record_solves(monkeypatch)
    for d, e, near in declined:
        norm, tol = oracle._prepare(d, e, 5)
        # each bracket holds one eigenvalue, so only the decline refuses them
        assert len(_stebz_per_bracket(d, e, *near, tol)) == 5
        assert oracle._bracketed(d, e, norm, 5, tol, *near) is None
        assert np.array_equal(eigenvalues_bisection(d, e, 5, near), eigenvalues_bisection(d, e, 5))
    assert not [call for call in calls if call[1] in ("count", "bisect")]


class _InlineExecutor:
    """An executor that runs each task at once on the calling thread."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("params, m, mode, count", [
    (None, 0, "box", 3),
    (natural(q=0), 2, "free", 4),
    (PhysicalParams(M=Q(8, 3), omega=2, q=4, hbar=Q(1, 2)), 2, "free", 5),
    (PhysicalParams(M=3, omega=2, q=Q(1, 3)), 2, "free", 5),
], ids=["box", "oscillator", "sextic", "overlapping-brackets"])
def test_the_pool_gives_the_records_of_one_thread(monkeypatch, params, m, mode, count):
    grid = Grid(math.pi, 1024) if mode == "box" else suggest_grid(params, m, mode, count)
    threads = set()

    def on_thread(solve):
        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return solve(*args, **kwargs)
        return recorded

    for name in ("_stebz", "_laebz"):
        monkeypatch.setattr(oracle, name, on_thread(getattr(oracle, name)))
    pooled = refine(params, m, mode, count, grid)
    assert threads - {threading.get_ident()}  # some solves ran on the pool
    # three bracket groups, on one thread
    monkeypatch.setattr(oracle, "_pool", lambda: (_InlineExecutor(), 3))
    threads.clear()
    assert refine(params, m, mode, count, grid) == pooled
    assert threads == {threading.get_ident()}


def test_refines_on_many_threads_share_the_pool_safely():
    # six callers on a pool of one worker per CPU, switching threads every 10 us:
    # each gets the records of its own solve alone
    cases = [(None, 0, "box", 3, Grid(L, 512)) for L in (1.0, 2.0, math.pi)] + \
            [(natural(q=0), m, "free", 3, Grid(8.0, 512)) for m in (2, 3, 4)]
    alone = [refine(*case) for case in cases]
    got = [None] * len(cases)

    def solve(i):
        got[i] = refine(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == alone


def test_the_plain_solve_owns_its_values():
    # dstebz fills a buffer of n values: a view of it would keep all n alive
    diag, off = discretize(BOX, Grid(math.pi, 8192))
    values = eigenvalues_bisection(diag, off, 3)
    assert values.flags.owndata and values.base is None


def test_a_missed_bracket_falls_back_to_the_plain_solve(monkeypatch):
    diag, off = discretize(BOX, Grid(math.pi, 512))
    plain = eigenvalues_bisection(diag, off, 3)
    lam = _direct(diag, off, 4)
    width = np.full(3, 0.1)
    calls = _record_solves(monkeypatch)
    # the prediction shifted off every eigenvalue: no bracket holds one
    shifted = eigenvalues_bisection(diag, off, 3, (lam[:3] + 0.5, width))
    # one bracket skips eigenvalue 2, which lies below the top bracket's end
    skipped = eigenvalues_bisection(diag, off, 3, (lam[[0, 1, 3]], width))
    assert np.array_equal(shifted, plain) and np.array_equal(skipped, plain)
    # two overlapping brackets each hold eigenvalue 1 alone, and 2 eigenvalues lie
    # below the top end
    doubled = eigenvalues_bisection(diag, off, 2, (lam[[1, 1]] + [-0.05, 0.05], width[:2]))
    assert np.array_equal(doubled, eigenvalues_bisection(diag, off, 2))
    assert calls.count((511, "i", 0)) == 4
    held = eigenvalues_bisection(diag, off, 3, (lam[:3] + 0.01, width))
    assert np.all(np.abs(held - lam[:3]) <= _floor(diag, off) / 4)
    assert calls.count((511, "i", 0)) == 4


def _mp_sturm_count(diag, off, x):
    """Eigenvalues of the float system below x, by its Sturm sequence in mpf arithmetic."""
    below, pivot = 0, mpmath.mpf(1)
    for i, d in enumerate(diag):
        pivot = d - x - (off[i - 1] ** 2 / pivot if i else 0)
        below += pivot < 0
    return below


def test_bisection_stays_within_a_quarter_floor_of_extended_precision():
    # the truth: eigenvalues of the float system, bisected by 30-digit Sturm counts
    p = PhysicalParams(M=Q(8, 3), omega=2, q=4, hbar=Q(1, 2))
    grid = suggest_grid(p, 2, "field", 3, n=512)
    diag, off = discretize(radial_operator(p, 2, "field"), grid.refined(4))
    floor = _floor(diag, off)
    plain = eigenvalues_bisection(diag, off, 3)
    bracketed = eigenvalues_bisection(diag, off, 3, (plain + 3 * floor, np.full(3, 20 * floor)))
    with mpmath.workdps(30):
        d = [mpmath.mpf(float(v)) for v in diag]
        e = [mpmath.mpf(float(v)) for v in off]
        for k, guess in enumerate(plain):
            lo, hi = mpmath.mpf(guess - 8 * floor), mpmath.mpf(guess + 8 * floor)
            assert _mp_sturm_count(d, e, lo) == k and _mp_sturm_count(d, e, hi) == k + 1
            while hi - lo > floor / 1000:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if _mp_sturm_count(d, e, mid) == k else (lo, mid)
            truth = float((lo + hi) / 2)
            assert abs(plain[k] - truth) <= floor / 4
            assert abs(bracketed[k] - truth) <= floor / 4


# ---------------------------------------------------------------------------
# Error bars
# ---------------------------------------------------------------------------


def _box_exact(r_max, count):
    return [(k * math.pi / r_max) ** 2 for k in range(1, count + 1)]


def _oscillator_exact(p, count):
    # q = 0: eps^2 = 4 c^2 hbar M omega (n + 1), whatever m
    return [float(4 * p.c**2 * p.hbar * p.M * p.omega) * (k + 1) for k in range(count)]


def _assert_covered(spec, exact):
    for rec, want in zip(spec.records, exact):
        assert abs(rec.extrapolated - want) <= rec.error_estimate, rec


@pytest.mark.parametrize("n", [512, 1024, 2048, 4096, 8192])
def test_bars_cover_closed_forms(n):
    for r_max in (math.pi, 2.0, 1.0):
        _assert_covered(refine(None, 0, "box", 3, Grid(r_max, n)), _box_exact(r_max, 3))
    p = natural(q=0)
    for m in (2, 3, 4):
        spec = refine(p, m, "free", 4, suggest_grid(p, m, "free", 4, n=n))
        _assert_covered(spec, _oscillator_exact(p, 4))


@settings(max_examples=15, deadline=None, derandomize=True)
# a non-monotone box ladder whose levels all lie 2e-8 to 5e-8 below the closed
# form: the bar needs the rounding floor (3.6e-7), |d12| + |d23| is 4.3e-8
@example(n=8192, length=1.6227008196689472, m=2, count=1, M=Q(1, 3), omega=Q(1, 3),
         c=Q(1, 2), hbar=Q(1, 2))
@given(n=st.integers(512, 8192), length=st.floats(0.5, 8.0), m=st.integers(2, 5),
       count=st.integers(1, 4),
       M=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       omega=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       c=st.sampled_from([Q(1, 2), 1, 2]), hbar=st.sampled_from([Q(1, 2), 1, 2]))
def test_bars_cover_closed_forms_property(n, length, m, count, M, omega, c, hbar):
    _assert_covered(refine(None, 0, "box", count, Grid(length, n)), _box_exact(length, count))
    p = PhysicalParams(M=M, omega=omega, q=0, c=c, hbar=hbar)
    spec = refine(p, m, "free", count, suggest_grid(p, m, "free", count, n=n))
    _assert_covered(spec, _oscillator_exact(p, count))


def test_m1_keeps_the_second_order_estimate():
    # r^(3/2) near the origin puts an h^3 term below h^4: the h^4 step would
    # claim a bar that the error exceeds
    p = natural(q=0)
    spec = refine(p, 1, "free", 3, suggest_grid(p, 1, "free", 3, n=4096))
    _assert_covered(spec, _oscillator_exact(p, 3))
    for rec in spec.records:
        assert rec.extrapolated == rec.value_h4 + (rec.value_h4 - rec.value_h2) / 3.0


def test_order_out_of_window_gets_the_conservative_bar():
    # 64 intervals over (0, 100) do not resolve the ground state: the ladder
    # converges at order 3.0, not at the h^2 its estimate assumes
    p = natural()
    spec = refine(p, 3, "field", 1, Grid(100, 64))
    for rec in spec.records:
        assert rec.flags == ("order-out-of-window",)
        assert rec.error_estimate > abs(rec.value_h - rec.value_h2) + abs(rec.value_h2 - rec.value_h4)


@pytest.mark.parametrize("mode", ["free", "field"])
def test_refine_refuses_m_0_outside_the_box(mode):
    # at m = 0 the ladder converges at order about 0.2: no bar covers its error
    p = natural(q=0)
    with pytest.raises(DomainError, match="m >= 1"):
        refine(p, 0, mode, 2, Grid(5, 256))
    assert refine(None, 0, "box", 1, Grid(math.pi, 64)).records


def test_suggest_grid_leaves_no_truncation_error():
    # a single sought eigenvalue: the wall at r_max once moved it by 1.3e-3
    # while its bar read 6e-9
    p = natural().with_qes_field()
    grid = suggest_grid(p, 2, "field", 1)
    small = refine(p, 2, "field", 1, grid).records[0]
    wide = refine(p, 2, "field", 1, Grid(2 * grid.r_max, 2 * grid.n)).records[0]
    assert abs(small.extrapolated - wide.extrapolated) <= \
        small.error_estimate + wide.error_estimate


def test_near_degenerate_pairs_get_the_conservative_bar():
    # free mode, j = 0: tunnelling-split pairs near eps^2 = 22.58 and 43.52
    p = PhysicalParams(M=3, omega=2, q=Q(1, 3))
    coarse = refine(p, 2, "free", 5, suggest_grid(p, 2, "free", 5, n=1024))
    fine = refine(p, 2, "free", 5, suggest_grid(p, 2, "free", 5, n=8192))
    assert ["near-degenerate" in rec.flags for rec in coarse.records] == \
        [False, True, True, True, True]
    for a, b in zip(coarse.records, fine.records):
        assert abs(a.extrapolated - b.extrapolated) <= a.error_estimate + b.error_estimate
        if "near-degenerate" in a.flags:
            assert a.error_estimate > abs(a.value_h - a.value_h2) + abs(a.value_h2 - a.value_h4)


def test_top_record_sees_its_upper_neighbour():
    # record 3 is the lower half of the 43.52 pair; its partner is not solved
    p = PhysicalParams(M=3, omega=2, q=Q(1, 3))
    spec = refine(p, 2, "free", 4, suggest_grid(p, 2, "free", 4))
    assert "near-degenerate" in spec.records[3].flags


def test_rounding_limited_records_are_untrusted():
    # at r_max = 1e6 the potential reaches 1e36: eps * ||T|| swamps every step
    p = natural()
    spec = refine(p, 3, "field", 2, Grid(1e6, 512))
    for rec in spec.records:
        assert {"rounding-limited", "order-out-of-window"} <= set(rec.flags)
        assert not rec.trusted
        assert rec.error_estimate > abs(rec.extrapolated)
    rep = match_report(spectrum(p, 1, "field"), spec)
    assert all(e.nearest_oracle is None and e.verdict == "UNMATCHED" for e in rep.entries)


def test_clean_ladder_under_the_floor_stays_trusted():
    # at base 8192 eigenvalue 4's step of 5.9e-8 is under 4 floors of 2.9e-8,
    # yet its order is 2.03: rounding has not disturbed the ladder
    p = natural(q=0)
    rec = refine(p, 2, "free", 3, suggest_grid(p, 2, "free", 3, n=8192)).records[0]
    assert "rounding-limited" in rec.flags and "order-out-of-window" not in rec.flags
    assert rec.trusted
    assert abs(rec.extrapolated - 4.0) <= rec.error_estimate


def test_trust_policy():
    def rec(*flags):
        return EigenvalueRecord(0, 1.0, 1.0, 1.0, 1.0, 2.0, 1e-9, flags)

    for flags in [(), ("rounding-limited",), ("order-out-of-window",), ("near-degenerate",),
                  ("ordering",), ("rounding-limited", "near-degenerate")]:
        assert rec(*flags).trusted, flags
    for flags in [("non-monotone",), ("non-monotone", "rounding-limited"),
                  ("order-out-of-window", "rounding-limited")]:
        assert not rec(*flags).trusted, flags


def test_suggest_grid_sizes_the_coarse_solve_to_the_count():
    # 600 eigenvalues fit the 1023 unknowns of n = 1024
    assert suggest_grid(natural(q=0), 2, "free", 600, n=1024).n == 1024
    with pytest.raises(DomainError, match="1023-dimensional system of a grid of n = 1024"):
        suggest_grid(natural(q=0), 2, "free", 1100, n=1024)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.integers(1, 5), count=st.integers(1, 6), mode=st.sampled_from(["free", "field"]),
       M=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       omega=st.fractions(min_value=0, max_value=9, max_denominator=3),
       q=st.fractions(min_value=Q(1, 3), max_value=9, max_denominator=3),
       c=st.sampled_from([Q(1, 2), 1, 2]), hbar=st.sampled_from([Q(1, 2), 1, 2]))
def test_the_well_minimum_probe_finds_the_r_max_of_a_scalar_loop(m, count, mode, M, omega, q,
                                                                 c, hbar):
    # suggest_grid's 512-node probe evaluates U in one call; the reference evaluates
    # it node by node, as a loop of scalar calls did.  The values may differ in the
    # last bit, the chosen node and r_max may not
    p = PhysicalParams(M=M, omega=omega, q=q, c=c, hbar=hbar)
    power_sum, probes = oracle._power_sum, []

    def pointwise(coeffs, r, powers=None):
        if isinstance(r, np.ndarray) and r.shape == (512,):  # the probe, and nothing else
            probes.append(r)
            return np.array([power_sum(coeffs, x) for x in r])
        return power_sum(coeffs, r, powers)

    vectorized = suggest_grid(p, m, mode, count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_power_sum", pointwise)
        assert suggest_grid(p, m, mode, count) == vectorized
    assert probes


def test_default_base_is_1024():
    assert DEFAULT_N == 1024
    assert suggest_grid(natural(q=0), 2, "free", 3).n == 1024


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------


def test_shoot_box():
    ev = shoot(BOX, 1.0, (0.5, 1.5), math.pi)
    assert abs(ev - 1.0) < 1e-9


def test_shoot_oscillator():
    p = natural(q=0)
    grid = suggest_grid(p, 2, "free", 2, n=512)
    ev = shoot(radial_operator(p, 2, "free"), 4.0, (3.0, 5.0), grid.r_max)
    assert abs(ev - 4.0) < 1e-8


def test_shoot_agrees_with_refine():
    p = natural()
    grid = suggest_grid(p, 2, "field", 3, n=1024)
    spec = refine(p, 2, "field", 3, grid)
    for rec in spec.records[:2]:
        lo, hi = rec.extrapolated - 0.5, rec.extrapolated + 0.5
        ev = shoot(radial_operator(p, 2, "field"), rec.extrapolated, (lo, hi), grid.r_max)
        assert abs(ev - rec.extrapolated) <= rec.error_estimate + 1e-6


def test_shoot_no_sign_change_is_informative():
    with pytest.raises(DomainError, match="no Wronskian sign change"):
        shoot(BOX, 2.0, (1.7, 2.3), math.pi)


def _shoot_cases():
    """verify's refine-shoot cases and the field levels of test_shoot_agrees_with_refine."""
    cases = [(BOX, t, (t - 0.5, t + 0.5), math.pi) for t in (1.0, 4.0)]
    q0 = natural(q=0)
    r_max = suggest_grid(q0, 2, "free", 2, n=2048).r_max
    cases += [(radial_operator(q0, 2, "free"), t, (t - 1.0, t + 1.0), r_max) for t in (4.0, 8.0)]
    p = natural()
    grid = suggest_grid(p, 2, "field", 3, n=1024)
    for rec in refine(p, 2, "field", 3, grid).records[:2]:
        x = rec.extrapolated
        cases.append((radial_operator(p, 2, "field"), x, (x - 0.5, x + 0.5), grid.r_max))
    return cases


def test_shoot_converges_in_its_step_count(monkeypatch):
    from sextic import oracle
    cases = _shoot_cases()
    base = [shoot(*case) for case in cases]
    monkeypatch.setattr(oracle, "_STEPS", 2 * oracle._STEPS)
    for case, ev in zip(cases, base):
        assert abs(shoot(*case) - ev) <= 1e-10 * abs(ev), case


@pytest.mark.parametrize("x", [1.0, 4.0, 9.0])
def test_shoot_box_starts_at_the_origin(x):
    # sin(sqrt(x) r) on [0, pi]: the exact data (0, 1) at r = 0, no r0 offset
    assert abs(shoot(BOX, x, (x - 0.5, x + 0.5), math.pi) - x) < 1e-11


def test_shoot_wide_r_max_is_bounded():
    p = natural()
    grid = suggest_grid(p, 2, "field", 3, n=1024)
    rec = refine(p, 2, "field", 3, grid).records[0]
    x = rec.extrapolated
    t0 = time.perf_counter()
    ev = shoot(radial_operator(p, 2, "field"), x, (x - 0.5, x + 0.5), 20.0)
    assert time.perf_counter() - t0 < 2.0
    assert abs(ev - x) < 1e-8


@pytest.mark.parametrize("r_max, message", [
    (1e60, "potential overflows on the shooting legs"),  # r^6 overflows
    (1e45, "the shooting steps overflow"),  # U is finite, h^2 U is not
])
def test_shoot_refuses_an_overflowing_potential(r_max, message):
    with pytest.raises(DomainError, match=message + "; reduce r_max"):
        shoot(radial_operator(natural(), 2, "field"), 6.8, (6.3, 7.3), r_max)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_isotropic_oscillator_an_operator_the_model_cannot_build(ell):
    # -D^2 + l(l+1)/r^2 + r^2 has the eigenvalues 4n + 2l + 3.  At l = 0 it has no
    # r^-2 term, so shooting starts at the origin; at l = 1, 2 it starts as r^(l+1),
    # an integer power that the model's r^(m+1/2) never gives
    op = DiffOperator({2: LaurentPoly.const(-1), 0: LaurentPoly({-2: ell * (ell + 1), 2: 1})})
    exact = [4 * n + 2 * ell + 3 for n in range(3)]
    for e in exact:
        assert shoot(op, e, (e - 0.5, e + 0.5), 8.0) == pytest.approx(e, rel=1e-9)
    assert eigenvalues_bisection(*discretize(op, Grid(8.0, 4096)), 3) == \
        pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("ell, rel", [(Q(-1, 4), 1e-4), (Q(1, 2), 1e-8)],
                         ids=["s=3/4", "s=3/2"])
def test_shoot_starts_on_the_regular_exponent(ell, rel):
    # the same operator at a non-integer exponent s = l + 1: a start vector off
    # r^s mixes in the irregular r^(1-s), whose weight grows as s falls toward
    # 1/2, so starting from r^(s+1/2) misses by 6e-3 (s = 3/4) and 1e-7 (s = 3/2)
    op = DiffOperator({2: LaurentPoly.const(-1), 0: LaurentPoly({-2: ell * (ell + 1), 2: 1})})
    for n in range(3):
        e = float(4 * n + 2 * ell + 3)
        assert shoot(op, e, (e - 0.5, e + 0.5), 8.0) == pytest.approx(e, rel=rel)


@pytest.mark.parametrize("op", [
    DiffOperator({2: LaurentPoly.const(-1), 1: LaurentPoly.const(1)}),
    DiffOperator({2: LaurentPoly({0: -1, 2: -1})}),
    DiffOperator({2: LaurentPoly.const(1)}),
], ids=["first-order-term", "varying-kinetic", "negative-kinetic"])
def test_the_oracle_refuses_an_operator_it_cannot_solve(op):
    with pytest.raises(DomainError, match="the oracle solves -k D"):
        discretize(op, Grid(4.0, 64))
    with pytest.raises(DomainError, match="the oracle solves -k D"):
        shoot(op, 1.0, (0.5, 1.5), 4.0)


def test_shoot_refuses_a_centrifugal_term_below_the_limit():
    # -D^2 - 1/r^2: s(s - 1) = -1 has no real root, so no regular solution
    op = DiffOperator({2: LaurentPoly.const(-1), 0: LaurentPoly({-2: -1, 2: 1})})
    with pytest.raises(DomainError, match="no regular solution"):
        shoot(op, 1.0, (0.5, 1.5), 4.0)


def _run_fresh(code):
    """Run ``code`` in a new interpreter that imports the package from src/."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@st.composite
def _bracketed_functions(draw):
    """(f, a, b, xtol, rtol): a smooth f with one root in [a, b] and a sign change
    there, f(x) = sign(x - r) |x - r|^p (1 + s sin(w x)) e^(c (x - a) / (b - a)) with
    |s| < 1."""
    a = draw(st.floats(-1e3, 1e3))
    b = a + draw(st.floats(1e-6, 1e3))
    r = a + (b - a) * draw(st.floats(0, 1))  # at a or b now and then: f is 0 there
    p = draw(st.sampled_from([1, 2, 3, 0.5]))
    s, w, c = draw(st.floats(-0.9, 0.9)), draw(st.floats(0, 50)), draw(st.floats(-2, 2))
    xtol, rtol = draw(st.sampled_from([(2e-12, 4 * np.finfo(float).eps), (1e-12, 1e-12),
                                       (1e-12 * max(1.0, abs(r)), 1e-12), (1e-6, 1e-9)]))

    def f(x):
        return (math.copysign(abs(x - r) ** p, x - r) * (1 + s * math.sin(w * x))
                * math.exp(c * (x - a) / (b - a)))

    return f, a, b, xtol, rtol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_bracketed_functions())
def test_the_brent_port_is_scipys_brentq_bit_for_bit(case):
    from scipy.optimize import brentq
    f, a, b, xtol, rtol = case
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    want = brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False)[1]
    if not want.converged:  # a slow p = 1/2 root: both give up at the same point
        with pytest.raises(RuntimeError, match=re.escape(f"value is {want.root!r}")):
            oracle._brentq(counted, a, b, counted(a), counted(b), xtol, rtol)
    else:
        got = oracle._brentq(counted, a, b, counted(a), counted(b), xtol, rtol)
        assert got.hex() == want.root.hex()
    assert len(calls) <= want.function_calls


def test_the_brent_port_raises_where_brentq_does_not_converge():
    from scipy.optimize import brentq

    def step(x):  # a jump at 1e-200 in a bracket of 2e300: 100 iterations do not reach it
        return 1.0 if x > 1e-200 else -1.0

    want = brentq(step, -1e300, 1e300, xtol=1e-300, full_output=True, disp=False)[1]
    assert not want.converged and want.iterations == 100
    with pytest.raises(RuntimeError, match=re.escape(f"after 100 iterations, value is {want.root!r}")):
        oracle._brentq(step, -1e300, 1e300, -1.0, 1.0, 1e-300, 4 * np.finfo(float).eps)


def test_verify_never_loads_scipy_integrate():
    _run_fresh("import contextlib, io, sys\n"
               "from sextic.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main(['verify']) == 0\n"
               "assert 'scipy.integrate' not in sys.modules\n")


def _assert_commands_load_no_scipy(argvs):
    _run_fresh("import contextlib, io, sys\n"
               "import sextic.oracle, sextic.verify\n"
               "assert 'scipy' not in sys.modules\n"
               "from sextic.cli import main\n"
               f"for argv in {argvs!r}:\n"
               "    with contextlib.redirect_stdout(io.StringIO()):\n"
               "        assert main(argv) == 0, argv\n"
               "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], argv\n")


def test_exact_commands_never_load_scipy():
    _assert_commands_load_no_scipy(
        [["derive", "--mode", "free", "--j", "2"], ["polys", "--mode", "field", "--j", "4"],
         *(["spectrum", "--mode", mode, "--j", str(j)]
           for mode in ("free", "field") for j in range(21)),
         ["spectrum", "--mode", "free", "--j", "0", "--gauge", "3"],
         ["wavefunction", "--mode", "field", "--j", "2"]])


def test_no_command_loads_scipy():
    # numpy's own OpenBLAS serves dstebz and the oracle carries its own Brent root
    # finder, so the oracle's commands do not import scipy either
    if oracle._numpy_dstebz() is None:
        pytest.skip("numpy exports no scipy_dstebz_64_: the fallback binding imports scipy")
    _assert_commands_load_no_scipy(
        [["compare", "--mode", "field", "--j", "0", "--oracle-n", "256"],
         ["compare", "--mode", "free", "--j", "2"],
         ["oracle", "--mode", "field", "--m", "3", "--count", "3"],
         ["spectrum", "--mode", "field", "--j", "1", "--oracle"],
         ["verify"], ["verify", "--fast"]])


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def test_residual_analytic_oscillator_state():
    wf = RadialWavefunction(GaugeAnsatz(Q(5, 2), 1, 0), Q(2), (mpmath.mpf(1),), Q(1))
    assert wf.normalizability == "normalizable"
    assert residual(wf, radial_operator(natural(q=0), 2, "free"), 4) < 1e-12


def ode_residual(f, d2f, potential, kinetic, x, window, samples=33):
    """max |kinetic*(-f'') + potential*f - x f| / (max(1, |x|) sup |f|) over the
    window: the generic form of :func:`residual`, for callables of r."""
    def sample(r):
        fv = f(r)
        return fv, -kinetic * d2f(r) + potential(r) * fv

    return oracle._max_relative(sample, x, window, samples)


def test_residual_negative_control():
    with mpmath.workdps(30):
        r = ode_residual(lambda r: mpmath.exp(-r), lambda r: mpmath.exp(-r),
                         lambda r: 0 * r, mpmath.mpf(1), mpmath.mpf(1), (0.5, 2.5))
    assert r > 0.5


def test_residual_field_j0_block_root():
    p = natural()
    spec = spectrum(p, 0, "field")
    wf = wavefunction(spec, 0)
    assert residual(wf, radial_operator(p, 2, "field"), spec.roots_physical[0].midpoint) < 1e-10


def _reference_residual(wf, op, x, window=(0.5, 2.5), samples=33, digits=50):
    """The residual as a plain per-sample loop: f = wf(r) and f'' each evaluate
    the gauge factor, and wf(r) converts the polynomial anew at every sample."""
    kin = -op.coeff(2).constant_term
    w = wf.gauge.log_derivative(wf.hbar)

    def power_sum(coeffs, r):
        u = 0.0 * r
        for e, c in coeffs.items():
            u = u + (c * r**e if e else c)
        return u

    with mpmath.workdps(digits + 10):
        def to_mpf(v):
            v = Q(v)
            return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)

        mult, wc, dwc = ({e: to_mpf(v) for e, v in lp.d.items()}
                         for lp in (op.coeff(0), w, w.derivative()))
        poly = {e: (c if isinstance(c, mpmath.mpf) else to_mpf(c))
                for e, c in wf.polynomial_in_r().items()}
        dpoly = {e - 1: e * c for e, c in poly.items() if e}
        d2poly = {e - 1: e * c for e, c in dpoly.items() if e}

        def d2f(r):
            wr = power_sum(wc, r)
            return wf.prefactor(r) * (power_sum(d2poly, r) + 2 * wr * power_sum(dpoly, r)
                                      + (power_sum(dwc, r) + wr * wr) * power_sum(poly, r))

        return ode_residual(wf, d2f, lambda r: power_sum(mult, r), to_mpf(kin),
                            x, window, samples)


def test_residual_is_the_reference_loop_bit_for_bit():
    # the 20 blocks of verify's wavefunction-residual check
    p = natural()
    blocks = 0
    for mode in ("free", "field"):
        for j in range(4):
            spec = spectrum(p, j, mode)
            op = radial_operator(p, j + 2, mode)
            for i, ph in enumerate(spec.roots_physical):
                wf, x = wavefunction(spec, i), ph.mpf(50)
                assert residual(wf, op, x) == _reference_residual(wf, op, x), (mode, j, i)
                blocks += 1
    assert blocks == 20


def test_residual_every_block_root_j_le_2():
    p = natural()
    for mode in ("free", "field"):
        for j in range(3):
            spec = spectrum(p, j, mode)
            for i, ph in enumerate(spec.roots_physical):
                wf = wavefunction(spec, i)
                assert residual(wf, radial_operator(p, j + 2, mode), ph.mpf(50)) < 1e-10


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _fake_oracle(mode, m, values):
    from sextic.oracle import EigenvalueRecord, OracleSpectrum
    recs = tuple(EigenvalueRecord(i, v, v, v, v, 2.0, 1e-9)
                 for i, v in enumerate(values))
    return OracleSpectrum(mode, m, Grid(4.0, 64), recs)


def test_match_identical_lists():
    p = natural()
    spec = spectrum(p, 1, "field")
    oracle = _fake_oracle("field", 3, [float(e.midpoint) for e in spec.roots_physical])
    rep = match_report(spec, oracle, 1e-4)
    assert all(e.verdict == "MATCHED" for e in rep.entries)
    assert all(e.absolute_gap == 0 for e in rep.entries)


def test_match_disjoint_lists():
    p = natural()
    spec = spectrum(p, 1, "field")
    oracle = _fake_oracle("field", 3, [1e3, 2e3])
    rep = match_report(spec, oracle, 1e-4)
    assert all(e.verdict == "UNMATCHED" for e in rep.entries)


def test_match_monotone_in_tolerance():
    p = natural()
    spec = spectrum(p, 1, "field")
    vals = [float(e.midpoint) + 1e-3 for e in spec.roots_physical]
    oracle = _fake_oracle("field", 3, vals)
    loose = match_report(spec, oracle, 1e-2)
    tight = match_report(spec, oracle, 1e-6)
    assert loose.matched >= tight.matched


def test_match_entries_name_the_oracle_flags():
    p = natural()
    spec = spectrum(p, 1, "field")
    vals = [float(e.midpoint) for e in spec.roots_physical]
    recs = (EigenvalueRecord(0, vals[0], vals[0], vals[0], vals[0], 2.0, 1e-3,
                             ("near-degenerate",)),
            EigenvalueRecord(1, vals[1], vals[1], vals[1], vals[1], 3.8, 1e-9,
                             ("order-out-of-window", "rounding-limited")))
    rep = match_report(spec, OracleSpectrum("field", 3, Grid(4.0, 64), recs), 1e-4)
    first, second = rep.entries
    assert first.verdict == "MATCHED" and first.oracle_flags == ("near-degenerate",)
    # the untrusted record takes no part: root 1 meets record 0
    assert second.oracle_index == 0 and second.verdict == "UNMATCHED"


def test_a_record_whose_bar_exceeds_the_tolerance_decides_no_verdict():
    spec = spectrum(natural(), 1, "field")
    vals = [float(e.midpoint) for e in spec.roots_physical]
    tol = 1e-4
    # one record on each root; the first one's bar is just over tol * |value|
    bars = [tol * max(1.0, abs(v)) for v in vals]
    recs = (EigenvalueRecord(0, vals[0], vals[0], vals[0], vals[0], 2.0, bars[0] * 1.01),
            EigenvalueRecord(1, vals[1], vals[1], vals[1], vals[1], 2.0, bars[1] * 0.99))
    rep = match_report(spec, OracleSpectrum("field", 3, Grid(4.0, 64), recs), tol)
    assert [e.oracle_index for e in rep.entries] == [1, 1]
    assert [e.verdict for e in rep.entries] == ["UNMATCHED", "MATCHED"]
    wide = tuple(EigenvalueRecord(i, v, v, v, v, 2.0, 1.0) for i, v in enumerate(vals))
    rep = match_report(spec, OracleSpectrum("field", 3, Grid(4.0, 64), wide), tol)
    assert all(e.nearest_oracle is None and e.verdict == "UNMATCHED" for e in rep.entries)


def test_operator_floats_reject_a_lost_or_overflowing_coefficient():
    grid = Grid(4.0, 64)
    for params in (natural(c=Q(1, 10**300)), natural(q=Q(1, 10**300)),
                   natural(c=10**300), natural(M=10**300)):
        with pytest.raises(DomainError, match="float"):
            discretize(radial_operator(params, 3, "free"), grid)
    with pytest.raises(DomainError, match="no confining domain"):
        suggest_grid(natural(q=0, omega=0), 2, "free", 2)


def test_match_requires_compatible_runs():
    p = natural()
    spec = spectrum(p, 1, "field")
    with pytest.raises(DomainError):
        match_report(spec, _fake_oracle("free", 3, [1.0]), 1e-4)
