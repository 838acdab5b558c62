"""Numerical-solver tests: discretization, Sturm counts, refinement, shooting."""

import math
import warnings
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic.model import DomainError, PhysicalParams
from sextic.opcalc import GaugeAnsatz
from sextic.oracle import (DEFAULT_N, EigenvalueRecord, Grid, OracleSpectrum,
                           discretize, eigenvalues_bisection, match_report,
                           ode_residual, potential_on_grid, refine, residual,
                           shoot, sturm_count, suggest_grid)
from sextic.qes import RadialWavefunction, spectrum, wavefunction


def natural(**kw):
    base = dict(M=1, omega=1, q=1)
    base.update(kw)
    return PhysicalParams(**base)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def test_discretize_box_structure():
    g = Grid(math.pi, 64)
    diag, off = discretize(None, 0, "box", g)
    assert len(diag) == 63 and len(off) == 62
    h2 = g.h * g.h
    assert np.all(diag == 2.0 / h2)
    # exactly symmetric: the single off-diagonal array is bitwise constant
    assert np.all(off == off[0])


def test_discretize_potential_alignment():
    p = natural()
    g = Grid(4.0, 128)
    u = potential_on_grid(p, 2, "free", g)
    r1 = g.h
    from sextic.model import potential_free, coupling_constant
    want = float(potential_free(p, 2, Q(r1).limit_denominator(10**12)) +
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
    # sigma hits the first pivot exactly; the nudged pivot sends the next
    # quotient to +inf, which must neither warn nor miscount
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sturm_count(np.array([1.0, 1.0]), np.array([1e10]), 1.0) == 1


def test_sturm_count_matches_dense_diagonalization():
    rng = np.random.default_rng(5)
    diag = rng.normal(size=64)
    off = rng.normal(size=63)
    full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvalsh(full)
    for sigma in (-2.5, -0.3, 0.0, 0.7, 3.1):
        assert sturm_count(diag, off, sigma) == int(np.sum(ev < sigma))


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
    diag, off = discretize(None, 0, "box", Grid(math.pi, 4096))
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


@settings(max_examples=15, deadline=None)
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
    # m = 0: the ladder converges at order 0.2, not at the h^2 its estimate assumes
    p = natural(q=0)
    spec = refine(p, 0, "free", 2, suggest_grid(p, 0, "free", 2))
    for rec in spec.records:
        assert "order-out-of-window" in rec.flags
        assert rec.error_estimate > abs(rec.value_h - rec.value_h2) + abs(rec.value_h2 - rec.value_h4)


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


def test_default_base_is_1024():
    assert DEFAULT_N == 1024
    assert suggest_grid(natural(q=0), 2, "free", 3).n == 1024


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------


def test_shoot_box():
    ev = shoot(None, 0, "box", 1.0, (0.5, 1.5), math.pi)
    assert abs(ev - 1.0) < 1e-9


def test_shoot_oscillator():
    p = natural(q=0)
    grid = suggest_grid(p, 2, "free", 2, n=512)
    ev = shoot(p, 2, "free", 4.0, (3.0, 5.0), grid.r_max)
    assert abs(ev - 4.0) < 1e-8


def test_shoot_agrees_with_refine():
    p = natural()
    grid = suggest_grid(p, 2, "field", 3, n=1024)
    spec = refine(p, 2, "field", 3, grid)
    for rec in spec.records[:2]:
        lo, hi = rec.extrapolated - 0.5, rec.extrapolated + 0.5
        ev = shoot(p, 2, "field", rec.extrapolated, (lo, hi), grid.r_max)
        assert abs(ev - rec.extrapolated) <= rec.error_estimate + 1e-6


def test_shoot_no_sign_change_is_informative():
    with pytest.raises(DomainError, match="no Wronskian sign change"):
        shoot(None, 0, "box", 2.0, (1.7, 2.3), math.pi)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def test_residual_analytic_oscillator_state():
    wf = RadialWavefunction(GaugeAnsatz(Q(5, 2), 1, 0), Q(2), (Q(1),), 2, Q(1),
                            "normalizable")
    assert residual(wf, natural(q=0), 2, "free", 4) < 1e-12


def test_residual_negative_control():
    with mpmath.workdps(30):
        r = ode_residual(lambda r: mpmath.exp(-r), lambda r: mpmath.exp(-r),
                         lambda r: 0 * r, mpmath.mpf(1), mpmath.mpf(1), (0.5, 2.5))
    assert r > 0.5


def test_residual_field_j0_block_root():
    p = natural()
    spec = spectrum(p, 0, "field")
    wf = wavefunction(p, 0, spec.roots_reduced[0], "field")
    assert residual(wf, p, 2, "field", spec.roots_physical[0].midpoint) < 1e-10


def test_residual_every_block_root_j_le_2():
    p = natural()
    for mode in ("free", "field"):
        for j in range(3):
            spec = spectrum(p, j, mode)
            for enc, ph in zip(spec.roots_reduced, spec.roots_physical):
                wf = wavefunction(p, j, enc, mode)
                assert residual(wf, p, j + 2, mode, ph.mpf(50)) < 1e-10


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _fake_oracle(mode, m, values):
    from sextic.oracle import EigenvalueRecord, OracleSpectrum
    recs = tuple(EigenvalueRecord(i, v, v, v, v, 2.0, 1e-9)
                 for i, v in enumerate(values))
    return OracleSpectrum(mode, m, None, Grid(4.0, 64), recs)


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
    rep = match_report(spec, OracleSpectrum("field", 3, None, Grid(4.0, 64), recs), 1e-4)
    first, second = rep.entries
    assert first.verdict == "MATCHED" and first.oracle_flags == ("near-degenerate",)
    # the untrusted record takes no part: root 1 meets record 0
    assert second.oracle_index == 0 and second.verdict == "UNMATCHED"


def test_match_requires_compatible_runs():
    p = natural()
    spec = spectrum(p, 1, "field")
    with pytest.raises(DomainError):
        match_report(spec, _fake_oracle("free", 3, [1.0]), 1e-4)
