"""Algebraic-block tests: generators, recurrences, families, roots, spectra."""

import dataclasses
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic import qes
from sextic.model import PhysicalParams, eta_squared, potential_coefficients
from sextic.opcalc import (DiffOperator, LaurentPoly, NotQesError, OperatorError, QPoly,
                           commutator, monomial_matrix)
from sextic.qes import (FamilyConstructionError, OpenModuleError, QesError, RootPropertyError,
                        algebraic_hamiltonian, canonical_gauge, critical_roots,
                        crosspath_comparison, derived_recurrence, gauge_search,
                        isolate_real_roots, ledger_shift_direct,
                        polynomial_family, published_recurrence, run_recurrence,
                        sl2_generators, spectrum, wavefunction)
from sextic.render import decimal_fixed
from sextic.tables import published_field_table, published_free_table


def natural(**kw):
    base = dict(M=1, c=1, hbar=1, omega=1, q=1)
    base.update(kw)
    return PhysicalParams(**base)


# ---------------------------------------------------------------------------
# Generators and the module Hamiltonian
# ---------------------------------------------------------------------------


def test_sl2_examples():
    g = sl2_generators(2)
    assert not g.raising.apply(QPoly.monomial(2))
    g0 = sl2_generators(0)
    assert not g0.cartan.apply(QPoly([1]))
    g4 = sl2_generators(4)
    zero = commutator(g4.raising, g4.lowering) + 2 * g4.cartan
    for k in range(9):
        assert not zero.apply(QPoly.monomial(k))


def test_module_hamiltonian_preserves_span():
    p = natural()
    for j in range(13):
        mat = monomial_matrix(algebraic_hamiltonian(p, j), j)
        assert len(mat) == j + 1


def test_module_hamiltonian_j0_entry():
    # the 1x1 restriction is 0; under the implied identification
    # (q-flip, offset 2 m M c^2 hbar omega) this is the derived block root
    p = natural()
    mat = monomial_matrix(algebraic_hamiltonian(p, 0), 0)
    assert mat == [[0]]
    spec = spectrum(p, 0, "free")
    offset_implied = 2 * 2 * p.M * p.c**2 * p.hbar * p.omega
    assert spec.roots_physical[0].midpoint + offset_implied == 0
    # the published offset (2 M c^2 hbar omega, no factor m) does not close
    assert spec.roots_physical[0].midpoint + offset_implied / 2 != 0


def test_module_hamiltonian_j1_charpoly_crosspath():
    p = natural()
    rep = crosspath_comparison(p, 1)
    cp = rep["charpoly_module"]
    assert cp.degree == 2
    # q-flipped module spectrum {+-6} maps onto the derived block {0, -12}
    assert sorted(isolate_real_roots(cp, 20), key=lambda e: e.midpoint)[0].midpoint < 0
    assert rep["implied_offset_matches"]
    assert not rep["published_offset_matches"]


def _det_x_minus(mat, x):
    """det(x I - mat) by exact Fraction elimination with row pivoting."""
    a = [[(x if r == c else 0) - v for c, v in enumerate(row)] for r, row in enumerate(mat)]
    n, det = len(a), Q(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Q(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [u - f * v for u, v in zip(a[r], a[c])]
    return det


_positive = st.builds(Q, st.integers(1, 9), st.integers(1, 4))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(M=_positive, omega=_positive, q=_positive, j=st.integers(0, 8))
def test_crosspath_charpoly_is_the_module_determinant(M, omega, q, j):
    # the continuant of the band against det(x - H) of the module matrix
    p = natural(M=M, omega=omega, q=q)
    cp = crosspath_comparison(p, j)["charpoly_module"]
    flipped = natural(M=M, omega=omega, q=-q)
    mat = monomial_matrix(algebraic_hamiltonian(flipped, j), j)
    assert cp.degree == j + 1
    for x in range(-1, j + 2):
        assert cp(Q(x, 3)) == _det_x_minus(mat, Q(x, 3))


@pytest.mark.parametrize("extra, error, match", [
    ({1: 1}, OperatorError, "not invariant"),  # rho^j -> rho^(j+1): on the band, not closed
    ({2: 1}, NotQesError, "band"),             # rho^k -> rho^(k+2): off the band
])
def test_crosspath_rejects_a_broken_module(monkeypatch, extra, error, match):
    ham = algebraic_hamiltonian(natural(q=-1), 2) + DiffOperator.multiplication(
        LaurentPoly(extra), "rho")
    monkeypatch.setattr(qes, "algebraic_hamiltonian", lambda params, j: ham)
    with pytest.raises(error, match=match):
        crosspath_comparison(natural(), 2)


@pytest.mark.parametrize("j", range(7))
def test_crosspath_exact(j):
    for p in (natural(), natural(M=Q(3, 2), omega=Q(2, 5), q=Q(-7, 3))):
        rep = crosspath_comparison(p, j)
        assert rep["implied_offset_matches"]


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------


def test_derived_recurrence_matches_published_operator_forms():
    # against the published reduced operators (constants included) the band is
    # alpha_k = (k+1)(j+1-k), gamma_k = eta^2 (j-k+1), with beta_k = 0 in
    # field mode and beta_k = -4 M c^2 hbar omega (j+1-k) in free mode
    p = natural()
    k = QPoly.x()
    for mode in ("free", "field"):
        for j in (0, 1, 3, 5):
            rec = derived_recurrence(p, j, None, mode)
            u = eta_squared(p)
            assert rec.alpha == (k + 1) * (Q(j + 1) - k)
            assert rec.gamma == u * (Q(j + 1) - k)
            w = 4 * p.M * p.c**2 * p.hbar * p.omega
            if mode == "field":
                assert rec.beta == QPoly()
            else:
                assert rec.beta + rec.ledger.shift == -w * (Q(j + 1) - k)
            assert rec.closes


@pytest.mark.parametrize("mode", ["free", "field"])
@pytest.mark.parametrize("j", [63, 64, 100])
def test_truncation_index_past_j_63(mode, j):
    # the series truncates at degree j (the band closes) at any j, not only
    # below a fixed scan depth: gamma = a k + b is linear, and a candidate
    # closes exactly when its root -b/a is j + 1
    assert derived_recurrence(natural(), j, None, mode).closes
    closing = []
    for cand in gauge_search(natural(), j, mode):
        gamma = cand.recurrence.gamma
        assert gamma.degree == 1
        assert cand.recurrence.closes == (-gamma.c[0] / gamma.c[1] == j + 1)
        if cand.recurrence.closes:
            closing.append(cand.gauge)
    assert canonical_gauge(natural(), j + 2, mode) in closing


def test_published_recurrence_free_degeneracy():
    p = natural()
    rec = published_recurrence(p, 2, "free")
    assert rec.degenerate_rows() == (2,)   # leading coefficient eta^2 (k - j) dies at k = j
    assert rec.coefficients_at(2)[0] == 0


def test_published_recurrence_field_first_row():
    # eta^2 P_1 = x P_0, so the monic P_1 is x
    p = natural()
    rec = published_recurrence(p, 0, "field")
    fam = polynomial_family(rec)
    assert fam.polys[1] == QPoly([0, 1])


def test_published_field_recurrence_table_diagnostics():
    # degree 2 agrees with the published table only by coincidence at j = 1;
    # from j = 2 on, the published recurrence contradicts the published table
    p = natural()
    fam1 = polynomial_family(published_recurrence(p, 1, "field"))
    assert fam1.critical == published_field_table(p, 2)
    fam2 = polynomial_family(published_recurrence(p, 2, "field"))
    assert fam2.critical != published_field_table(p, 3)


def test_published_free_recurrence_reconciles_under_constraint_row():
    # with the degenerate last row read as the truncation constraint, the
    # published free recurrence reproduces the published table after monic
    # normalization (the published scaling itself cannot generate P_{j+1})
    p = natural()
    table = published_free_table(p)
    for j in range(4):
        fam = polynomial_family(published_recurrence(p, j, "free"))
        assert fam.critical == table[j + 1].monic()
        assert fam.degenerate_rows == (j,)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_family_basics():
    p = natural()
    rec = derived_recurrence(p, 4, None, "field")
    fam = polynomial_family(rec)
    assert fam.polys[0] == QPoly([1])
    for kk, poly in enumerate(fam.polys):
        assert poly.degree == kk
        assert poly.leading == 1


def test_family_field_table_entries():
    p = natural()
    u = eta_squared(p)
    rec2 = derived_recurrence(p, 2, None, "field")
    assert polynomial_family(rec2).critical == QPoly([0, -10 * u, 0, 1])
    rec4 = derived_recurrence(p, 4, None, "field")
    assert polynomial_family(rec4).critical == \
        QPoly([0, 712 * u**2, 0, -70 * u, 0, 1])


def test_family_free_j1_expanded():
    p = natural()
    rec = derived_recurrence(p, 1, None, "free")
    fam = polynomial_family(rec).in_physical_variable()
    assert fam.critical == (QPoly([4, 1]) * QPoly([8, 1]) - 32).monic()


def test_family_as_generated_keeps_scaling():
    p = natural()
    rec = derived_recurrence(p, 1, None, "field")
    polys = run_recurrence(rec, QPoly.x(), rec.j + 1)
    # alpha_0 = j+1 = 2 divides the first step
    assert polys[1] == QPoly([0, Q(1, 2)])


def test_family_degenerate_interior_row_raises():
    from sextic.qes import ThreeTermRecurrence
    from sextic.opcalc import SpectralLedger
    k = QPoly.x()
    rec = ThreeTermRecurrence(j=3, alpha=(k - 1) * (k - 5), beta=QPoly(), gamma=QPoly(),
                              source="derived", mode="field", variable="reduced",
                              ledger=SpectralLedger())
    with pytest.raises(FamilyConstructionError) as err:
        polynomial_family(rec)
    assert err.value.row == 1


def _read_jacobi(polys):
    """(b_k, c_k) of P_{k+1} = (x - b_k) P_k - c_k P_{k-1}, read off the two top
    coefficients of each monic P_k; None unless every c_k > 0."""
    s = [p.coeff(k - 1) for k, p in enumerate(polys)]
    t = [p.coeff(k - 2) for k, p in enumerate(polys)]
    b = tuple(s[k] - s[k + 1] for k in range(len(polys) - 1))
    c = tuple(t[k] - b[k] * s[k] - t[k + 1] for k in range(1, len(polys) - 1))
    return (b, c) if all(v > 0 for v in c) else None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(M=_positive, c=_positive, hbar=_positive, omega=_positive, q=_positive,
       negative_q=st.booleans(), mode=st.sampled_from(["free", "field"]),
       j=st.integers(0, 8))
def test_family_is_the_continuant_of_its_band(M, c, hbar, omega, q, negative_q, mode, j):
    # the band's monic continuant is the run recurrence made monic, and the
    # recorded Jacobi pair (beta_k; alpha_{k-1} gamma_k) is the one its polynomials carry
    p = PhysicalParams(M=M, c=c, hbar=hbar, omega=omega, q=-q if negative_q else q)
    rec = derived_recurrence(p, j, None, mode)
    fam = polynomial_family(rec)
    assert list(fam.polys) == [f.monic() for f in run_recurrence(rec, QPoly.x(), j + 1)]
    assert fam.jacobi == _read_jacobi(fam.polys)
    physical = fam.in_physical_variable()
    assert physical.jacobi == _read_jacobi(physical.polys)
    assert (fam.jacobi is None) == (negative_q and j > 0)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def test_field_j0_root_exact_zero():
    spec = spectrum(natural(), 0, "field")
    enc = spec.roots_reduced[0]
    assert enc.exact and enc.midpoint == 0
    # ledger image is the swept radial constant at m = 2
    assert spec.roots_physical[0].midpoint == -4


def test_field_j1_roots_bracket_sqrt():
    # independent certificate: the enclosures bracket x^2 = 2 eta^2 exactly
    spec = spectrum(natural(), 1, "field", digits=40)
    hi = spec.roots_reduced[1]
    assert hi.lo > 0
    assert hi.lo**2 <= 32 <= hi.hi**2
    lo = spec.roots_reduced[0]
    assert lo.hi < 0
    assert lo.hi**2 <= 32 <= lo.lo**2
    assert hi.width < Q(1, 10**40)


def test_field_j3_roots_closed_form():
    # x^4 - 30 u x^2 + 72 u^2: x^2 = (15 +- sqrt(153)) u
    spec = spectrum(natural(), 3, "field", digits=40)
    mids = [e.midpoint for e in spec.roots_reduced]
    assert mids == sorted(mids)
    u = 16
    with mpmath.workdps(50):
        outer = mpmath.sqrt((15 + mpmath.sqrt(153)) * u)
        inner = mpmath.sqrt((15 - mpmath.sqrt(153)) * u)
        for got, want in zip(mids, (-outer, -inner, inner, outer)):
            assert abs(mpmath.mpf(got.numerator) / got.denominator - want) < mpmath.mpf("1e-38")
    assert float(mids[3]) == pytest.approx(20.9257, abs=1e-3)
    assert float(mids[2]) == pytest.approx(6.4878, abs=1e-3)


def test_roots_against_companion_matrix():
    # floating cross-check only; the certified path is the exact sign check
    p = natural(q=Q(7, 3), M=Q(1, 2), omega=Q(4, 5))
    for mode in ("free", "field"):
        rec = derived_recurrence(p, 5, None, mode)
        fam = polynomial_family(rec)
        enc = critical_roots(fam, digits=30)
        float_roots = sorted(np.roots([float(c) for c in reversed(fam.critical.c)]).real)
        for e, fr in zip(enc, float_roots):
            assert abs(float(e.midpoint) - fr) < 1e-6 * max(1.0, abs(fr))


def test_isolate_detects_complex_roots():
    with pytest.raises(RootPropertyError) as err:
        isolate_real_roots(QPoly([1, 0, 1]))  # x^2 + 1
    assert err.value.count == 0


def test_isolate_detects_multiple_roots():
    with pytest.raises(RootPropertyError):
        isolate_real_roots(QPoly([1, -2, 1]))  # (x-1)^2


def test_isolate_exact_rational_roots():
    roots = isolate_real_roots(QPoly([6, -5, 1]))  # (x-2)(x-3)
    assert [r.midpoint for r in roots if r.exact] == [2, 3]


def _value(p, x):
    # power-sum evaluation, independent of QPoly.__call__ and of the integer Horner
    return sum(a * x**i for i, a in enumerate(p.c))


def _with_roots(*roots):
    out = QPoly([1])
    for r in roots:
        out = out * QPoly([-Q(r), 1])
    return out


def _no_fallback(*args):
    raise AssertionError("the integer Newton cells were not certified")


positive_rationals = st.fractions(min_value=Q(1, 8), max_value=8, max_denominator=9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(M=positive_rationals, omega=positive_rationals, q=positive_rationals,
       mode=st.sampled_from(["free", "field"]), j=st.integers(0, 12),
       digits=st.integers(15, 60))
def test_critical_roots_certified_property(M, omega, q, mode, j, digits):
    rec = derived_recurrence(natural(M=M, omega=omega, q=q), j, None, mode)
    fam = polynomial_family(rec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qes, "_centres", _no_fallback)
        roots = critical_roots(fam, digits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qes, "_newton_centres", lambda *args: None)
        assert critical_roots(fam, digits) == roots  # the eigsy cells
    assert len(roots) == j + 1
    assert all(a.hi < b.lo for a, b in zip(roots, roots[1:]))
    for e in roots:
        assert e.width < Q(1, 10**(digits + 10))
        if e.exact:
            assert _value(fam.critical, e.lo) == 0
        else:
            assert _value(fam.critical, e.lo) * _value(fam.critical, e.hi) < 0
    if mode == "field":
        assert [(-e.hi, -e.lo) for e in reversed(roots)] == [(e.lo, e.hi) for e in roots]


@pytest.mark.parametrize("roots", [
    (1, 1 + Q(1, 10**30), -2),
    (1, 1 + Q(1, 10**70), -2),
    (-1 - Q(1, 10**30), -1, 1, 1 + Q(1, 10**30)),
], ids=["gap-1e-30", "gap-1e-70-below-cell", "parity-pairs"])
def test_isolate_clustered_roots(roots):
    # certified through the precision retry, never a RootPropertyError
    p = _with_roots(*roots)
    encs = isolate_real_roots(p, 50)
    assert len(encs) == len(roots)
    assert all(a.hi < b.lo for a, b in zip(encs, encs[1:]))
    for e, r in zip(encs, sorted(roots)):
        assert e.lo <= r <= e.hi and e.width < Q(1, 10**60)


def test_isolate_root_property_counts():
    for p, count in ((QPoly([1, 0, 1]), 0), (QPoly([1, -2, 1]), 1),
                     (_with_roots(0, 0, 1), 2), (_with_roots(2, 2, 2, -1), 2)):
        with pytest.raises(RootPropertyError) as err:
            isolate_real_roots(p)
        assert err.value.count == count


def test_a_newton_miss_falls_back_to_the_same_cells(monkeypatch):
    # coinciding seeds converge to one root, so the Newton cells overlap; the
    # mpf eigsy cells replace them, and no Sturm count runs
    fams = [polynomial_family(derived_recurrence(natural(q=Q(7, 3), M=Q(1, 2)), 9, None, mode))
            for mode in ("free", "field")]
    want = [critical_roots(fam) for fam in fams]
    fallbacks, centres = [], qes._centres

    def counted(*args):
        fallbacks.append(args)
        return centres(*args)

    def no_sturm(p):
        raise AssertionError("Sturm count after a Newton miss")

    monkeypatch.setattr("numpy.linalg.eigvalsh", lambda a, **kw: np.full(len(a), a[-1, -1]))
    monkeypatch.setattr(qes, "_centres", counted)
    monkeypatch.setattr(qes, "_sturm_chain", no_sturm)
    assert [critical_roots(fam) for fam in fams] == want
    assert len(fallbacks) == 2


def _continuant(b, c):
    # monic P_{k+1} = (x - b_k) P_k - c_k P_{k-1}, P_0 = 1
    x, prev, cur = QPoly.x(), QPoly(), QPoly([1])
    for k, bk in enumerate(b):
        prev, cur = cur, (x - bk) * cur - (c[k - 1] * prev if k else QPoly())
    return cur


def _no_polyroots(*args, **kw):
    raise AssertionError("mpmath.polyroots is not a root approximator")


real_roots = st.fractions(min_value=-40, max_value=40, max_denominator=500)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(roots=st.lists(real_roots, min_size=1, max_size=6, unique=True),
       twins=st.lists(st.booleans(), min_size=6, max_size=6),
       gap=st.sampled_from([Q(1, 10**30), Q(1, 10**12), Q(3, 7)]),
       lead=st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(bool))
def test_every_real_rooted_polynomial_is_a_jacobi_spectrum(roots, twins, gap, lead):
    # near-clusters: each root may get a twin at distance ``gap``
    roots = sorted(set(roots + [r + gap for r, twin in zip(roots, twins) if twin]))
    p = _with_roots(*roots) * lead
    b, c = qes._sturm_jacobi(p)
    assert len(b) == len(roots) and len(c) == len(roots) - 1
    assert all(v > 0 for v in c)
    assert _continuant(b, c) == p.monic()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpmath, "polyroots", _no_polyroots)
        encs = isolate_real_roots(p, 30)
    assert len(encs) == len(roots)
    assert all(a.hi < b.lo for a, b in zip(encs, encs[1:]))
    for e, r in zip(encs, roots):
        assert e.lo <= r <= e.hi and e.width < Q(1, 10**40)


# The decoupled bands (c_1 = 0, so the band cannot be symmetrized) of
# M = omega = q = 1: gauge-search candidate index -> 50-digit reduced roots of
# the critical polynomial.  None closes its module, so none builds a block.
DECOUPLED_ROOTS = {
    ("free", 1, 3): [
        "-4.00000000000000000000000000000000000000000000000000",
        "0.00000000000000000000000000000000000000000000000000",
    ],
    ("free", 2, 3): [
        "-14.24621125123532109964281971194815405029439845074724",
        "0.00000000000000000000000000000000000000000000000000",
        "2.24621125123532109964281971194815405029439845074724",
    ],
    ("free", 3, 3): [
        "-26.03582432839582788696297917292650672655865339080226",
        "-6.73010568531907642209746885658843988763909017031268",
        "0.00000000000000000000000000000000000000000000000000",
        "8.76593001371490430906044802951494661419774356111494",
    ],
    ("field", 2, 2): [
        "-8.00000000000000000000000000000000000000000000000000",
        "0.00000000000000000000000000000000000000000000000000",
        "8.00000000000000000000000000000000000000000000000000",
    ],
}


@pytest.mark.parametrize("key", list(DECOUPLED_ROOTS), ids=lambda k: "%s-j%d-gauge%d" % k)
def test_decoupled_blocks_take_the_sturm_jacobi_matrix(key, monkeypatch):
    mode, j, index = key
    rec = gauge_search(natural(), j, mode)[index].recurrence
    assert rec.coefficients_at(1)[2] == 0
    family = polynomial_family(rec)
    assert family.jacobi is None
    monkeypatch.setattr(mpmath, "polyroots", _no_polyroots)
    roots = critical_roots(family)
    assert [decimal_fixed(e.midpoint, 50) for e in roots] == DECOUPLED_ROOTS[key]
    # alpha_{j+1} = 0 but gamma_{j+1} != 0: the roots solve nothing
    assert not rec.alpha(Q(j + 1)) and not rec.closes
    with pytest.raises(OpenModuleError, match=f"gamma_{j + 1} = {rec.gamma(Q(j + 1))}, not 0"):
        spectrum(natural(), j, mode, recurrence=rec)


def test_a_closing_block_with_a_negative_c_k_takes_the_sturm_jacobi_matrix(monkeypatch):
    # q < 0 makes c_1 = alpha_0 gamma_1 negative: the band cannot be symmetrized
    p = PhysicalParams(M=3, omega=5, q=-2)
    rec = derived_recurrence(p, 1, None, "free")
    assert rec.closes and polynomial_family(rec).jacobi is None
    monkeypatch.setattr(mpmath, "polyroots", _no_polyroots)
    spec = spectrum(p, 1, "free")
    assert [decimal_fixed(e.midpoint, 50) for e in spec.roots_reduced] == [
        "1.08633541039807939302374101454481439819315154146001",
        "58.91366458960192060697625898545518560180684845853999",
    ]


@pytest.mark.parametrize("coeffs, jacobi, seeds", [
    ([-1, 0, 1], ([Q(10**400), Q(0)], [Q(1)]), None),        # float overflow
    ([-1, 0, 1], ([Q(0), Q(0)], [Q(1)]), [0.0, 0.0]),        # p' = 0 at the seed
    ([-1, 0, 1], ([Q(0), Q(0)], [Q(1)]), [-1.0, np.inf]),    # non-finite seed
    ([1, 0, 1], ([Q(0), Q(0)], [Q(1)]), [-0.5, 0.5]),       # x^2 + 1: no convergence
], ids=["overflow", "zero-derivative", "non-finite", "no-convergence"])
def test_newton_centres_report_a_miss(coeffs, jacobi, seeds, monkeypatch):
    if seeds is not None:
        monkeypatch.setattr("numpy.linalg.eigvalsh", lambda a, **kw: np.array(seeds))
    assert qes._newton_centres(coeffs, jacobi, 200) is None


def test_newton_centres_round_to_the_nearest_grid_point():
    # x^2 - 2 on the grid n / 2^200: both centres are the nearest numerators
    with mpmath.workdps(80):
        want = int(mpmath.nint(mpmath.ldexp(mpmath.sqrt(2), 200)))
    assert qes._newton_centres([-2, 0, 1], ([Q(0), Q(0)], [Q(2)]), 200) == [-want, want]


# The 50-digit reduced roots of the `block` benchmark's top levels, as the
# mpf eigsy approximator certified them: any approximator must reproduce them.
GOLDEN_ROOTS = {
    ("field", 20, (Q(5, 2), Q(7, 3), Q(8, 3))): [
        "-471.05249163295050780905455642251022396143351808868872",
        "-412.53291001621912205655371775661878821706271214074813",
        "-356.16809084865693559776977615462729564427373457280029",
        "-302.05752136452268246056454686237590816762828864769538",
        "-250.31963366262641992812828090241003906348777284641151",
        "-201.09917897386140843604185056516685209269599874398750",
        "-154.57891312357931631711896230980482543960276208819171",
        "-110.99796791016979270800630705967645761460592548252701",
        "-70.67066481738374789158334148463443911667636065355236",
        "-33.88257495545159838861918735563440082338293382813622",
        "0.00000000000000000000000000000000000000000000000000",
        "33.88257495545159838861918735563440082338293382813622",
        "70.67066481738374789158334148463443911667636065355236",
        "110.99796791016979270800630705967645761460592548252701",
        "154.57891312357931631711896230980482543960276208819171",
        "201.09917897386140843604185056516685209269599874398750",
        "250.31963366262641992812828090241003906348777284641151",
        "302.05752136452268246056454686237590816762828864769538",
        "356.16809084865693559776977615462729564427373457280029",
        "412.53291001621912205655371775661878821706271214074813",
        "471.05249163295050780905455642251022396143351808868872",
    ],
    ("free", 16, (Q(7, 2), Q(5, 3), Q(9, 2))): [
        "-334.37448534166772834335978848400223472356727100810294",
        "-252.54170248269062453365624688885749190689190137608872",
        "-173.66459254528986163118722376626382770397826137087643",
        "-97.87010265180550202056489410762577677360246240425180",
        "-25.30318842586124434547935624529159376978360255319964",
        "43.86823148372825316410324926329831303998495533291053",
        "109.44606793392853905130000791139539678789581740571475",
        "171.19111336351355838634526502741335430061663656517081",
        "228.80576425123172879743310319700522386413048510431215",
        "281.90769945652596362282715017680111364618902275762908",
        "330.01982820684683967123784998619604388053718023664641",
        "372.93090267472202372358459756250352023544902836031419",
        "412.63364254286003018494431154554056881910403013300078",
        "453.94040074421056428586191381714071083376170796034808",
        "499.55772124415914150042141360356000125093371078099840",
        "549.49412143681194825252733459174398265046138805168666",
        "603.29191144210970356699464614277602890209286935712103",
    ],
}


@pytest.mark.parametrize("key", list(GOLDEN_ROOTS), ids=["field-j20", "free-j16"])
def test_golden_block_roots(key):
    mode, j, (M, omega, q) = key
    spec = spectrum(natural(M=M, omega=omega, q=q), j, mode)
    assert [decimal_fixed(e.midpoint, 50) for e in spec.roots_reduced] == GOLDEN_ROOTS[key]


def test_isolate_exact_roots_mirror():
    # an even polynomial with dyadic roots: exact enclosures on both sides
    roots = isolate_real_roots(QPoly([-36, 0, 1]))
    assert [(r.lo, r.hi) for r in roots] == [(-6, -6), (6, 6)]


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def test_spectrum_free_j0():
    spec = spectrum(natural(), 0, "free")
    assert spec.roots_physical[0].midpoint == -4
    assert spec.energies[0].subcritical  # 1 - 4 < 0 in natural units


def test_spectrum_free_j0_heavy_mass():
    p = PhysicalParams(M=5, omega=1, q=1)
    spec = spectrum(p, 0, "free")
    assert spec.roots_physical[0].midpoint == -20
    e = spec.energies[0]
    assert not e.subcritical
    with mpmath.workdps(40):
        assert abs(e.energy[0] - mpmath.sqrt(5)) < mpmath.mpf("1e-30")


def test_spectrum_sorted_and_sized():
    for mode in ("free", "field"):
        for j in (0, 2, 5):
            spec = spectrum(natural(), j, mode)
            mids = [e.midpoint for e in spec.roots_reduced]
            assert len(mids) == j + 1
            assert mids == sorted(mids)


def test_spectrum_published_source():
    spec = spectrum(natural(), 1, "free",
                    recurrence=published_recurrence(natural(), 1, "free"))
    mids = [e.midpoint for e in spec.roots_physical]
    assert mids == sorted(mids)
    assert spec.gauge is None
    # published free variable is already physical
    assert spec.ledger.shift == 0


def test_spectrum_refuses_a_recurrence_of_another_block():
    p = natural()
    free_j2 = derived_recurrence(p, 2, None, "free")
    assert spectrum(p, 2, "free", recurrence=free_j2).roots_reduced == \
        spectrum(p, 2, "free").roots_reduced
    # another level: 3 roots with 4 series coefficients each
    with pytest.raises(QesError, match="j = 2 free-mode recurrence cannot build the derived "
                                       "j = 3 free-mode block"):
        spectrum(p, 3, "free", recurrence=free_j2)
    # another mode: a free block carrying the field-mode B = 2
    with pytest.raises(QesError, match="cannot build the derived j = 2 field-mode block"):
        spectrum(p, 2, "field", recurrence=free_j2)
    # the published band of the level builds the published block
    published_j2 = published_recurrence(p, 2, "free")
    assert spectrum(p, 2, "free", recurrence=published_j2).source == "published"
    with pytest.raises(QesError, match="a published j = 2 free-mode recurrence cannot build"):
        spectrum(p, 3, "free", recurrence=published_j2)
    # a band of neither source, such as crosspath's module band
    with pytest.raises(QesError, match="a module j = 2 free-mode recurrence cannot build"):
        spectrum(p, 2, "free", recurrence=dataclasses.replace(free_j2, source="module"))


def test_spectrum_coefficient_vectors():
    spec = spectrum(natural(), 1, "field", digits=30)
    for row, enc in zip(spec.coefficients, spec.roots_reduced):
        assert mpmath.nstr(row[0], 30, strip_zeros=False) == "1.00000000000000000000000000000"
        # c_1 = x / (j+1) at the root
        want = float(enc.midpoint) / 2
        assert float(row[1]) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Wavefunctions and gauges
# ---------------------------------------------------------------------------


def test_wavefunction_field_j0_shape():
    p = natural()
    spec = spectrum(p, 0, "field")
    wf = wavefunction(spec, 0)
    assert wf.gauge.power == Q(-3, 2)
    assert wf.gauge.quartic == -1
    assert wf.gauge.gaussian == 0
    assert len(wf.coefficients) == 1
    assert wf.normalizability == "divergent-at-origin-and-infinity"


def test_wavefunction_negative_q_decays():
    p = natural(q=-1)
    spec = spectrum(p, 0, "field")
    wf = wavefunction(spec, 0)
    assert wf.gauge.quartic == 1
    assert wf.normalizability == "divergent-at-origin"


def test_wavefunction_reads_the_block_coefficients():
    spec = spectrum(natural(), 2, "free", digits=30)
    for i, row in enumerate(spec.coefficients):
        wf = wavefunction(spec, i)
        assert wf.gauge == spec.gauge
        assert wf.coefficients is row
        with mpmath.workdps(40):
            assert list(row) == run_recurrence(spec.recurrence, spec.roots_reduced[i].mpf(30),
                                               spec.j)


def test_wavefunction_of_a_published_block_raises():
    spec = spectrum(natural(), 1, "free",
                    recurrence=published_recurrence(natural(), 1, "free"))
    with pytest.raises(QesError, match="no gauge"):
        wavefunction(spec, 0)


def test_canonical_gauge_values():
    p = natural()
    g = canonical_gauge(p, 2, "free")
    assert (g.power, g.gaussian, g.quartic) == (Q(-3, 2), 1, -1)
    g = canonical_gauge(p, 3, "field")
    assert (g.power, g.gaussian, g.quartic) == (Q(-5, 2), 0, -1)


def test_gauge_search_annotations():
    p = natural()
    for mode, expect_consistent in (("free", True), ("field", False)):
        cands = gauge_search(p, 1, mode)
        reproducing = [c for c in cands if c.diagnostics["reproduces_published_ode"]]
        assert len(reproducing) == 1
        cand = reproducing[0]
        assert cand.gauge == canonical_gauge(p, 3, mode)
        # free: the published operator carries its constant; field: the
        # published form silently absorbs it into the eigenvalue symbol
        assert cand.diagnostics["constant_consistent"] is expect_consistent
        assert cand.recurrence.closes


def test_gauge_search_regular_branch_never_truncates():
    # no regular-branch band closes, so none truncates the series at degree j
    cands = gauge_search(natural(), 1, "field")
    regular = [c for c in cands if c.gauge.power > 0]
    assert regular
    for c in regular:
        assert not c.recurrence.closes


@settings(max_examples=16, deadline=None, derandomize=True)
@given(M=_positive, c=_positive, hbar=_positive, omega=_positive, q=_positive,
       negative_q=st.booleans())
def test_no_regular_candidate_closes_its_module(M, c, hbar, omega, q, negative_q):
    # a block closes its module when gamma(j + 1) = 0.  At r = 0 the exponents are
    # s = 1/2 +- m, and on the regular branch s = m + 1/2 no block closes, so every
    # closing one diverges at the origin: no block eigenfunction is a bound state.
    # In closed form gamma is linear in k with the root n* + 1, where
    # n* = (b^2 - V_2 - hbar a (2s + 3)) / (4 hbar a) and V_2 is the r^2
    # coefficient of V: the regular branch gives n* = -m at a = q, -2 at a = -q
    p = PhysicalParams(M=M, c=c, hbar=hbar, omega=omega, q=-q if negative_q else q)
    closing = 0
    for mode in ("free", "field"):
        for j in range(7):
            v2 = potential_coefficients(p.for_mode(mode), j + 2, mode)[2]
            for cand in gauge_search(p, j, mode):
                g, gamma = cand.gauge, cand.recurrence.gamma
                n_star = (g.gaussian**2 - v2 - hbar * g.quartic * (2 * g.power + 3)) / (
                    4 * hbar * g.quartic)
                assert gamma.degree == 1 and not gamma(n_star + 1), (mode, j, g)
                if g.power > 0:
                    assert n_star == (-(j + 2) if g.quartic == p.q else -2), (mode, j, g)
                closes = not gamma(Q(j + 1))
                assert closes == (n_star == j), (mode, j, g)
                assert not (closes and cand.gauge.power == j + Q(5, 2)), (mode, j, cand.gauge)
                if closes:
                    closing += 1
                    assert cand.gauge.normalizability.startswith(
                        "divergent-at-origin"), (mode, j, cand.gauge)
    assert closing


@settings(max_examples=8, deadline=None, derandomize=True)
@given(M=_positive, c=_positive, hbar=_positive, omega=_positive, q=_positive,
       negative_q=st.booleans())
def test_quotient_identity_holds_iff_the_band_closes(M, c, hbar, omega, q, negative_q):
    # F = sum_k P_k(x) rho^k with the unscaled P_0..P_j: A F = x F holds in
    # Q[x]/(P_{j+1}) exactly for the candidates whose band closes, so closure
    # alone says whether the critical roots solve the radial equation
    p = PhysicalParams(M=M, c=c, hbar=hbar, omega=omega, q=-q if negative_q else q)
    x = QPoly.x()
    split = [0, 0]
    for mode in ("free", "field"):
        for j in range(5):
            for cand in gauge_search(p, j, mode):
                rec = cand.recurrence
                *fs, crit = run_recurrence(rec, x, j + 1)
                crit = crit.monic()
                image = rec.operator.apply_coeffs(fs)
                holds = all(not (g - (x * fs[i] if i < len(fs) else QPoly())) % crit
                            for i, g in enumerate(image))
                assert holds == rec.closes, (mode, j, cand.gauge)
                split[holds] += 1
    assert all(split)


def test_gauge_search_includes_decaying_origin_regular_candidate():
    cands = gauge_search(natural(), 1, "field", include_failures=True)
    classes = {(c.gauge.power > 0, c.gauge.quartic > 0): c for c in cands}
    cand = classes[(True, True)]  # s = m + 1/2, quartic decaying
    assert cand.gauge.normalizability == "normalizable"


# ---------------------------------------------------------------------------
# Ledgers
# ---------------------------------------------------------------------------


def test_ledger_direct_agreement():
    for p in (natural(), natural(M=Q(2, 3), omega=Q(5, 7), q=Q(-1, 2), hbar=Q(3, 2))):
        for mode in ("free", "field"):
            pp = p.with_qes_field() if mode == "field" else p
            for j in (0, 2):
                g = canonical_gauge(pp, j + 2, mode)
                ledger = derived_recurrence(pp, j, g, mode).ledger
                assert ledger.shift == ledger_shift_direct(pp, j + 2, mode, g)


def test_field_ledger_value():
    p = natural()
    ledger = derived_recurrence(p, 0, None, "field").ledger
    assert ledger.shift == -4  # 4 hbar M omega c^2 (1 - m) at m = 2
