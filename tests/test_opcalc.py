"""Operator-calculus unit tests: exact algebra, gauge, variable change, bands."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic import opcalc, qes
from sextic.model import PhysicalParams
from sextic.opcalc import (DiffOperator, GaugeAnsatz, GaugeError, LaurentPoly,
                           NotQesError, OperatorError, ParityError, QPoly,
                           RepresentationError, SpectralLedger, change_variable_sqrt,
                           commutator, compose, gauge_conjugate, monomial_matrix,
                           series_recurrence)


def D(var="x"):
    return DiffOperator.derivative(var)


def mult(entries, var="x"):
    return DiffOperator.multiplication(LaurentPoly(entries), var)


# ---------------------------------------------------------------------------
# QPoly
# ---------------------------------------------------------------------------


def test_qpoly_arithmetic():
    p = QPoly([1, 2, 3])
    q = QPoly([0, -2])
    assert p + q == QPoly([1, 0, 3])
    assert p * q == QPoly([0, -2, -4, -6])
    assert (p - p).degree == -1
    assert p(Q(1, 2)) == Q(1) + 1 + Q(3, 4)
    assert p.derivative() == QPoly([2, 6])


def test_qpoly_divmod_and_mod():
    p = QPoly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    d = QPoly([-2, 1])
    quot, rem = p.divmod(d)
    assert rem.degree == -1
    assert quot * d == p
    assert QPoly([1, 1]) % QPoly([0, 1]) == QPoly([1])


def test_qpoly_compose_linear():
    p = QPoly([0, 0, 1])  # x^2
    assert p.shifted(3) == QPoly([9, 6, 1])
    assert p.shifted(Q(-1, 2)) == QPoly([Q(1, 4), -1, 1])


def test_qpoly_rejects_floats():
    with pytest.raises(TypeError):
        QPoly([0.5])


# the kernels as plain per-coefficient Fraction loops: the integer kernels of
# QPoly must return exactly these Fractions

def _ref_mul(p, q):
    if not p.c or not q.c:
        return QPoly()
    out = [Q(0)] * (len(p.c) + len(q.c) - 1)
    for i, a in enumerate(p.c):
        for j, b in enumerate(q.c):
            out[i + j] += a * b
    return QPoly(out)


def _ref_call(p, x):
    acc = Q(0)
    for a in reversed(p.c):
        acc = acc * x + a
    return acc


def _ref_shifted(p, delta):
    out, arg = QPoly(), QPoly([Q(delta), 1])
    for a in reversed(p.c):
        out = _ref_mul(out, arg) + a
    return out


def _ref_divmod(p, q):
    rem, quot = list(p.c), [Q(0)] * max(0, len(p.c) - q.degree)
    while len(rem) > q.degree:
        top = rem.pop()
        if top:
            k = len(rem) - q.degree
            quot[k] = top / q.leading
            for i, b in enumerate(q.c[:-1]):
                rem[k + i] -= quot[k] * b
    return QPoly(quot), QPoly(rem)


_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_polys = st.lists(_rationals | st.just(Q(0)), max_size=13).map(QPoly)  # degree -1..12
_points = st.integers(-10**4, 10**4) | _rationals


def _exactly(got, want):
    values = got.c if isinstance(got, QPoly) else [got]
    return got == want and all(type(v) is Q for v in values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=_polys, q=_polys, x=_points)
def test_integer_kernels_equal_the_fraction_loops(p, q, x):
    span = range(max(len(p.c), len(q.c)))
    assert _exactly(p + q, QPoly([p.coeff(i) + q.coeff(i) for i in span]))
    assert _exactly(p - q, QPoly([p.coeff(i) - q.coeff(i) for i in span]))
    assert _exactly(p + x, QPoly([p.coeff(0) + x] + p.c[1:]))
    assert _exactly(p * q, _ref_mul(p, q))
    assert _exactly(p(x), _ref_call(p, x))
    assert _exactly(p.shifted(x), _ref_shifted(p, x))
    if q:
        quot, rem = p.divmod(q)
        want_quot, want_rem = _ref_divmod(p, q)
        assert _exactly(quot, want_quot) and _exactly(rem, want_rem)
        assert _exactly(p % q, want_rem)
        assert quot * q + rem == p
    else:
        with pytest.raises(ZeroDivisionError):
            p.divmod(q)


_laurents = st.dictionaries(st.integers(-4, 6), _rationals | st.just(Q(0)), max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_laurents, b=_laurents)
def test_laurent_sum_and_product_equal_the_fraction_loops(a, b):
    def reference(terms):
        d = {}
        for e, v in terms:
            d[e] = d.get(e, Q(0)) + v
        return {e: v for e, v in d.items() if v}

    p, q = LaurentPoly(a), LaurentPoly(b)
    assert p.d == reference(a.items())
    assert (p + q).d == reference([*a.items(), *b.items()])
    assert (p * q).d == reference([(e1 + e2, u * v) for e1, u in a.items() for e2, v in b.items()])


# ---------------------------------------------------------------------------
# Composition and commutators
# ---------------------------------------------------------------------------


def test_compose_product_rule():
    # (d/dx) o (x .) = x d/dx + 1
    got = compose(D(), mult({1: 1}))
    assert got == DiffOperator({1: LaurentPoly({1: 1}), 0: LaurentPoly({0: 1})}, "x")


def test_compose_second_derivative():
    assert compose(D(), D()) == DiffOperator.derivative("x", order=2)


def test_commutator_derivative_x_is_identity():
    assert commutator(D(), mult({1: 1})) == DiffOperator({0: 1}, "x")


def _sl2_ops(j):
    raising = DiffOperator({1: LaurentPoly({2: 1}), 0: LaurentPoly({1: -j})}, "rho")
    lowering = DiffOperator.derivative("rho")
    cartan = DiffOperator({1: LaurentPoly({1: 1}), 0: LaurentPoly({0: Q(-j, 2)})}, "rho")
    return raising, lowering, cartan


def _monomial_image_oracle(name, j, k):
    # closed-form ladder action, independent of the compose machinery
    if name == "raising":
        return {k + 1: Q(k - j)}
    if name == "lowering":
        return {k - 1: Q(k)} if k else {}
    return {k: Q(k) - Q(j, 2)}


@pytest.mark.parametrize("j", range(13))
def test_ladder_commutators_against_monomial_oracle(j):
    raising, lowering, cartan = _sl2_ops(j)
    ops = {"raising": raising, "lowering": lowering, "cartan": cartan}
    for k in range(0, j + 4):
        mono = QPoly.monomial(k)
        for name, op in ops.items():
            want = _monomial_image_oracle(name, j, k)
            got = op.image_of_monomial(k)
            assert got == {e: v for e, v in want.items() if v}, (name, j, k)
        # [cartan, raising] rho^k via the oracle: chain closed-form actions
        lhs = {}
        for e, v in _monomial_image_oracle("raising", j, k).items():
            for e2, v2 in _monomial_image_oracle("cartan", j, e).items():
                lhs[e2] = lhs.get(e2, Q(0)) + v * v2
        for e, v in _monomial_image_oracle("cartan", j, k).items():
            for e2, v2 in _monomial_image_oracle("raising", j, e).items():
                lhs[e2] = lhs.get(e2, Q(0)) - v * v2
        lhs = {e: v for e, v in lhs.items() if v}
        assert commutator(cartan, raising).image_of_monomial(k) == lhs
        assert lhs == {e: v for e, v in
                       _monomial_image_oracle("raising", j, k).items() if v}


@pytest.mark.parametrize("j", range(0, 13, 3))
def test_raising_lowering_commutator_sign(j):
    raising, lowering, cartan = _sl2_ops(j)
    # the sign is fixed by this realization: [J+, J-] = -2 J0
    assert not (commutator(raising, lowering) + 2 * cartan)


def test_lowering_raising_on_top_vector():
    raising, lowering, _ = _sl2_ops(2)
    assert raising.apply(QPoly.monomial(2)).degree == -1
    assert compose(lowering, raising).apply(QPoly.monomial(2)).degree == -1


def test_jacobi_identity_random_operators():
    rng = random.Random(7)

    def rand_op():
        terms = {}
        for order in range(rng.randint(1, 3)):
            terms[order] = LaurentPoly({e: Q(rng.randint(-4, 4)) for e in range(4)})
        return DiffOperator(terms, "x")

    for _ in range(8):
        a, b, c = rand_op(), rand_op(), rand_op()
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        assert not total


def test_compose_laurent_floor():
    inv2 = mult({-2: 1})
    with pytest.raises(RepresentationError):
        compose(inv2, inv2)


# ---------------------------------------------------------------------------
# apply / monomial_matrix
# ---------------------------------------------------------------------------


def test_apply_examples():
    raising, lowering, cartan = _sl2_ops(2)
    assert raising.apply(QPoly.monomial(2)) == QPoly()
    assert cartan.apply(QPoly.monomial(1)) == QPoly()
    assert lowering.apply(QPoly.monomial(3)) == QPoly.monomial(2, 3)


def test_apply_laurent_needs_valuation():
    with pytest.raises(RepresentationError):
        mult({-2: 1}).apply(QPoly([0, 1]))
    assert mult({-2: 1}).apply(QPoly.monomial(2)) == QPoly([1])


def test_monomial_matrix_cartan_diagonal():
    _, _, cartan = _sl2_ops(2)
    assert monomial_matrix(cartan, 2) == [[-1, 0, 0], [0, 0, 0], [0, 0, 1]]


def test_monomial_matrix_raising_lower_shift():
    raising, _, _ = _sl2_ops(1)
    assert monomial_matrix(raising, 1) == [[0, 0], [-1, 0]]


def test_monomial_matrix_invariance_failure_names_monomial():
    with pytest.raises(Exception, match="rho\\^1"):
        monomial_matrix(_sl2_ops(3)[0], 1)


# ---------------------------------------------------------------------------
# Gauge conjugation
# ---------------------------------------------------------------------------


def _conjugate_by_powers(a, g, hbar, require_reduced=True):
    """Reference conjugation by operator powers: sum_k c_k (D + w)^k, each power
    of D + w built by :func:`compose`.  With ``require_reduced`` a centrifugal
    residue raises :class:`GaugeError`; inverse gauges legitimately reintroduce
    it, so round trips pass ``require_reduced=False``."""
    hbar = Q(hbar)
    if not a.parity_consistent():
        raise ParityError("input operator mixes parities")
    shifted_d = DiffOperator({1: LaurentPoly.const(1), 0: g.log_derivative(hbar)}, a.var)
    powers = [DiffOperator({0: 1}, a.var)]
    for _ in range(a.order):
        powers.append(compose(powers[-1], shifted_d))
    out = DiffOperator({}, a.var)
    for k, c in a.terms.items():
        out = out + compose(DiffOperator.multiplication(c, a.var), powers[k])
    mult = out.coeff(0)
    residue = LaurentPoly({e: v for e, v in mult.d.items() if e < 0})
    if require_reduced and residue:
        raise GaugeError(f"centrifugal residue after conjugation: {residue!r}", residue=residue)
    odd = LaurentPoly({e: v for k, c in out.terms.items() for e, v in c.d.items() if (e - k) % 2})
    if odd:
        raise GaugeError(f"parity-violating residue after conjugation: {odd!r}", residue=odd)
    const = mult.constant_term
    return (out - DiffOperator.multiplication(const, a.var),
            SpectralLedger(shift=const, provenance=(f"gauge {g.label()}",)))


def test_gauge_conjugate_harmonic_ground_form():
    # -D^2 + r^2 under exp(-r^2/2): -D^2 + 2 r D, swept constant 1
    a = DiffOperator({2: LaurentPoly({0: -1}), 0: LaurentPoly({2: 1})}, "r")
    g = GaugeAnsatz(0, 1, 0)
    tilde, ledger = gauge_conjugate(a, g, 1)
    assert tilde == DiffOperator({2: LaurentPoly({0: -1}), 1: LaurentPoly({1: 2})}, "r")
    assert ledger.shift == 1


def test_gauge_conjugate_oscillator_m2():
    from sextic.model import PhysicalParams, radial_operator
    p = PhysicalParams(M=1, omega=1, q=0)
    a = radial_operator(p, 2, "free")
    tilde, ledger = gauge_conjugate(a, GaugeAnsatz(Q(5, 2), 1, 0), 1)
    assert ledger.shift == 4
    assert tilde.coeff(0) == LaurentPoly()
    assert tilde.coeff(1) == LaurentPoly({-1: -5, 1: 2})


def test_gauge_conjugate_residue_error():
    # indicial mismatch leaves a 1/r^2 residue that rides on the exception
    a = DiffOperator({2: LaurentPoly({0: -1}), 0: LaurentPoly({-2: Q(15, 4)})}, "r")
    with pytest.raises(GaugeError) as err:
        gauge_conjugate(a, GaugeAnsatz(1, 0, 0), 1)
    assert err.value.residue is not None


def test_gauge_roundtrip_restores_operator_and_ledger():
    from sextic.model import PhysicalParams, radial_operator
    p = PhysicalParams(M=1, omega=Q(2, 3), q=Q(3, 5))
    a = radial_operator(p, 3, "free")
    g = GaugeAnsatz(Q(-5, 2), Q(2, 3), Q(-3, 5))
    t1, l1 = gauge_conjugate(a, g, p.hbar)
    # the inverse gauge reintroduces the centrifugal term by design
    t2, l2 = _conjugate_by_powers(t1, GaugeAnsatz(-g.power, -g.gaussian, -g.quartic), p.hbar,
                                  require_reduced=False)
    shift = l1.shift + l2.shift
    assert t2 + DiffOperator.multiplication(shift, "r") == a
    # the round-trip sweep accounts exactly for the operator's own constant
    assert shift == a.coeff(0).constant_term


def test_gauge_roundtrip_identity_ledger_for_constant_free_operator():
    a = DiffOperator({2: LaurentPoly({0: -1}), 0: LaurentPoly({2: 1, 4: 2})}, "r")
    g = GaugeAnsatz(0, Q(1, 3), Q(2, 5))
    t1, l1 = gauge_conjugate(a, g, 1)
    t2, l2 = _conjugate_by_powers(t1, GaugeAnsatz(-g.power, -g.gaussian, -g.quartic), 1,
                                  require_reduced=False)
    assert t2 == a
    assert l1.shift + l2.shift == 0


_small = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


def _laurent(draw, exponents):
    return LaurentPoly({e: draw(_small) for e in exponents if draw(st.booleans())})


@st.composite
def _conjugation_cases(draw):
    """A random parity-consistent operator of order <= 2, a gauge and hbar.  In
    half the draws the 1/r^2 coefficient of a0 cancels the gauge's centrifugal
    residue, so both outcomes (a reduced operator, a GaugeError) occur."""
    order = draw(st.integers(0, 2))
    a2 = _laurent(draw, (-2, 0, 2)) if order == 2 else LaurentPoly()
    a1 = _laurent(draw, (-1, 1, 3)) if order >= 1 else LaurentPoly()
    a0 = _laurent(draw, (-2, 0, 2, 4, 6))
    g = GaugeAnsatz(Q(draw(st.integers(-5, 5)), 2), draw(_small), draw(_small))
    if draw(st.booleans()):
        s = g.power
        a0 = a0 - LaurentPoly({-2: a0.coeff(-2) + a1.coeff(-1) * s + a2.coeff(0) * s * (s - 1)})
    a = DiffOperator({2: a2, 1: a1, 0: a0}, "r")
    return a, g, draw(st.builds(Q, st.integers(1, 5), st.integers(1, 3)))


def _outcome(conjugate, *args):
    try:
        return conjugate(*args)
    except OperatorError as err:
        return type(err), getattr(err, "residue", None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_conjugation_cases())
def test_closed_form_conjugation_equals_operator_powers(case):
    # same operator and ledger, or the same error with the same residue
    assert _outcome(gauge_conjugate, *case) == _outcome(_conjugate_by_powers, *case)


def test_gauge_conjugate_refuses_order_3():
    with pytest.raises(OperatorError, match="order <= 2"):
        gauge_conjugate(DiffOperator({3: LaurentPoly({1: 1})}, "r"), GaugeAnsatz(0, 1, 0), 1)


def test_derived_recurrence_composes_no_operators(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(opcalc, "compose", counting)
    monkeypatch.setattr(qes, "compose", counting)
    p = PhysicalParams(M=1, omega=Q(2, 3), q=Q(3, 5))
    for mode in ("free", "field"):
        for j in range(4):
            qes.derived_recurrence(p, j, None, mode)
    assert calls == []


# ---------------------------------------------------------------------------
# Change of variable
# ---------------------------------------------------------------------------


def test_change_variable_second_derivative():
    a = DiffOperator.derivative("r", order=2)
    got = change_variable_sqrt(a, 2)
    assert got == DiffOperator({2: LaurentPoly({1: 1}),
                                1: LaurentPoly({0: Q(1, 2)})}, "rho")


def test_change_variable_multiplications():
    assert change_variable_sqrt(mult({2: 1}, "r"), 2) == \
        DiffOperator({0: LaurentPoly({1: 4})}, "rho")
    assert change_variable_sqrt(mult({6: 1}, "r"), 2) == \
        DiffOperator({0: LaurentPoly({3: 64})}, "rho")


def test_change_variable_parity_error():
    with pytest.raises(ParityError):
        change_variable_sqrt(mult({1: 1}, "r"), 2)


def test_change_variable_preserves_application():
    # substituting then applying equals applying then substituting
    rng = random.Random(11)
    scale = Q(2)
    for _ in range(6):
        a = DiffOperator({
            2: LaurentPoly({0: Q(rng.randint(-3, 3)), 2: Q(rng.randint(-3, 3))}),
            1: LaurentPoly({1: Q(rng.randint(-3, 3)), 3: Q(rng.randint(-3, 3))}),
            0: LaurentPoly({0: Q(rng.randint(-3, 3)), 2: Q(rng.randint(-3, 3)),
                            4: Q(rng.randint(-3, 3))}),
        }, "r")
        tilde = change_variable_sqrt(a, scale)
        for deg in range(0, 5):
            p_rho = QPoly([Q(rng.randint(-3, 3)) for _ in range(deg + 1)])
            # p as a polynomial in r: substitute rho = r^2 / scale^2
            p_r = QPoly([0])
            for i, coeff in enumerate(p_rho.c):
                p_r = p_r + coeff * QPoly.monomial(2 * i, Q(1) / scale ** (2 * i))
            lhs = a.apply(p_r)
            rhs_rho = tilde.apply(p_rho)
            rhs_r = QPoly([0])
            for i, coeff in enumerate(rhs_rho.c):
                rhs_r = rhs_r + coeff * QPoly.monomial(2 * i, Q(1) / scale ** (2 * i))
            assert lhs == rhs_r


# ---------------------------------------------------------------------------
# Series bands
# ---------------------------------------------------------------------------


def test_series_recurrence_euler_band():
    k = QPoly.x()
    alpha, beta, gamma = series_recurrence(DiffOperator({2: LaurentPoly({1: 1})}, "rho"))
    assert alpha == (k + 1) * k
    assert beta == QPoly()
    assert gamma == QPoly()
    alpha_neg, _, _ = series_recurrence(DiffOperator({2: LaurentPoly({1: -1})}, "rho"))
    assert alpha_neg == -(k + 1) * k


def test_series_recurrence_band_violation():
    with pytest.raises(NotQesError) as err:
        series_recurrence(mult({2: 1}, "rho"))
    assert err.value.offending == (2, 0, 1)
    # rho^2 D^3 shifts by -1, on the band, but alpha would be cubic
    with pytest.raises(OperatorError, match="order <= 2"):
        series_recurrence(DiffOperator({3: LaurentPoly({2: 1})}, "rho"))


def test_series_recurrence_centrifugal_residue():
    with pytest.raises(NotQesError, match="f_0"):
        series_recurrence(mult({-1: 1}, "rho"))


def test_canonical_text_deterministic():
    op = DiffOperator({2: LaurentPoly({1: -1}),
                       1: LaurentPoly({0: 2, 2: -16}),
                       0: LaurentPoly({1: 16})}, "rho")
    assert op.canonical_text() == "(-1*rho)*D^2 + (2 + -16*rho^2)*D + (16*rho)"
