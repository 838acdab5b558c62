"""Model-layer tests: potentials, radial operators, the spectral map, config."""

from fractions import Fraction as Q

import pytest

from sextic.model import (ConfigError, DomainError, PhysicalParams,
                          coupling_constant, energy_from_epsilon2,
                          eta_squared, parse_rational, potential_coefficients,
                          qes_field, radial_operator)
from sextic.opcalc import LaurentPoly


def natural(**kw):
    base = dict(M=1, c=1, hbar=1, omega=1, q=1)
    base.update(kw)
    return PhysicalParams(**base)


def potential_free(params, m, r):
    """V(r) of the field-free oscillator, summed from its exact coefficients."""
    return sum(v * Q(r) ** e for e, v in potential_coefficients(params, m, "free").items())


def potential_magnetic(params, m, r, convention="consistent"):
    """V(r) at the params' field B, summed from its exact coefficients."""
    cf = potential_coefficients(params, m, "field", convention)
    return sum(v * Q(r) ** e for e, v in cf.items())


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


def test_potential_free_values():
    assert potential_free(natural(q=0), 2, 1) == Q(19, 4)       # 3.75 + 1
    assert potential_free(natural(), 2, 1) == Q(15, 4)          # 3.75 + 1 - 2 + 1
    assert potential_free(natural(), 3, 2) == Q(739, 16)        # 46.1875
    # 15 + 1/4 - 1/8 + 1/64
    assert potential_free(natural(), 2, Q(1, 2)) == Q(969, 64)


def test_potential_magnetic_printed_values():
    p = natural(B=2)
    assert potential_magnetic(p, 3, 1, convention="printed") == Q(63, 4)    # 15.75
    assert potential_magnetic(p, 3, 2, convention="printed") == Q(1251, 16)  # 78.1875


def test_potential_magnetic_convention_flag():
    p = natural(B=2)
    printed = potential_magnetic(p, 3, 1, convention="printed")
    consistent = potential_magnetic(p, 3, 1)
    # the two conventions differ by exactly twice the field constant
    assert printed - consistent == 2 * p.hbar * p.e_charge * p.B * (3 - 1)


def test_potential_magnetic_needs_field():
    with pytest.raises(ConfigError):
        potential_magnetic(natural(), 3, 1)


def test_quartic_coefficient_vanishes_at_special_field_symbolically():
    for M, omega, e in ((Q(1), Q(1), Q(1)), (Q(1, 2), Q(3), Q(1)), (Q(5, 3), Q(2, 7), Q(4))):
        p = PhysicalParams(M=M, omega=omega, q=Q(7, 5), e_charge=e)
        p = p.with_qes_field()
        cf = potential_coefficients(p, 4, "field")
        assert cf[4] == 0  # identically, not pointwise


# ---------------------------------------------------------------------------
# Radial operators
# ---------------------------------------------------------------------------


def test_radial_operator_free_q0():
    op = radial_operator(natural(q=0), 2, "free")
    assert op.coeff(2) == LaurentPoly({0: -1})
    assert op.coeff(0) == LaurentPoly({-2: Q(15, 4), 2: 1, 0: -2})


def test_radial_operator_field_m2():
    op = radial_operator(natural(), 2, "field")
    assert op.coeff(0) == LaurentPoly({-2: Q(15, 4), 6: 1, 0: -4})


def test_radial_operator_field_m3():
    op = radial_operator(natural(), 3, "field")
    assert op.coeff(0) == LaurentPoly({-2: Q(35, 4), 6: 1, 2: 2, 0: -8})


def test_radial_operator_field_pins_special_field():
    with pytest.raises(ConfigError):
        radial_operator(natural(B=3), 2, "field")
    # absent B is pinned automatically
    op = radial_operator(natural(), 2, "field")
    assert op.coeff(0).coeff(4) == 0


def test_radial_operator_coefficients_even():
    for mode in ("free", "field"):
        op = radial_operator(natural(), 5, mode)
        assert op.parity_consistent()
        assert all(e % 2 == 0 for e in op.coeff(0).d)


def test_q0_oscillator_identity():
    # q = 0, m = 2 natural units: V is exactly the planar oscillator form
    cf = potential_coefficients(natural(q=0), 2, "free")
    assert cf == {-2: Q(15, 4), 2: Q(1), 4: Q(0), 6: Q(0), 0: Q(0)}


def test_coupling_constant():
    assert coupling_constant(natural(), 2) == -2
    assert coupling_constant(natural(), 3) == -4


# ---------------------------------------------------------------------------
# Special field, eta^2, energies
# ---------------------------------------------------------------------------


def test_qes_field_values():
    assert qes_field(natural()) == 2
    assert qes_field(natural(e_charge=2)) == 1
    assert qes_field(PhysicalParams(M=Q(1, 2), omega=3, q=1)) == 3
    with pytest.raises(DomainError):
        qes_field(natural(e_charge=0))


def test_eta_squared_values():
    assert eta_squared(natural()) == 16
    assert eta_squared(natural(q=2)) == 32
    assert eta_squared(natural(q=0)) == 0
    assert eta_squared(PhysicalParams(M=1, c=2, hbar=Q(1, 2), q=3)) == 96


def test_energy_pairs():
    sv = energy_from_epsilon2(natural(), 0)
    assert sv.energy == (1, -1) and sv.exact
    sv = energy_from_epsilon2(PhysicalParams(M=2, omega=1, q=1), 5)
    assert sv.energy == (3, -3)
    sv = energy_from_epsilon2(natural(), -4)
    assert sv.subcritical and sv.energy is None


def test_energy_relation_exact_or_bounded():
    p = natural()
    # rational square root: exact identity
    sv = energy_from_epsilon2(p, Q(-3, 4))
    assert sv.energy[0] ** 2 - p.M**2 * p.c**4 == Q(-3, 4)
    # irrational: bounded at working precision
    import mpmath
    sv = energy_from_epsilon2(p, 1, digits=50)
    assert not sv.exact
    with mpmath.workdps(60):
        assert abs(sv.energy[0] ** 2 - 1 - 1) < mpmath.mpf(10) ** -48


# ---------------------------------------------------------------------------
# Parameters and parsing
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(M=0)
    with pytest.raises(DomainError):
        PhysicalParams(M=1, omega=-1)
    with pytest.raises(DomainError):
        natural(q=0).require_qes()
    natural(q=Q(-2, 3)).require_qes()  # either sign is fine


def test_params_from_mapping_exact():
    p = PhysicalParams.from_mapping({"M": "0.25", "omega": "2/3", "q": "-1", "e": "2"})
    assert p.M == Q(1, 4) and p.omega == Q(2, 3) and p.q == -1 and p.e_charge == 2


def test_parse_rational():
    assert parse_rational("0.2") == Q(1, 5)
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational(" 7 ") == 7
