"""Physical parameters, radial potentials and the spectral map of the model.

The planar relativistic oscillator studied here carries a sextic deformation
of strength ``q``; after separating the angular phase ``exp(-i m phi)`` the
upper spinor component satisfies a one-dimensional eigenproblem

    eps^2 f(r) = -c^2 hbar^2 f''(r) + c^2 [V(r) + coupling] f(r)

with ``eps^2 = E^2 - M^2 c^4``.  All quantities are exact rationals; unit
conventions are free (the test profile uses hbar = c = 1).  The field-constant
sign is a field of :class:`PhysicalParams`, read only by :func:`potential_coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

import mpmath

from .opcalc import DiffOperator, LaurentPoly, Q

__all__ = [
    "PhysicalParams",
    "SpectralValue",
    "ConfigError",
    "DomainError",
    "potential_coefficients",
    "radial_operator",
    "coupling_constant",
    "qes_field",
    "energy_from_epsilon2",
    "eta_squared",
    "parse_rational",
]

#: The values of ``PhysicalParams.convention``.  The published magnetic potential
#: carries +hbar e B (m-1); at the special field B = 2 M omega / e that sign
#: disagrees with the published reduced operator, whose constant is
#: 4 hbar M omega (1-m).  "consistent" (default) flips the sign so the two
#: agree; "printed" keeps the sign as published, for the comparison report.
MAGNETIC_CONVENTIONS = ("consistent", "printed")


class ConfigError(ValueError):
    """Missing or inconsistent configuration."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


def parse_rational(text) -> Fraction:
    """Exact Fraction from a decimal or p/q string ('0.25', '3/4', '2').

    Malformed text and a zero denominator raise :class:`ConfigError`.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Q(text)
    try:
        return Q(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants, stored exactly.

    M:       rest mass (energy / c^2 units), > 0
    c:       speed of light, > 0
    hbar:    reduced Planck constant, > 0
    omega:   oscillator frequency, >= 0
    q:       sextic deformation strength; either sign, but the algebraic
             block degenerates at q = 0
    e_charge: particle charge (eB is treated as one signed product)
    B:       magnetic field, or None for the field-free configuration
    convention: sign of the field constant, one of MAGNETIC_CONVENTIONS
    """

    M: Fraction
    c: Fraction = Q(1)
    hbar: Fraction = Q(1)
    omega: Fraction = Q(1)
    q: Fraction = Q(1)
    e_charge: Fraction = Q(1)
    B: Optional[Fraction] = None
    convention: str = "consistent"

    def __post_init__(self):
        for name in ("M", "c", "hbar", "omega", "q", "e_charge"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
        if self.B is not None:
            object.__setattr__(self, "B", parse_rational(self.B))
        if self.M <= 0 or self.c <= 0 or self.hbar <= 0:
            raise DomainError("M, c, hbar must be positive")
        if self.omega < 0:
            raise DomainError("omega must be non-negative")
        if self.convention not in MAGNETIC_CONVENTIONS:
            raise ConfigError(f"unknown field-constant convention {self.convention!r}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "PhysicalParams":
        known = {"M": "M", "c": "c", "hbar": "hbar", "omega": "omega",
                 "q": "q", "e": "e_charge", "e_charge": "e_charge", "B": "B"}
        kwargs = {}
        for key, value in mapping.items():
            if key in known and value is not None:
                kwargs[known[key]] = parse_rational(value)
        if "M" not in kwargs:
            kwargs["M"] = Q(1)
        return cls(**kwargs)

    def require_qes(self) -> None:
        if self.q == 0:
            raise DomainError("q = 0: the sextic term is absent and the algebraic block degenerates")

    def with_qes_field(self) -> "PhysicalParams":
        return replace(self, B=qes_field(self))

    def for_mode(self, mode: str) -> "PhysicalParams":
        """The parameters ``mode`` runs at: field mode pins an unset B to the
        special field 2 M omega / e; anything else is returned unchanged."""
        return self.with_qes_field() if mode == "field" and self.B is None else self

    def as_dict(self) -> dict[str, str]:
        """The parameters as strings; ``B`` only when set and ``convention`` only when
        it is not the default ``consistent``."""
        d = {"M": str(self.M), "c": str(self.c), "hbar": str(self.hbar),
             "omega": str(self.omega), "q": str(self.q), "e": str(self.e_charge)}
        if self.B is not None:
            d["B"] = str(self.B)
        if self.convention != MAGNETIC_CONVENTIONS[0]:
            d["convention"] = self.convention
        return d


@dataclass(frozen=True)
class SpectralValue:
    """The energy pair of one value of eps^2 = E^2 - M^2 c^4, when real.

    ``energy`` is ``(+E, -E)`` (Fraction when the square root is rational,
    mpmath otherwise) or None when M^2 c^4 + eps^2 < 0, in which case the
    subcritical flag is set instead of failing.
    """

    energy: Optional[tuple] = None
    subcritical: bool = False
    exact: bool = True


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None


def energy_from_epsilon2(params: PhysicalParams, x, digits: int = 50) -> SpectralValue:
    """Map eps^2 to the energy pair +-sqrt(M^2 c^4 + eps^2).

    Values with M^2 c^4 + eps^2 < 0 are flagged subcritical and reported,
    never dropped.
    """
    x = parse_rational(x) if not isinstance(x, Fraction) else x
    e2 = params.M**2 * params.c**4 + x
    if e2 < 0:
        return SpectralValue(None, subcritical=True, exact=True)
    root = _rational_sqrt(e2)
    if root is not None:
        return SpectralValue((root, -root), exact=True)
    with mpmath.workdps(digits + 10):
        e = mpmath.sqrt(mpmath.mpf(e2.numerator) / mpmath.mpf(e2.denominator))
        return SpectralValue((+e, -e), exact=False)


def eta_squared(params: PhysicalParams) -> Fraction:
    """The sextic scale eta^2 = 16 q c^4 hbar^3 (zero exactly when q = 0)."""
    return 16 * params.q * params.c**4 * params.hbar**3


def qes_field(params: PhysicalParams) -> Fraction:
    """The special field 2 M omega / e restoring exact solvability."""
    if params.e_charge == 0:
        raise DomainError("e = 0: the special field 2 M omega / e is undefined")
    return 2 * params.M * params.omega / params.e_charge


def coupling_constant(params: PhysicalParams, m: int) -> Fraction:
    """Additive constant 2 hbar M omega (1 - m) of the field-free radial equation."""
    return 2 * params.hbar * params.M * params.omega * (1 - m)


def potential_coefficients(params: PhysicalParams, m: int, mode: str) -> dict[int, Fraction]:
    """Exact coefficients {power of r: coefficient} of the radial potential V(r).

    mode "free" is the bare sextic potential; mode "field" evaluates the symmetric-gauge
    magnetic potential at the params' B (which must be set) and field-constant sign.
    """
    h, M, w, q = params.hbar, params.M, params.omega, params.q
    cf = {
        -2: h**2 * (Q(m) ** 2 - Q(1, 4)),
        6: q**2,
    }
    if mode == "free":
        cf[4] = -2 * M * w * q
        cf[2] = M**2 * w**2 - 2 * h * q * (2 - m)
        cf[0] = Q(0)
    elif mode == "field":
        if params.B is None:
            raise ConfigError("magnetic mode requires B (or use with_qes_field())")
        eB = params.e_charge * params.B
        sign = 1 if params.convention == "printed" else -1
        cf[0] = sign * h * eB * (m - 1)
        cf[4] = -(2 * M * w - eB) * q
        cf[2] = (M * w - eB / 2) ** 2 - 2 * h * q * (2 - m)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return cf


def radial_operator(params: PhysicalParams, m: int, mode: str) -> DiffOperator:
    """The full one-dimensional operator whose eigenvalues are eps^2.

    -c^2 hbar^2 D^2 + c^2 [V(r) + coupling], with every coefficient an exact
    rational Laurent polynomial in r (powers -2, 0, 2, 4, 6).  In field mode
    B is pinned to the special value 2 M omega / e (set automatically when
    absent); with the "consistent" convention the constant term is the
    published reduced-operator constant 4 hbar M omega (1 - m).

    q = 0 is allowed here (the numerical solver uses it); algebraic-block
    entry points reject it separately.
    """
    c2 = params.c**2
    params = params.for_mode(mode)
    if mode == "field" and params.B != qes_field(params):
        raise ConfigError(f"field mode requires B = 2 M omega / e = {qes_field(params)}, "
                          f"got {params.B}")
    cf = potential_coefficients(params, m, mode)
    mult = {e: c2 * v for e, v in cf.items()}
    mult[0] = mult.get(0, Q(0)) + c2 * coupling_constant(params, m)
    return DiffOperator({2: LaurentPoly.const(-c2 * params.hbar**2),
                         0: LaurentPoly(mult)}, var="r")
