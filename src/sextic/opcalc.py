"""Exact calculus for linear differential operators with rational coefficients.

Everything in this module is computed exactly over the rationals: polynomial
arithmetic, operator composition and commutators, similarity (gauge)
transformations by ``r^s exp(-b r^2/2hbar - a r^4/4hbar)``, the quadratic
change of variable ``r = scale * sqrt(rho)``, and the extraction of a
three-term power-series recurrence from a banded operator.  Coefficients are
stored as ``fractions.Fraction``; the polynomial product, evaluation, Taylor
shift and division run on integer numerators over a common denominator and
reduce each result coefficient once.  No floating point enters; a sign error
anywhere in the pipeline surfaces as an exact mismatch rather than a small
residual.

Operators are stored as finite sums ``c_k(var) * D^k`` where each ``c_k`` is a
Laurent polynomial whose exponents are bounded below by ``LAURENT_FLOOR``
(only centrifugal ``1/r^2`` terms are ever needed; anything deeper indicates a
wrong gauge).

Eigenvalue bookkeeping across transformations is carried by
:class:`SpectralLedger`: additive constants produced by a transformation are
swept out of the operator and into the ledger, so every transformed operator
has zero constant coefficient and the map back to the physical eigenvalue is
explicit and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Q = Fraction

#: Deepest Laurent exponent an operator coefficient may carry.
LAURENT_FLOOR = -2


class OperatorError(ValueError):
    """Base class for operator-algebra failures."""


class RepresentationError(OperatorError):
    """A coefficient left the representable Laurent range."""


class ParityError(OperatorError):
    """A coefficient power is incompatible with its derivative order."""


class GaugeError(OperatorError):
    """Gauge conjugation left a residue the ansatz cannot absorb."""

    def __init__(self, message: str, residue=None):
        super().__init__(message)
        self.residue = residue


class NotQesError(OperatorError):
    """Operator is not banded: no three-term series recurrence exists."""

    def __init__(self, message: str, offending=None):
        super().__init__(message)
        self.offending = offending


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("exact arithmetic only: got float %r" % x)
    return Q(x)


def _over_common(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, their common denominator) of ``coeffs``: the exact
    kernels run on Python ints and build each result coefficient once."""
    den = math.lcm(*(a.denominator for a in coeffs))
    return [a.numerator * (den // a.denominator) for a in coeffs], den


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q
# ---------------------------------------------------------------------------


class QPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``QPoly([a0, a1, a2])`` is ``a0 + a1*x + a2*x^2``.  The zero polynomial
    has degree -1.  Instances are immutable by convention.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable = ()):
        c = [_as_fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = c

    @classmethod
    def const(cls, value) -> "QPoly":
        return cls([value])

    @classmethod
    def x(cls) -> "QPoly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, n: int, coeff=1) -> "QPoly":
        return cls([0] * n + [coeff])

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def __bool__(self) -> bool:
        return bool(self.c)

    def coeff(self, n: int) -> Fraction:
        return self.c[n] if 0 <= n < len(self.c) else Q(0)

    @property
    def leading(self) -> Fraction:
        if not self.c:
            return Q(0)
        return self.c[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == QPoly([other]).c
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.c))

    def __neg__(self) -> "QPoly":
        return QPoly([-a for a in self.c])

    def __add__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = (self.c, other.c) if len(self.c) >= len(other.c) else (other.c, self.c)
        return QPoly([u + v for u, v in zip(a, b)] + a[len(b):])

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly([-_as_fraction(other)]))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly([a * other for a in self.c])
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.c or not other.c:
            return QPoly()
        (a, da), (b, db) = _over_common(self.c), _over_common(other.c)
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        den = da * db
        return QPoly([Q(n, den) for n in out])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "QPoly":
        return QPoly([a / scalar for a in self.c])

    def __pow__(self, n: int) -> "QPoly":
        out = QPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, float and mpmath types.

        At an int or Fraction p/q the Horner runs on the integer numerators,
        as q^d sum n_i (p/q)^i, and reduces once.
        """
        if isinstance(x, (int, Fraction)):
            if not self.c:
                return Q(0)
            nums, den = _over_common(self.c)
            p, q = x.numerator, x.denominator
            acc, qk = nums[-1], 1
            for n in reversed(nums[:-1]):
                qk *= q
                acc = acc * p + n * qk
            return Q(acc, den * qk)
        acc = None
        for a in reversed(self.c):
            acc = a if acc is None else acc * x + a
        return 0 * x if acc is None else acc

    def derivative(self) -> "QPoly":
        return QPoly([i * a for i, a in enumerate(self.c)][1:])

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        # pseudo-division on integer numerators: after t steps the remainder
        # is rem / (lead^t da), and each quotient term is reduced once
        (rem, da), (b, db) = _over_common(self.c), _over_common(other.c)
        d, lead, scale = len(b) - 1, b[-1], da
        quot = [Q(0)] * max(0, len(rem) - d)
        while len(rem) > d:
            top = rem.pop()
            if top:
                k = len(rem) - d
                scale *= lead
                rem = [lead * v for v in rem]
                for i in range(d):
                    rem[k + i] -= top * b[i]
                quot[k] = Q(top * db, scale)
        return QPoly(quot), QPoly([Q(v, scale) for v in rem])

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def monic(self) -> "QPoly":
        if not self.c:
            return self
        lead = self.leading
        return QPoly([a / lead for a in self.c])

    def shifted(self, delta) -> "QPoly":
        """Return p(x + delta), exactly.

        With delta = p/q and integer numerators n_i over den, q^d p(x + delta)
        is R(q x) for R(z) = sum n_i q^(d-i) (z + p)^i, whose integer Taylor
        shift is the in-place Horner scheme; coefficient k is r_k / (den q^(d-k)).
        """
        delta = _as_fraction(delta)
        if not self.c:
            return QPoly()
        nums, den = _over_common(self.c)
        p, q, d = delta.numerator, delta.denominator, len(nums) - 1
        r = [n * q ** (d - i) for i, n in enumerate(nums)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                r[k] += p * r[k + 1]
        return QPoly([Q(v, den * q ** (d - k)) for k, v in enumerate(r)])

    def __repr__(self) -> str:
        if not self.c:
            return "QPoly(0)"
        parts = []
        for i, a in enumerate(self.c):
            if a:
                parts.append(f"{a}*x^{i}" if i else f"{a}")
        return "QPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials over Q
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Sparse Laurent polynomial: mapping exponent -> Fraction."""

    __slots__ = ("d",)

    def __init__(self, entries: Mapping[int, object] | Iterable = ()):
        d = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for e, v in items:
            v = _as_fraction(v)
            if v:
                e = int(e)
                d[e] = d[e] + v if e in d else v
        self.d = {e: v for e, v in d.items() if v}

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        return cls({0: value})

    @property
    def min_exp(self) -> int:
        return min(self.d) if self.d else 0

    def coeff(self, e: int) -> Fraction:
        return self.d.get(e, Q(0))

    @property
    def constant_term(self) -> Fraction:
        return self.d.get(0, Q(0))

    def __bool__(self) -> bool:
        return bool(self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.d == LaurentPoly.const(other).d
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.d.items())))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self.d.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d = dict(self.d)
        for e, v in other.d.items():
            d[e] = d[e] + v if e in d else v
        return LaurentPoly(d)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly.const(-_as_fraction(other)))

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: v * other for e, v in self.d.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        d: dict[int, Fraction] = {}
        for e1, v1 in self.d.items():
            for e2, v2 in other.d.items():
                e, v = e1 + e2, v1 * v2
                d[e] = d[e] + v if e in d else v
        return LaurentPoly(d)

    __rmul__ = __mul__

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * v for e, v in self.d.items() if e})

    def __repr__(self) -> str:
        if not self.d:
            return "LaurentPoly(0)"
        return "LaurentPoly({" + ", ".join(f"{e}: {v}" for e, v in sorted(self.d.items())) + "})"


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


class DiffOperator:
    """Finite sum ``c_k(var) * D^k`` with Laurent-polynomial coefficients.

    ``var`` is a display name only ("r" or "rho"); arithmetic never inspects
    it, but mixing variables in :func:`compose` is rejected.
    """

    __slots__ = ("terms", "var")

    def __init__(self, terms: Mapping[int, LaurentPoly], var: str = "r"):
        tt: dict[int, LaurentPoly] = {}
        for k, c in dict(terms).items():
            k = int(k)
            if k < 0:
                raise OperatorError("negative derivative order")
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c) if isinstance(c, (int, Fraction)) else LaurentPoly(c)
            if not c:
                continue
            if c.min_exp < LAURENT_FLOOR:
                raise RepresentationError(
                    f"coefficient of D^{k} has exponent {c.min_exp} below floor {LAURENT_FLOOR}"
                )
            tt[k] = c
        self.terms = tt
        self.var = var

    @classmethod
    def derivative(cls, var: str = "r", order: int = 1) -> "DiffOperator":
        return cls({order: LaurentPoly.const(1)}, var)

    @classmethod
    def multiplication(cls, coeff, var: str = "r") -> "DiffOperator":
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.const(coeff)
        return cls({0: coeff}, var)

    @property
    def order(self) -> int:
        return max(self.terms) if self.terms else 0

    def coeff(self, k: int) -> LaurentPoly:
        return self.terms.get(k, LaurentPoly())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({k: -c for k, c in self.terms.items()}, self.var)

    def __add__(self, other) -> "DiffOperator":
        if isinstance(other, (int, Fraction)):
            other = DiffOperator.multiplication(other, self.var)
        if not isinstance(other, DiffOperator):
            return NotImplemented
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, LaurentPoly()) + c
        return DiffOperator(d, self.var)

    __radd__ = __add__

    def __sub__(self, other) -> "DiffOperator":
        if isinstance(other, (int, Fraction)):
            other = DiffOperator.multiplication(other, self.var)
        return self + (-other)

    def __rmul__(self, scalar) -> "DiffOperator":
        scalar = _as_fraction(scalar)
        return DiffOperator({k: scalar * c for k, c in self.terms.items()}, self.var)

    def image_of_monomial(self, n: int) -> dict[int, Fraction]:
        """Exact image of x^n as {exponent: coefficient}."""
        out: dict[int, Fraction] = {}
        for k, c in self.terms.items():
            if n < k:
                continue
            ff = Q(math.perm(n, k))  # n (n-1) ... (n-k+1)
            if not ff:
                continue
            for e, v in c.d.items():
                exp, w = n - k + e, ff * v
                out[exp] = out[exp] + w if exp in out else w
        return {e: v for e, v in out.items() if v}

    def apply(self, p: QPoly) -> QPoly:
        """Apply to a polynomial; errors if the image leaves the polynomial ring."""
        return QPoly(self.apply_coeffs(p.c))

    def apply_coeffs(self, coeffs: Sequence) -> list:
        """Apply to sum_n coeffs[n] x^n where coeffs live in any commutative ring.

        Ring elements only need +, scalar multiplication by Fraction and truth
        testing; used with QPoly entries for symbolic-eigenvalue runs.
        """
        acc: dict[int, object] = {}
        for n, a in enumerate(coeffs):
            if not a:
                continue
            for e, v in self.image_of_monomial(n).items():
                term = v * a
                acc[e] = acc[e] + term if e in acc else term
        if any(e < 0 and acc[e] for e in acc):
            raise RepresentationError("image has negative exponent")
        top = max((e for e in acc), default=-1)
        zero = 0 * coeffs[0] if len(coeffs) else Q(0)
        return [acc.get(e, zero) for e in range(top + 1)]

    def parity_consistent(self) -> bool:
        """True when every coefficient exponent matches its order mod 2."""
        for k, c in self.terms.items():
            if any((e - k) % 2 for e in c.d):
                return False
        return True

    def canonical_text(self) -> str:
        """Deterministic rendering: highest derivative first, exponents ascending."""
        if not self.terms:
            return "0"
        chunks = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            monos = []
            for e in sorted(c.d):
                v = c.d[e]
                if e == 0:
                    monos.append(f"{v}")
                elif e == 1:
                    monos.append(f"{v}*{self.var}")
                else:
                    monos.append(f"{v}*{self.var}^{e}")
            body = " + ".join(monos)
            if k == 0:
                chunks.append(f"({body})")
            elif k == 1:
                chunks.append(f"({body})*D")
            else:
                chunks.append(f"({body})*D^{k}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"DiffOperator[{self.var}]({self.canonical_text()})"


def compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Operator product: (compose(a, b))(f) = a(b(f))."""
    if a.var != b.var:
        raise OperatorError(f"variable mismatch: {a.var} vs {b.var}")
    out: dict[int, LaurentPoly] = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            # D^i (cb f^{(j)}) = sum_l C(i,l) cb^{(l)} f^{(i-l+j)}
            deriv = cb
            for l in range(i + 1):
                if deriv:
                    coeff = Q(math.comb(i, l)) * ca * deriv
                    k = i - l + j
                    out[k] = out.get(k, LaurentPoly()) + coeff
                deriv = deriv.derivative()
    return DiffOperator(out, a.var)


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - ba."""
    return compose(a, b) - compose(b, a)


def monomial_matrix(a: DiffOperator, n: int) -> list[list[Fraction]]:
    """Matrix of ``a`` on the basis 1, x, ..., x^n; errors if not invariant.

    Entry [row][col] is the coefficient of x^row in the image of x^col.
    """
    mat = [[Q(0)] * (n + 1) for _ in range(n + 1)]
    for col in range(n + 1):
        img = a.image_of_monomial(col)
        for e, v in img.items():
            if e < 0 or e > n:
                raise OperatorError(
                    f"image of {a.var}^{col} has degree-{e} term: span(1..{a.var}^{n}) not invariant"
                )
            mat[e][col] = v
    return mat


# ---------------------------------------------------------------------------
# Spectral ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralLedger:
    """Exact record of how eigenvalues map back through transformations.

    ``physical = transformed + shift``: every transformation of the pipeline
    sweeps an additive constant out of the operator.
    """

    shift: Fraction = Q(0)
    provenance: tuple[str, ...] = ()

    def to_physical(self, x):
        return x + self.shift if self.shift else x


# ---------------------------------------------------------------------------
# Gauge transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeAnsatz:
    """Similarity factor ``r^power * exp(-gaussian r^2/2hbar - quartic r^4/4hbar)``.

    Positive ``quartic`` (or zero quartic and positive ``gaussian``) decays at
    infinity; ``power >= 1/2`` is regular at the origin.  The classification is
    computed and reported, never assumed.
    """

    power: Fraction
    gaussian: Fraction
    quartic: Fraction

    def __post_init__(self):
        object.__setattr__(self, "power", _as_fraction(self.power))
        object.__setattr__(self, "gaussian", _as_fraction(self.gaussian))
        object.__setattr__(self, "quartic", _as_fraction(self.quartic))

    @property
    def decays_at_infinity(self) -> bool:
        return self.quartic > 0 or (self.quartic == 0 and self.gaussian > 0)

    @property
    def regular_at_origin(self) -> bool:
        return self.power >= Q(1, 2)

    @property
    def normalizability(self) -> str:
        if self.decays_at_infinity and self.regular_at_origin:
            return "normalizable"
        if self.decays_at_infinity:
            return "divergent-at-origin"
        if self.regular_at_origin:
            return "divergent-at-infinity"
        return "divergent-at-origin-and-infinity"

    def label(self) -> str:
        return f"r^({self.power}) exp(-({self.gaussian})r^2/2h - ({self.quartic})r^4/4h)"

    def log_derivative(self, hbar: Fraction) -> LaurentPoly:
        """(d/dr) log g = power/r - gaussian*r/hbar - quartic*r^3/hbar."""
        return LaurentPoly({-1: self.power, 1: -self.gaussian / hbar, 3: -self.quartic / hbar})


def gauge_conjugate(a: DiffOperator, g: GaugeAnsatz, hbar) -> tuple[DiffOperator, SpectralLedger]:
    """Conjugate ``a`` by the gauge factor: returns the operator acting on F
    where f = g(r) * F(r), with its constant term swept into the ledger.

    With w = (log g)' the conjugation of an order <= 2 operator has the closed
    form g^-1 (a2 D^2 + a1 D + a0) g = a2 D^2 + (a1 + 2 a2 w) D
    + (a0 + a1 w + a2 (w' + w^2)); higher orders raise :class:`OperatorError`.
    A surviving centrifugal (1/r or 1/r^2) multiplicative residue raises
    :class:`GaugeError`, the residue riding on the exception so a gauge search
    can report why a candidate failed.  Parity violations always raise.
    """
    hbar = _as_fraction(hbar)
    if not a.parity_consistent():
        raise ParityError("input operator mixes parities")
    if a.order > 2:
        raise OperatorError("gauge conjugation implemented for order <= 2 only")
    w = g.log_derivative(hbar)
    a2, a1, a0 = a.coeff(2), a.coeff(1), a.coeff(0)
    out = DiffOperator({2: a2, 1: a1 + 2 * a2 * w,
                        0: a0 + a1 * w + a2 * (w.derivative() + w * w)}, a.var)

    mult = out.coeff(0)
    residue = LaurentPoly({e: v for e, v in mult.d.items() if e < 0})
    if residue:
        raise GaugeError(f"centrifugal residue after conjugation: {residue!r}", residue=residue)
    # the output needs no parity check: w = (log g)' has only odd exponents

    const = mult.constant_term
    swept = out - DiffOperator.multiplication(const, a.var)
    ledger = SpectralLedger(shift=const, provenance=(f"gauge {g.label()}",))
    return swept, ledger


# ---------------------------------------------------------------------------
# Change of variable r = scale * sqrt(rho)
# ---------------------------------------------------------------------------


def change_variable_sqrt(a: DiffOperator, scale) -> DiffOperator:
    """Rewrite ``a`` in ``rho = r^2 / scale^2``, exactly: an operator in ``rho``.

    Each term ``r^p D_r^d`` requires ``p == d (mod 2)``; the pipeline only
    produces operators of order <= 2, which is all that is implemented.
    """
    scale = _as_fraction(scale)
    out: dict[int, LaurentPoly] = {}

    def add(k: int, e2: Fraction, v: Fraction):
        if e2.denominator != 1:
            raise ParityError("half-integer exponent after substitution")
        e, row = int(e2), out.setdefault(k, {})
        row[e] = row[e] + v if e in row else v

    for d, c in a.terms.items():
        if d > 2:
            raise OperatorError("change of variable implemented for order <= 2 only")
        for p, v in c.d.items():
            if (p - d) % 2:
                raise ParityError(f"term r^{p} D^{d} has no even image in rho")
            if d == 0:
                add(0, Q(p, 2), v * scale**p)
            elif d == 1:
                # r^p D_r = 2 scale^(p-1) rho^((p+1)/2) D_rho
                add(1, Q(p + 1, 2), 2 * v * scale ** (p - 1))
            else:
                # r^p D_r^2 = 4 scale^(p-2) rho^(p/2+1) D_rho^2
                #           + 2 scale^(p-2) rho^(p/2) D_rho
                add(2, Q(p, 2) + 1, 4 * v * scale ** (p - 2))
                add(1, Q(p, 2), 2 * v * scale ** (p - 2))
    return DiffOperator({k: LaurentPoly(d) for k, d in out.items()}, "rho")


# ---------------------------------------------------------------------------
# Series recurrence extraction
# ---------------------------------------------------------------------------


def series_recurrence(a: DiffOperator) -> tuple[QPoly, QPoly, QPoly]:
    """Extract the three-term recurrence of ``x F = A F`` on power series.

    Returns ``(alpha, beta, gamma)``, exact polynomials in the row index k:
    row k reads ``alpha(k) f_{k+1} = (x - beta(k)) f_k - gamma(k) f_{k-1}``.
    Requires every term ``rho^e D^d`` of ``a`` to shift monomial degree by
    -1, 0 or +1 (e - d in that range); otherwise :class:`NotQesError` is
    raised naming the offending term.  The pipeline only produces operators
    of order <= 2, which is all that is implemented.
    """
    if a.order > 2:
        raise OperatorError("series recurrence implemented for order <= 2 only")
    k = QPoly.x()
    low, mid, up = QPoly(), QPoly(), QPoly()
    for d, c in a.terms.items():
        ff = QPoly([1])
        for i in range(d):
            ff = ff * (k - i)
        for e, v in c.d.items():
            shift = e - d
            if shift < -1 or shift > 1:
                raise NotQesError(
                    f"term {a.var}^{e} D^{d} shifts degree by {shift}: band wider than three terms",
                    offending=(e, d, v),
                )
            term = v * ff
            if shift == -1:
                low = low + term
            elif shift == 0:
                mid = mid + term
            else:
                up = up + term
    if low(Q(0)):
        raise NotQesError("1/%s residue: row below f_0 does not vanish" % a.var)

    alpha = low.shifted(1)     # multiplies f_{k+1} in row k
    beta = mid
    gamma = up.shifted(-1)     # multiplies f_{k-1} in row k
    return alpha, beta, gamma
