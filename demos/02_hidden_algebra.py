"""The hidden sl2 structure and what the module Hamiltonian actually realizes.

The ladder triple J+ = rho^2 d/drho - j rho, J- = d/drho, J0 = rho d/drho - j/2
closes exactly and preserves span(1, rho, ..., rho^j).  The published linear
combination of the generators is spectrally equivalent to the reduced radial
operator only after flipping the sign of q, and the eigenvalue offset it
realizes is m-dependent (2 m M c^2 hbar omega), not the published constant.
Everything below is exact rational arithmetic.
"""

from fractions import Fraction as Q

from sextic.model import PhysicalParams
from sextic.opcalc import QPoly, commutator, monomial_matrix
from sextic.qes import (algebraic_hamiltonian, crosspath_comparison,
                        derived_recurrence, polynomial_family, sl2_generators)
from sextic.render import poly_text

print("=" * 72)
print("commutation relations (zero operator = exact)")
print("=" * 72)
for j in (0, 3, 7, 12):
    g = sl2_generators(j)
    checks = {
        "[J0, J+] - J+": commutator(g.cartan, g.raising) - g.raising,
        "[J0, J-] + J-": commutator(g.cartan, g.lowering) + g.lowering,
        "[J+, J-] + 2 J0": commutator(g.raising, g.lowering) + 2 * g.cartan,
    }
    status = ", ".join(f"{k}: {'0' if not v else 'NONZERO'}" for k, v in checks.items())
    top = g.raising.apply(QPoly.monomial(j))
    print(f"j={j:>2}: {status}; J+ rho^j = {'0' if not top else top}")

params = PhysicalParams(M=1, omega=1, q=1)

print()
print("=" * 72)
print("restriction to the invariant module, j = 2")
print("=" * 72)
mat = monomial_matrix(algebraic_hamiltonian(params, 2), 2)
for row in mat:
    print("   [" + "  ".join(f"{v!s:>6}" for v in row) + "]")

print()
print("=" * 72)
print("spectral cross-path: module Hamiltonian vs derived block")
print("=" * 72)
for j in range(4):
    rep = crosspath_comparison(params, j)
    rec = derived_recurrence(params, j, None, "free")
    crit = polynomial_family(rec).critical_physical
    print(f"j={j}:")
    print(f"  char poly (q flipped):    {poly_text(rep['charpoly_module'], var='L')}")
    print(f"  derived critical (eps^2): {poly_text(crit)}")
    print(f"  published offset {rep['offset_published']}:   closes the gap: "
          f"{rep['published_offset_matches']}")
    print(f"  implied offset   {rep['offset_implied']} (= 2 m M c^2 hbar omega): "
          f"closes the gap: {rep['implied_offset_matches']}")
