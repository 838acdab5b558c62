"""Energy polynomial tables: mechanical derivation vs the published ones.

The band of the series solution closes at row j + 1, and the roots of the
critical polynomial P_{j+1} are the algebraically solvable block.  This
script derives the monic families for both modes with exact rational
arithmetic and diffs them against the tables embedded from the literature,
including the one famous discrepancy: the linear coefficient of the
degree-9 magnetic entry (published 88504707, derived 88504704).
"""

from sextic.model import PhysicalParams, eta_squared
from sextic.qes import derived_recurrence, polynomial_family, published_recurrence
from sextic.render import poly_text
from sextic.tables import published_field_table, published_free_table

params = PhysicalParams(M=1, omega=1, q=1)

print("=" * 72)
print("magnetic mode at the special field B = 2 M omega / e")
print("monic critical polynomials in the reduced eigenvalue, eta^2 = 16 q c^4 hbar^3")
print("=" * 72)
u = eta_squared(params)
for j in range(9):
    crit = polynomial_family(derived_recurrence(params, j, None, "field")).critical
    pub = published_field_table(params, j + 1)
    verdict = "MATCH" if crit == pub else "MISMATCH"
    print(f"P_{j + 1}: {poly_text(crit, unit=u):<62} {verdict}")
    if crit != pub:
        for power in range(crit.degree, -1, -1):
            a, b = crit.coeff(power), pub.coeff(power)
            if a != b:
                print(f"      x^{power}: derived {a} vs published {b} "
                      f"(= {a / u**((j + 1 - power) // 2)} vs "
                      f"{b / u**((j + 1 - power) // 2)} in units of eta^{j + 1 - power})")

print()
print("=" * 72)
print("field-free mode, physical eigenvalue eps^2 = E^2 - M^2 c^4")
print("=" * 72)
table = published_free_table(params)
for j in range(4):
    rec = derived_recurrence(params, j, None, "free")
    crit = polynomial_family(rec).critical_physical
    verdict = "MATCH" if crit == table[j + 1].monic() else "MISMATCH"
    print(f"P_{j + 1}: {poly_text(crit):<62} {verdict}")

print()
print("=" * 72)
print("the recurrences as published, run literally")
print("=" * 72)
print("field-free: the forward coefficient eta^2 (k - j) dies at the last row;")
print("reading that row as the truncation constraint and normalizing monic")
print("reproduces the published table:")
for j in range(3):
    fam = polynomial_family(published_recurrence(params, j, "free")).in_physical_variable()
    ok = fam.critical == table[j + 1].monic()
    print(f"  j={j}: degenerate rows {fam.degenerate_rows}, table {'MATCH' if ok else 'MISMATCH'}")
print("magnetic: the published recurrence contradicts its own table from degree 3 on:")
for j in range(4):
    fam = polynomial_family(published_recurrence(params, j, "field"))
    ok = fam.critical == published_field_table(params, j + 1)
    print(f"  j={j}: P_{j + 1} vs table {'MATCH' if ok else 'MISMATCH'}"
          + ("  (coincidental at this degree)" if ok and j == 1 else ""))
