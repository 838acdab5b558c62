"""Gauge search and closed-form wavefunction reconstruction.

Both published wavefunction factors carry sign misprints: as printed they do
not cancel the quartic/sextic growth of the potential.  The finite candidate
set (two indicial branches x three gaussian signs x two quartic signs) is
conjugated mechanically; candidates that stay three-term banded are kept and
annotated with whether their band closes (only then do its critical roots
solve the radial equation), whether they reproduce the published reduced
operator and how they (fail to) decay.
"""

import mpmath

from sextic.model import PhysicalParams
from sextic.qes import gauge_search, spectrum, wavefunction

params = PhysicalParams(M=1, omega=1, q=1)

for mode in ("free", "field"):
    print("=" * 72)
    print(f"gauge candidates, mode = {mode}, j = 1")
    print("=" * 72)
    for cand in gauge_search(params, 1, mode, include_failures=True):
        g = cand.gauge
        head = (f"r^({g.power}) exp(-({g.gaussian}) r^2/2h - ({g.quartic}) r^4/4h)"
                f"  [{g.normalizability}]")
        if not cand.viable:
            print(f"  {head}\n      rejected: {cand.error}")
            continue
        rec = cand.recurrence
        print(f"  {head}")
        print(f"      closes: {rec.closes}  "
              f"reproduces published operator: {cand.diagnostics['reproduces_published_ode']}  "
              f"ledger shift: {rec.ledger.shift}")
    print()

print("=" * 72)
print("closed form at the lowest magnetic j = 1 root")
print("=" * 72)
spec = spectrum(params, 1, "field", digits=30)
wf = wavefunction(spec, 0)
print(f"gauge: r^({wf.gauge.power}) exp(-({wf.gauge.quartic}) r^4/4h), "
      f"{wf.normalizability}")
print(f"series coefficients: "
      + ", ".join(mpmath.nstr(c, 12) for c in wf.coefficients))
print("\n  r        f(r)")
with mpmath.workdps(40):
    for i in range(9):
        r = mpmath.mpf(1) / 2 + i * mpmath.mpf(1) / 4
        print(f"  {float(r):4.2f}  {mpmath.nstr(wf(r), 10):>16}")
print("\nthe r^(-3/2) prefactor and the growing quartic exponential are both")
print("visible: this closed form is exact but not square integrable.")
