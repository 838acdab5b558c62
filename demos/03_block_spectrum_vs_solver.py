"""The physicality experiment: are the algebraic roots in the L^2 spectrum?

The gauge that produces the algebraic block diverges at the origin and (for
q > 0) at infinity, so nothing guarantees its formal eigenvalues belong to
the self-adjoint spectrum.  This script computes both sides independently -
certified 50-digit enclosures for the block, a Richardson-extrapolated
finite-difference solver (validated on analytic cases) for the spectrum -
and reports the verdict.  The block roots satisfy the ODE identically either
way; UNMATCHED means "formal, not square-integrable", not "wrong".
"""

from sextic.model import PhysicalParams, radial_operator
from sextic.oracle import match_report, refine, residual, suggest_grid
from sextic.qes import spectrum, wavefunction

params = PhysicalParams(M=1, omega=1, q=1)

for mode, levels in (("field", (0, 1, 2)), ("free", (0, 1))):
    print("=" * 72)
    print(f"mode = {mode}")
    print("=" * 72)
    for j in levels:
        spec = spectrum(params, j, mode)
        m = j + 2
        count = j + 5
        grid = suggest_grid(params, m, mode, count, n=2048)
        solver = refine(params, m, mode, count, grid)
        op = radial_operator(params, m, mode)
        rep = match_report(spec, solver, tol=1e-4)

        print(f"\nj = {j} (m = {m}), ledger: physical = reduced + ({spec.ledger.shift})")
        print(f"  solver eigenvalues: "
              + ", ".join(f"{v:.6f}" for v in solver.eigenvalues))
        for i, (ph, entry) in enumerate(zip(spec.roots_physical, rep.entries)):
            wf = wavefunction(spec, i)
            res = residual(wf, op, ph.mpf(50))
            print(f"  block root eps^2 = {float(ph.midpoint):+.6f}  "
                  f"ODE residual {res:.1e}  "
                  f"[{wf.normalizability}]  -> {entry.verdict}"
                  + (f" (nearest {entry.nearest_oracle:.6f})"
                     if entry.nearest_oracle is not None else ""))

print()
print("every block root solves the radial equation to ~50 digits, and every")
print("one sits outside the numerically certified L^2 spectrum: the closed")
print("forms are formal solutions, not bound states, for these parameters.")
