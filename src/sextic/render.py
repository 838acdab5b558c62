"""Deterministic rendering: exact fractions, fixed decimals, JSON shapes.

Every numeric leaving the package carries either the tag "exact" or an
explicit error bound.  Rendering is pure integer arithmetic so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

import mpmath

from .opcalc import Q, QPoly
from .qes import QesSpectrum, RootEnclosure

__all__ = ["frac_str", "decimal_fixed", "enclosure_json", "poly_json",
           "poly_text", "gauge_json", "ledger_json", "gauge_candidate_json",
           "module_hamiltonian_json", "oracle_record_json", "match_entry_json",
           "spectrum_json", "dumps"]


def frac_str(q: Fraction) -> str:
    q = Q(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decimal_fixed(q: Fraction, places: int) -> str:
    """Round-half-up fixed-point decimal with exactly ``places`` fractional digits."""
    q = Q(q)
    neg = q < 0
    if neg:
        q = -q
    scaled = q * 10**places
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    digits = str(n).rjust(places + 1, "0")
    whole, frac = digits[:len(digits) - places], digits[len(digits) - places:]
    out = f"{whole}.{frac}" if places else whole
    return "-" + out if neg and n else out


def enclosure_json(enc: RootEnclosure, digits: int) -> dict[str, Any]:
    """Decimal value plus an explicit bound (or the exact fraction)."""
    if enc.exact:
        return {"value": decimal_fixed(enc.midpoint, digits),
                "fraction": frac_str(enc.midpoint),
                "error_bound": "exact"}
    # enclosure width < 10^-digits by construction; rounding adds <= 0.5 ulp
    return {"value": decimal_fixed(enc.midpoint, digits),
            "error_bound": f"1.5e-{digits}"}


def poly_json(p: QPoly) -> list[str]:
    """Coefficients, constant first, as exact strings."""
    return [frac_str(a) for a in p.c]


def poly_text(p: QPoly, var: str = "x", unit: Fraction | None = None) -> str:
    """Readable exact polynomial, highest power first.

    When ``unit`` is given, coefficients divisible by a power of it are
    rendered as multiples of ``eta^2``, ``eta^4``, ... (``unit`` is the
    sextic scale eta^2: the field-mode tables are stated in its powers, which
    keeps the comparison readable).
    """
    if not p.c:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        a = p.coeff(i)
        if not a:
            continue
        coeff_txt = None
        if unit not in (None, 0) and a not in (1, -1) and (p.degree - i) % 2 == 0:
            # same-parity families carry unit^((degree - power)/2) on each term
            pw = (p.degree - i) // 2
            if pw >= 1:
                scaled = a / unit**pw
                if scaled.denominator == 1:
                    mag = abs(scaled)
                    sgn = "-" if scaled < 0 else ""
                    upow = f"eta^{2 * pw}"
                    coeff_txt = f"{sgn}{mag}*{upow}" if mag != 1 else f"{sgn}{upow}"
        if coeff_txt is None:
            coeff_txt = frac_str(a)
        if i == 0:
            term = coeff_txt
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if coeff_txt == "1":
                term = xpow
            elif coeff_txt == "-1":
                term = f"-{xpow}"
            else:
                term = f"{coeff_txt}*{xpow}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def gauge_json(g) -> dict[str, Any]:
    return {"power": frac_str(g.power), "gaussian": frac_str(g.gaussian),
            "quartic": frac_str(g.quartic), "normalizability": g.normalizability}


def ledger_json(led) -> dict[str, Any]:
    # every ledger is a shift; "scale" stays in the schema, always 1
    return {"scale": "1", "shift": frac_str(led.shift),
            "provenance": list(led.provenance)}


def gauge_candidate_json(index: int, gauge_index: Optional[int], cand) -> dict[str, Any]:
    """One row of a gauge search: the gauge, and its reduced operator,
    recurrence and ledger when it is viable or why it was rejected.
    ``gauge_index`` is the row's ``--gauge`` index, its rank among the viable
    candidates (None for a rejected one)."""
    row = {"index": index, "gauge_index": gauge_index, "gauge": gauge_json(cand.gauge)}
    if not cand.viable:
        return {**row, "rejected": cand.error}
    rec = cand.recurrence
    return {
        **row,
        "reduced_operator": rec.operator.canonical_text(),
        "recurrence": {"alpha_k": poly_text(rec.alpha, var="k"),
                       "beta_k": poly_text(rec.beta, var="k"),
                       "gamma_k": poly_text(rec.gamma, var="k"),
                       "closes": rec.closes},
        "ledger": ledger_json(rec.ledger),
        "reproduces_published_ode": cand.diagnostics["reproduces_published_ode"],
        "published_constant": frac_str(cand.diagnostics["published_constant"]),
        "constant_consistent": cand.diagnostics["constant_consistent"],
    }


def module_hamiltonian_json(cp: dict) -> dict[str, Any]:
    """How the published sl2 combination relates to the derived free-mode
    block, from a ``qes.crosspath_comparison`` result."""
    return {
        "charpoly": poly_json(cp["charpoly_module"]),
        "published_offset": frac_str(cp["offset_published"]),
        "published_offset_matches": cp["published_offset_matches"],
        "implied_offset": frac_str(cp["offset_implied"]),
        "implied_offset_matches": cp["implied_offset_matches"],
        "q_sign_flipped": cp["q_flipped_in_module_hamiltonian"],
    }


def oracle_record_json(rec) -> dict[str, Any]:
    """An ``oracle.EigenvalueRecord``: floats as repr strings, the observed
    order rounded to 3 places."""
    return {
        "index": rec.index,
        "value_h": repr(rec.value_h),
        "value_h2": repr(rec.value_h2),
        "value_h4": repr(rec.value_h4),
        "extrapolated": repr(rec.extrapolated),
        "observed_order": None if rec.observed_order is None else round(rec.observed_order, 3),
        "error": repr(rec.error_estimate),
        "flags": list(rec.flags),
    }


def match_entry_json(e) -> dict[str, Any]:
    """An ``oracle.MatchEntry``: one block root, its verdict and the record it met."""
    return {
        "root_index": e.root_index,
        "qes_physical": repr(e.qes_value),
        "nearest_oracle": None if e.nearest_oracle is None else repr(e.nearest_oracle),
        "absolute_gap": None if e.absolute_gap is None else repr(e.absolute_gap),
        "relative_gap": None if e.relative_gap is None else repr(e.relative_gap),
        "verdict": e.verdict,
        "oracle_flags": list(e.oracle_flags),
    }


def spectrum_json(spec: QesSpectrum) -> dict[str, Any]:
    """Stable JSON shape of an algebraic block: exact coefficients, decimal
    roots with stated bounds, the ledger and the gauge provenance, all at the
    ``spec.digits`` the block was certified to."""
    digits = spec.digits
    roots = []
    for i, (red, phys, en) in enumerate(zip(spec.roots_reduced, spec.roots_physical,
                                            spec.energies)):
        entry = {
            "index": i,
            "reduced": enclosure_json(red, digits),
            "physical": enclosure_json(phys, digits),
            "coefficients": [mpmath.nstr(c, digits, strip_zeros=False)
                             for c in spec.coefficients[i]],
        }
        if en.subcritical:
            entry["energy"] = {"subcritical_violation": True,
                               "note": "M^2 c^4 + eps^2 < 0: no real energy pair"}
        elif en.exact:
            entry["energy"] = {"plus": frac_str(en.energy[0]),
                               "minus": frac_str(en.energy[1]),
                               "error_bound": "exact"}
        else:
            entry["energy"] = {"plus": mpmath.nstr(en.energy[0], digits),
                               "minus": mpmath.nstr(en.energy[1], digits),
                               "error_bound": f"1.5e-{digits}"}
        roots.append(entry)
    return {
        "command": "spectrum",
        "mode": spec.mode,
        "source": spec.source,
        "j": spec.j,
        "m": spec.m,
        "params": spec.params.as_dict(),
        "digits": digits,
        "critical_polynomial": poly_json(spec.critical),
        "variable": spec.variable,
        "ledger": ledger_json(spec.ledger),
        "gauge": gauge_json(spec.gauge) if spec.gauge else None,
        "roots": roots,
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
