"""Rendering tests: exact decimal strings, polynomial text, JSON shapes."""

from fractions import Fraction as Q

from sextic.model import PhysicalParams
from sextic.opcalc import QPoly
from sextic.oracle import EigenvalueRecord, MatchEntry
from sextic.qes import RootEnclosure, spectrum
from sextic.render import (decimal_fixed, dumps, enclosure_json, frac_str,
                           match_entry_json, oracle_record_json, poly_text,
                           spectrum_json)


def test_frac_str():
    assert frac_str(Q(3, 4)) == "3/4"
    assert frac_str(Q(-8, 2)) == "-4"


def test_decimal_fixed():
    assert decimal_fixed(Q(1, 3), 5) == "0.33333"
    assert decimal_fixed(Q(2, 3), 5) == "0.66667"
    assert decimal_fixed(Q(-1, 8), 4) == "-0.1250"
    assert decimal_fixed(Q(5), 2) == "5.00"
    assert decimal_fixed(Q(0), 3) == "0.000"
    # no fractional places: the rounded integer
    assert decimal_fixed(Q(5), 0) == "5"
    assert decimal_fixed(Q(-5, 2), 0) == "-3"
    assert decimal_fixed(Q(1, 3), 0) == "0"
    assert decimal_fixed(Q(-1, 3), 0) == "0"


def test_enclosure_json_tags():
    exact = enclosure_json(RootEnclosure(Q(2), Q(2)), 10)
    assert exact["error_bound"] == "exact" and exact["fraction"] == "2"
    approx = enclosure_json(RootEnclosure(Q(1, 3), Q(1, 3) + Q(1, 10**12)), 10)
    assert approx["error_bound"] == "1.5e-10"


def test_poly_text_with_unit():
    u = Q(16)
    p = QPoly([0, 712 * u**2, 0, -70 * u, 0, 1])
    assert poly_text(p, unit=u) == "x^5 - 70*eta^2*x^3 + 712*eta^4*x"


def test_poly_text_plain():
    assert poly_text(QPoly([4, 1])) == "x + 4"
    assert poly_text(QPoly([0, -1])) == "-x"
    assert poly_text(QPoly()) == "0"


def test_spectrum_json_carries_provenance():
    spec = spectrum(PhysicalParams(M=1, omega=1, q=1), 1, "field", digits=20)
    blob = spectrum_json(spec)
    assert blob["ledger"]["shift"] == "-8"
    assert blob["gauge"]["normalizability"] == "divergent-at-origin-and-infinity"
    assert len(blob["roots"]) == 2
    assert dumps(blob) == dumps(blob)


def test_minus_energy_is_the_negated_plus_at_full_precision():
    # minus is plus negated at the block's precision, not at 53 bits
    inexact = 0
    for mode, j in (("field", 3), ("free", 2), ("free", 5)):
        spec = spectrum(PhysicalParams(M=5, omega=1, q=1), j, mode, digits=60)
        for root in spectrum_json(spec)["roots"]:
            energy = root["energy"]
            if energy.get("error_bound") == "1.5e-60":
                assert energy["minus"] == "-" + energy["plus"], (mode, j, root["index"])
                inexact += 1
    assert inexact


def test_oracle_record_json_rounds_the_order_once_to_3_places():
    rec = EigenvalueRecord(2, 4.5, 4.125, 4.03125, 4.0, 2.0004999, 1e-9, ("ordering",))
    assert oracle_record_json(rec) == {
        "index": 2, "value_h": "4.5", "value_h2": "4.125", "value_h4": "4.03125",
        "extrapolated": "4.0", "observed_order": 2.0, "error": "1e-09", "flags": ["ordering"]}
    assert oracle_record_json(EigenvalueRecord(0, 1.0, 1.0, 1.0, 1.0, None, 0.5))[
        "observed_order"] is None


def test_match_entry_json_without_a_usable_record():
    blob = match_entry_json(MatchEntry(1, -2.5, None, None, None, None, "UNMATCHED"))
    assert blob == {"root_index": 1, "qes_physical": "-2.5", "nearest_oracle": None,
                    "absolute_gap": None, "relative_gap": None, "verdict": "UNMATCHED",
                    "oracle_flags": []}
