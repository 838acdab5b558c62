"""Invariant-suite harness tests, including the negative controls."""

import pytest

from sextic.verify import CHECK_NAMES, run_checks


def test_fast_suite_green():
    results = run_checks(fast=True)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert len(results) == 9


def test_full_suite_includes_oracle_checks():
    assert "oracle-box" in CHECK_NAMES
    assert "refine-shoot" in CHECK_NAMES


@pytest.mark.parametrize("fault,check", [
    ("sl2-sign", "sl2-relations"),
    ("quotient-sign", "quotient-residual"),
    ("ledger-sign", "ledger-consistency"),
    ("parity-sign", "root-properties"),
])
def test_fault_injection_is_detected(fault, check):
    results = run_checks(fast=True, fault=fault)
    failed = {r.name for r in results if not r.passed}
    assert failed == {check}


def test_root_properties_reports_a_p_j_root_inside_a_cell(monkeypatch):
    # cells widened by 1 on each side swallow a root of P_j, which interlaces them
    from sextic import verify
    from sextic.qes import RootEnclosure

    isolate = verify.critical_roots

    def widened(fam, *args):
        return [RootEnclosure(e.lo - 1, e.hi + 1) for e in isolate(fam, *args)]

    monkeypatch.setattr(verify, "critical_roots", widened)
    result = verify.check_root_properties()
    assert not result.passed
    assert result.detail == "free j=4: P_j root inside an enclosure"
