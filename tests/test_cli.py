"""Command-line tests: exit codes, determinism, report content."""

import io
import json
import warnings

import pytest

from sextic.cli import main


def run(argv):
    buf = io.StringIO()
    code = main(argv, stream=buf)
    return code, buf.getvalue()


def test_invalid_mode_exits_2(capsys):
    code, _ = run(["derive", "--mode", "nonsense", "--j", "1"])
    assert code == 2


def test_missing_level_exits_2():
    code, _ = run(["polys", "--mode", "field"])
    assert code == 2


def test_inconsistent_m_j_exits_2():
    code, _ = run(["polys", "--mode", "field", "--j", "1", "--m", "5"])
    assert code == 2


def test_digits_floor_exits_2():
    code, _ = run(["spectrum", "--mode", "field", "--j", "0", "--digits", "5"])
    assert code == 2


def test_negative_count_exits_2():
    code, _ = run(["oracle", "--mode", "free", "--q", "0", "--m", "2", "--count", "-3"])
    assert code == 2


def test_json_output_deterministic():
    argv = ["polys", "--mode", "field", "--j", "3", "--q", "2"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_polys_field_j4_match():
    code, out = run(["polys", "--mode", "field", "--j", "4"])
    assert code == 0
    rep = json.loads(out)
    derived = next(d for d in rep["table_comparison"] if d["source"] == "derived-vs-table")
    assert derived["verdict"] == "MATCH"
    assert rep["derived"]["P_5"] == ["0", "182272", "0", "-1120", "0", "1"]


def test_polys_field_j8_flags_published_coefficient():
    code, out = run(["polys", "--mode", "field", "--j", "8"])
    assert code == 0  # a mismatch is a finding, not an error
    rep = json.loads(out)
    derived = next(d for d in rep["table_comparison"] if d["source"] == "derived-vs-table")
    assert derived["verdict"] == "MISMATCH"
    linear = next(r for r in derived["terms"] if r["power"] == 1)
    assert linear["published"] == "5800244477952"   # 88504707 * eta^8
    assert linear["derived"] == "5800244281344"     # 88504704 * eta^8
    others = [r for r in derived["terms"] if r["power"] != 1]
    assert all(r["match"] for r in others)


def test_polys_free_j1_expanded_match():
    code, out = run(["polys", "--mode", "free", "--j", "1"])
    rep = json.loads(out)
    # (x+4)(x+8) - 32 = x^2 + 12x, physical variable
    assert rep["derived"]["P_2"] == ["0", "12", "1"]
    derived = next(d for d in rep["table_comparison"] if d["source"] == "derived-vs-table")
    assert derived["verdict"] == "MATCH"


def test_spectrum_field_j1_digits30():
    code, out = run(["spectrum", "--mode", "field", "--j", "1", "--q", "1",
                     "--digits", "30"])
    assert code == 0
    rep = json.loads(out)
    vals = [r["reduced"]["value"] for r in rep["roots"]]
    assert any(v.startswith("5.65685424949238") for v in vals)
    assert any(v.startswith("-5.65685424949238") for v in vals)
    assert all(r["physical"]["error_bound"] in ("exact", "1.5e-30") for r in rep["roots"])


def test_spectrum_subcritical_flagged():
    code, out = run(["spectrum", "--mode", "free", "--j", "0"])
    rep = json.loads(out)
    assert rep["roots"][0]["energy"]["subcritical_violation"] is True


def test_spectrum_energy_pair():
    code, out = run(["spectrum", "--mode", "free", "--j", "0", "--M", "5"])
    rep = json.loads(out)
    en = rep["roots"][0]["energy"]
    assert en["plus"].startswith("2.2360679")


def test_oracle_box_csv():
    code, out = run(["oracle", "--box", "--count", "3", "--oracle-n", "512",
                     "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,eigenvalue,error"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)


def test_oracle_free_q0():
    code, out = run(["oracle", "--mode", "free", "--q", "0", "--m", "2",
                     "--count", "3", "--oracle-n", "1024"])
    assert code == 0
    rep = json.loads(out)
    vals = [float(e["extrapolated"]) for e in rep["eigenvalues"]]
    assert vals == pytest.approx([4.0, 8.0, 12.0], abs=1e-6)


def test_wavefunction_zero_samples():
    code, out = run(["wavefunction", "--mode", "field", "--j", "0", "--samples", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "r,f"
    assert lines[0].startswith("# gauge:")
    assert any("normalizability" in line for line in lines)


def test_wavefunction_root_index_out_of_range():
    code, _ = run(["wavefunction", "--mode", "field", "--j", "0",
                   "--root-index", "5"])
    assert code == 2


def test_derive_field_contains_published_shape():
    code, out = run(["derive", "--mode", "field", "--j", "1", "--q", "1"])
    assert code == 0
    rep = json.loads(out)
    winners = [c for c in rep["candidates"] if c.get("reproduces_published_ode")]
    assert len(winners) == 1
    op = winners[0]["reduced_operator"]
    assert "2" in op and "rho^2" in op  # (j+1) = 2 and the rho^2 band
    assert rep["published_reduced_operator"].startswith("(-1*rho)*D^2")


def test_derive_free_has_module_hamiltonian_block():
    code, out = run(["derive", "--mode", "free", "--j", "0", "--q", "1",
                     "--M", "1", "--omega", "1"])
    rep = json.loads(out)
    assert any(c.get("reproduces_published_ode") for c in rep["candidates"])
    blk = rep["module_hamiltonian"]
    assert blk["implied_offset_matches"] is True
    assert blk["published_offset_matches"] is False


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=field\nj=1\nq=2\ndigits=30\n# comment\n")
    code, out = run(["spectrum", "--config", str(cfg)])
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "field" and rep["j"] == 1
    assert rep["params"]["q"] == "2"
    # flags override the file
    code, out = run(["spectrum", "--config", str(cfg), "--q", "3"])
    assert json.loads(out)["params"]["q"] == "3"


def test_bad_config_file_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode field\n")
    code, _ = run(["spectrum", "--config", str(cfg), "--j", "0"])
    assert code == 2


def test_verify_fast_green():
    code, out = run(["verify", "--fast"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_fault_injection_names_invariant():
    code, out = run(["verify", "--fast", "--inject-fault", "sl2-sign"])
    assert code == 1
    assert "FAIL sl2-relations" in out


def test_compare_report_shape():
    code, out = run(["compare", "--mode", "field", "--j", "0", "--oracle-n", "512",
                     "--count", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["match_report"]["ledger_shifts_agree"] is True
    assert rep["match_report"]["ledger_shift_pipeline"] == "-4"
    assert {e["verdict"] for e in rep["match_report"]["entries"]} <= {"MATCHED", "UNMATCHED"}


def test_published_source_spectrum():
    code, out = run(["spectrum", "--mode", "field", "--j", "1", "--source", "published"])
    assert code == 0
    assert json.loads(out)["source"] == "published"


@pytest.mark.parametrize("argv", [
    ["oracle", "--mode", "free", "--q", "0", "--m", "2", "--count", "0", "--oracle-n", "512"],
    ["spectrum", "--mode", "field", "--j", "0", "--oracle", "--oracle-n", "512", "--count", "0"],
    ["spectrum", "--mode", "field", "--j", "0", "--oracle", "--oracle-n", "512", "--tol", "nan"],
    ["spectrum", "--mode", "field", "--j", "0", "--oracle", "--oracle-n", "512", "--tol", "inf"],
    ["spectrum", "--mode", "field", "--j", "0", "--oracle", "--oracle-n", "512", "--tol", "-1"],
    ["spectrum", "--mode", "free", "--j", "0", "--M", "1/0"],
    ["spectrum", "--mode", "free", "--j", "0", "--M", "abc"],
], ids=["count-0", "oracle-count-0", "tol-nan", "tol-inf", "tol-negative",
        "rational-zero-denominator", "rational-malformed"])
def test_bad_input_exits_2(argv):
    code, out = run(argv)
    assert code == 2
    assert out == ""


def test_config_file_bad_integer_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode=field\nj=one\n")
    code, _ = run(["spectrum", "--config", str(cfg)])
    assert code == 2


def test_derive_ledger_follows_convention():
    argv = ["--mode", "field", "--j", "1", "--convention", "printed"]
    code, out = run(["derive", *argv])
    assert code == 0
    shifts = {c["ledger"]["shift"] for c in json.loads(out)["candidates"] if "ledger" in c}
    code, out = run(["spectrum", *argv])
    assert code == 0
    assert shifts == {json.loads(out)["ledger"]["shift"]}


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_config_path_unreadable_exits_2(kind, tmp_path, capsys):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"mode=\xff\xfe\n")
    code, out = run(["spectrum", "--config", str(path), "--j", "0"])
    assert code == 2 and out == ""
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_rmax_not_finite_exits_2(value, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(["oracle", "--mode", "free", "--m", "3", "--count", "2",
                         "--oracle-n", "512", "--rmax", value])
    assert code == 2 and out == ""
    assert "rmax" in capsys.readouterr().err
    assert not caught


def test_negative_m_exits_2(capsys):
    code, out = run(["oracle", "--mode", "free", "--m", "-2", "--count", "2",
                     "--oracle-n", "512"])
    assert code == 2 and out == ""
    assert "m must be non-negative" in capsys.readouterr().err


def test_root_property_error_exits_2(capsys):
    # q < 0: the critical polynomial has no real roots, a finding about the input
    code, out = run(["spectrum", "--mode", "field", "--j", "3", "--q=-1"])
    assert code == 2 and out == ""
    assert "only 0 distinct real roots for degree 4" in capsys.readouterr().err
