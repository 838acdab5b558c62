"""Command-line tests: exit codes, determinism, report content."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sextic.cli import build_parser, main
from sextic.model import PhysicalParams
from sextic.qes import spectrum
from sextic.render import dumps, spectrum_json
from sextic.verify import FAULT_NAMES


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


def test_wavefunction_negative_samples_exits_2(capsys):
    code, out = run(["wavefunction", "--mode", "field", "--j", "2", "--samples=-3"])
    assert code == 2 and out == ""
    assert "samples must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_oracle_n_below_1_exits_2(value, capsys):
    code, out = run(["oracle", "--mode", "free", "--m", "2", "--count", "2",
                     f"--oracle-n={value}"])
    assert code == 2 and out == ""
    assert "oracle_n must be at least 1" in capsys.readouterr().err


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


def test_derive_gauge_index_selects_its_row(monkeypatch):
    # --gauge N indexes the viable candidates only; derive lists every candidate
    from sextic import cli
    from sextic.render import gauge_json
    chosen, block = [], cli.spectrum

    def recorded(params, j, mode, digits, rec):
        chosen.append(gauge_json(rec.gauge))
        return block(params, j, mode, digits, rec)

    monkeypatch.setattr(cli, "spectrum", recorded)
    for mode in ("free", "field"):
        for j in range(4):
            rows = json.loads(run(["derive", "--mode", mode, "--j", str(j)])[1])["candidates"]
            viable = [row for row in rows if "rejected" not in row]
            assert [row["gauge_index"] for row in viable] == list(range(len(viable)))
            assert all(row["gauge_index"] is None for row in rows if "rejected" in row)
            for row in viable:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, out = run(["spectrum", "--mode", mode, "--j", str(j),
                                     "--gauge", str(row["gauge_index"])])
                g = row["gauge"]
                if not row["recurrence"]["closes"]:  # refused before any block is built
                    assert code == 2 and not chosen
                    assert "does not close" in err.getvalue()
                    assert f"gauge r^({g['power']}) b={g['gaussian']} a={g['quartic']} " in (
                        err.getvalue())
                    continue
                assert "does not close" not in err.getvalue()
                assert chosen.pop() == g
                # a block without a full set of real roots exits 2 (RootPropertyError)
                assert code == 2 or json.loads(out)["gauge"] == g
    pretty = run(["derive", "--mode", "free", "--j", "1", "--format", "pretty"])[1]
    assert "\n[7] (--gauge 2) r^(-5/2) b=1 a=-1 " in pretty


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


@pytest.mark.parametrize("fault", [*FAULT_NAMES, "sl2-relations", "SL2-SIGN", ""])
def test_inject_fault_takes_only_a_fault_name(fault, capsys):
    code, out = run(["verify", "--fast", "--inject-fault", fault])
    if fault in FAULT_NAMES:
        assert code == 1
        assert "FAIL" in out
    else:  # a misspelt fault must not read as a passing suite
        assert (code, out) == (2, "")
        assert "invalid choice" in capsys.readouterr().err


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


@pytest.mark.parametrize("gauge", ["0", "3"])
def test_published_source_refuses_a_gauge_index(gauge, capsys):
    code, out = run(["spectrum", "--mode", "free", "--j", "1", "--source", "published",
                     "--gauge", gauge])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert f"--gauge {gauge}" in err and "--source published" in err


@pytest.mark.parametrize("command", ["spectrum", "compare", "wavefunction", "polys"])
@pytest.mark.parametrize("level, gauge, gamma", [
    (["--mode", "free", "--j", "2", "--gauge", "3"], "r^(-7/2) b=-1 a=1", "gamma_3 = 32"),
    (["--mode", "field", "--j", "1", "--gauge", "0"], "r^(7/2) b=0 a=1", "gamma_2 = 64"),
], ids=["free-j2-gauge3", "field-j1-gauge0"])
def test_a_gauge_that_does_not_close_its_module_is_refused(command, level, gauge, gamma,
                                                           capsys):
    # free j = 2 candidate 3 is decoupled: alpha_3 = 0 but gamma_3 != 0
    code, out = run([command, *level])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert f"gauge {gauge} does not close the module" in err and f"{gamma}, not 0" in err


def test_printed_convention_sizes_the_grid_for_its_own_operator():
    from sextic import oracle
    code, out = run(["oracle", "--mode", "field", "--m", "3", "--count", "4",
                     "--convention", "printed"])
    assert code == 0
    p = PhysicalParams.from_mapping({}).for_mode("field")
    want = oracle.suggest_grid(replace(p, convention="printed"), 3, "field", 4)
    assert json.loads(out)["grid"] == {"r_max": want.r_max, "n": want.n}
    assert want != oracle.suggest_grid(p, 3, "field", 4)


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


@pytest.mark.parametrize("command", ["derive", "polys", "spectrum", "compare", "wavefunction"])
def test_q_0_is_refused_before_any_output(command, capsys):
    code, out = run([command, "--mode", "field", "--j", "1", "--q", "0"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "sextic: configuration error: q = 0: the sextic term is absent and the algebraic "
        "block degenerates\n")


def test_config_file_bad_integer_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode=field\nj=one\n")
    code, _ = run(["spectrum", "--config", str(cfg)])
    assert code == 2


def test_the_library_builds_the_printed_block_the_cli_prints():
    code, out = run(["spectrum", "--mode", "field", "--j", "1", "--convention", "printed"])
    assert code == 0
    p = PhysicalParams.from_mapping({})
    assert out == dumps(spectrum_json(spectrum(replace(p, convention="printed"), 1, "field")))


def test_derive_ledger_follows_convention():
    argv = ["--mode", "field", "--j", "1", "--convention", "printed"]
    code, out = run(["derive", *argv])
    assert code == 0
    shifts = {c["ledger"]["shift"] for c in json.loads(out)["candidates"] if "ledger" in c}
    code, out = run(["spectrum", *argv])
    assert code == 0
    assert shifts == {json.loads(out)["ledger"]["shift"]}


@pytest.mark.parametrize("command", [["derive"], ["polys"], ["spectrum"], ["compare"],
                                     ["oracle", "--m", "3", "--count", "2"]],
                         ids=lambda command: command[0])
def test_the_params_name_a_convention_that_is_not_the_default(command):
    argv = [*command, "--mode", "field", "--j", "1", "--oracle-n", "256"]
    if command[0] in ("derive", "polys"):
        argv = argv[:-2]
    reports = {}
    for convention in ("consistent", "printed"):
        code, out = run([*argv, "--convention", convention])
        assert code == 0
        reports[convention] = json.loads(out)["params"]
    assert "convention" not in reports["consistent"]
    assert reports["printed"] == {**reports["consistent"], "convention": "printed"}


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


def test_rmax_underflow_exits_2(capsys):
    code, out = run(["oracle", "--box", "--rmax", "1e-300", "--count", "2"])
    assert code == 2 and out == ""
    assert "rmax" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1/2", "-3", "-0.5"])
def test_negative_value_as_separate_argument(value):
    argv = ["oracle", "--mode", "free", "--m", "2", "--oracle-n", "512", "--count", "2"]
    separate = run(argv + ["--q", value])
    assert separate[0] == 0
    assert separate == run(argv + [f"--q={value}"])


def test_option_after_option_is_still_an_option(capsys):
    code, out = run(["oracle", "--mode", "free", "--m", "2", "--q", "--count", "2"])
    assert code == 2 and out == ""
    assert "argument --q: expected one argument" in capsys.readouterr().err


def test_count_beyond_the_requested_grid_exits_2(capsys):
    code, out = run(["oracle", "--mode", "free", "--m", "2", "--count", "1100",
                     "--oracle-n", "1024"])
    assert code == 2 and out == ""
    assert "1023-dimensional system of a grid of n = 1024" in capsys.readouterr().err


def test_oracle_and_compare_default_to_n_1024():
    code, out = run(["oracle", "--mode", "free", "--q", "0", "--m", "2", "--count", "2"])
    assert code == 0 and json.loads(out)["grid"]["n"] == 1024
    argv = ["compare", "--mode", "field", "--j", "0"]
    assert run(argv) == run(argv + ["--oracle-n", "1024"])


def test_rounding_limited_oracle_record(capsys):
    # eps * ||T|| is about 1e20 at r_max = 1e6: the record is rounding noise
    code, out = run(["oracle", "--mode", "field", "--m", "3", "--rmax", "1e6",
                     "--count", "2", "--oracle-n", "512"])
    assert code == 0
    for rec in json.loads(out)["eigenvalues"]:
        assert "rounding-limited" in rec["flags"]
        assert float(rec["error"]) > abs(float(rec["extrapolated"]))


def test_finer_base_keeps_the_verdicts():
    # at base 8192 the finest floor is 2.8e-7 and two records are
    # rounding-limited, yet every record still takes part
    argv = ["compare", "--mode", "field", "--j", "1"]
    reports = []
    for extra in ([], ["--oracle-n", "8192"]):
        code, out = run(argv + extra)
        assert code == 0
        reports.append(json.loads(out)["match_report"])
    coarse, fine = reports
    assert any("rounding-limited" in r["flags"] for r in fine["oracle_eigenvalues"])
    for mr in reports:
        assert all(r["flags"] in ([], ["rounding-limited"]) for r in mr["oracle_eigenvalues"])
    bars = [{r["extrapolated"]: float(r["error"]) for r in mr["oracle_eigenvalues"]}
            for mr in reports]
    for a, b in zip(coarse["entries"], fine["entries"]):
        assert a["verdict"] == b["verdict"]
        gap = abs(float(a["nearest_oracle"]) - float(b["nearest_oracle"]))
        assert gap <= bars[0][a["nearest_oracle"]] + bars[1][b["nearest_oracle"]]


def test_match_entries_carry_oracle_flags():
    code, out = run(["compare", "--mode", "free", "--j", "0", "--M", "3", "--omega", "2",
                     "--q", "1/3", "--count", "5"])
    assert code == 0
    mr = json.loads(out)["match_report"]
    flags = {r["extrapolated"]: r["flags"] for r in mr["oracle_eigenvalues"]}
    assert flags[mr["oracle_eigenvalues"][1]["extrapolated"]] == ["near-degenerate"]
    for entry in mr["entries"]:
        assert entry["oracle_flags"] == flags[entry["nearest_oracle"]]


@pytest.mark.parametrize("argv", [
    ["oracle", "--mode", "free", "--j", "1", "--c", "1e-300", "--oracle-n", "128"],
    ["compare", "--mode", "field", "--j", "0", "--c", "1e-300", "--oracle-n", "128"],
    ["oracle", "--mode", "free", "--j", "0", "--c", "1e300", "--oracle-n", "128"],
], ids=["kinetic-underflow", "compare-kinetic-underflow", "coefficient-overflow"])
def test_operator_without_a_float_image_exits_2(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    assert "float" in capsys.readouterr().err


@pytest.mark.parametrize("window", [
    ["--r-from", "0"], ["--r-to", "-0.0"], ["--r-from", "-3"], ["--r-to", "nan"],
    ["--r-from", "inf"], ["--r-from", "1e300", "--samples", "3"],
], ids=["zero", "negative-zero", "negative", "nan", "inf", "rounds-to-zero"])
def test_wavefunction_window_must_be_positive(window, capsys):
    code, out = run(["wavefunction", "--mode", "field", "--j", "0", *window])
    assert code == 2 and out == ""
    assert "finite and positive" in capsys.readouterr().err


_FAR = ["wavefunction", "--mode", "free", "--j", "1", "--samples", "3"]


def test_a_far_wavefunction_window_is_refused_before_sampling(capsys):
    # |b r^2/2h + a r^4/4h| = r^2/2 - r^4/4 at b = 1, a = -1, h = 1: about 2.5e1199
    # at r = 1e300, where one sample took seconds
    start = time.perf_counter()
    code, out = run([*_FAR, "--r-to", "1e300"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "exceeds 1e+300" in capsys.readouterr().err
    assert run([*_FAR, "--r-to", "1e76"])[0] == 2  # 2.5e303
    assert run([*_FAR, "--r-to", "1e75", "--samples", "0"])[0] == 0  # nothing is sampled


def test_an_in_bound_wavefunction_window_is_unchanged():
    code, out = run([*_FAR, "--r-to", "1e20"])
    assert code == 0
    assert out.splitlines()[-3:] == [
        "0.1,313.08514761755958",
        "5e+19,-2.7253095369887982e+6785851279738309807048889358071954410844524534658499447"
        "69270101415061821463766",
        "1e+20,-1.1718345742557903e+1085736204758129569127822297291512705735775367268214789"
        "3723088840020209458521423",
    ]
    code, out = run([*_FAR, "--r-to", "1.4e75"])  # 9.6e299, just inside the bound
    assert code == 0 and out.splitlines()[-1].startswith("1.4e+75,")


def test_the_parser_is_built_once_and_holds_no_state_between_calls():
    assert build_parser() is build_parser()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    calls = [["polys", "--mode", "field", "--j", "1", "--bogus"],
             ["polys", "--mode", "field", "--j", "1"]]
    alone = [subprocess.run([sys.executable, "-m", "sextic.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in calls]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        together = [run(argv) for argv in calls]
    assert [(a.returncode, a.stdout) for a in alone] == together
    assert together[0][0] == 2 and together[1][0] == 0


def test_a_verdict_respects_the_record_bar():
    code, out = run(["spectrum", "--mode", "field", "--j", "1", "--oracle", "--rmax", "1e6",
                     "--oracle-n", "256", "--count", "4"])
    assert code == 0
    mr = json.loads(out)["match_report"]
    assert max(float(r["error"]) for r in mr["oracle_eigenvalues"]) > 1e20
    for entry in mr["entries"]:
        assert entry["nearest_oracle"] is None and entry["verdict"] == "UNMATCHED"


def test_oracle_rejects_m_0_outside_the_box(capsys):
    code, out = run(["oracle", "--mode", "free", "--q", "0", "--m", "0", "--count", "2"])
    assert code == 2 and out == ""
    assert "m >= 1 outside the box" in capsys.readouterr().err
    assert run(["oracle", "--box", "--m", "0", "--count", "2", "--oracle-n", "64"])[0] == 0
    assert run(["oracle", "--mode", "free", "--q", "0", "--m", "1", "--count", "2",
                "--oracle-n", "512"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--fast", "--mode", "field"],
    ["verify", "--fast", "--M", "0"],
    ["spectrum", "--mode", "field", "--j", "0", "--format", "csv"],
    ["polys", "--mode", "field", "--j", "0", "--format", "csv"],
    ["derive", "--mode", "field", "--j", "0", "--digits", "30"],
    ["wavefunction", "--mode", "field", "--j", "0", "--format", "json"],
    ["compare", "--mode", "field", "--j", "0", "--source", "published"],
])
def test_an_option_the_command_does_not_read_exits_2(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("line", ["omgea=3", "samples=3", "config=other.cfg"])
def test_a_config_key_the_command_does_not_read_exits_2(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=field\nj=0\n{line}\n")
    code, out = run(["spectrum", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert "spectrum reads no key" in capsys.readouterr().err


def test_config_keys_are_the_option_names(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=field\nj=0\nsamples=2\nr_from=0.5\nr_to=1\n")
    code, out = run(["wavefunction", "--config", str(cfg)])
    assert code == 0
    assert out == run(["wavefunction", "--mode", "field", "--j", "0", "--samples", "2",
                       "--r-from", "0.5", "--r-to", "1"])[1]


# -- argv fuzz: every argv exits 0 or 2, and 2 writes nothing to stdout ------

_FLOATS = ["1e300", "1e-300", "0.5", "nan", "inf", "-inf", "-0.0", "0", "-1e300", "-3"]
_RATIONALS = ["1e-300", "1e300", "-1/2", "3/4", "2", "0", "-0.0", "-1e-300", "1/0", "abc",
              "1/2/3", "3/", ""]
_FUZZ_VALUES = {
    "--mode": ["free", "field", "box"],
    "--j": ["0", "1", "-1", "x"],
    "--m": ["0", "1", "2", "3", "-2"],
    **{f"--{key}": _RATIONALS for key in ("M", "c", "hbar", "omega", "q", "e", "B")},
    "--digits": ["15", "60", "5"],
    "--oracle-n": ["64", "128", "256", "63", "0", "-8"],
    "--rmax": ["1e6", "1e-10", "5"] + _FLOATS,
    "--count": ["1", "4", "0", "-3"],
    "--tol": _FLOATS,
    "--format": ["json", "csv", "pretty", "xml"],
    "--gauge": ["auto", "0", "1", "9", "-1", "x"],
    "--convention": ["consistent", "printed", "other"],
    "--source": ["derived", "published"],
    "--root-index": ["0", "1", "3", "-1"],
    "--r-from": _FLOATS,
    "--r-to": _FLOATS,
    "--samples": ["0", "1", "3", "-1"],
    "--inject-fault": ["sl2-sign"],
    "--oracle": None, "--box": None, "--fast": None,
}
_MODEL_FLAGS = ("--mode", "--j", "--m", "--M", "--c", "--hbar", "--omega", "--q", "--e", "--B")
# the flags each command reads; the first ones go into every draw, so that
# no draw is expensive (--oracle-n at most 256, --samples at most 3)
_READS = {
    "derive": ("--j", *_MODEL_FLAGS, "--convention", "--format"),
    "polys": ("--j", *_MODEL_FLAGS, "--gauge", "--convention", "--format"),
    "spectrum": ("--j", "--oracle-n", *_MODEL_FLAGS, "--digits", "--gauge", "--convention",
                 "--source", "--rmax", "--count", "--tol", "--format", "--oracle"),
    "oracle": ("--j", "--oracle-n", *_MODEL_FLAGS, "--convention", "--rmax", "--count",
               "--format", "--box"),
    "wavefunction": ("--j", "--samples", *_MODEL_FLAGS, "--digits", "--gauge", "--convention",
                     "--root-index", "--r-from", "--r-to"),
    "compare": ("--j", "--oracle-n", *_MODEL_FLAGS, "--digits", "--gauge", "--convention",
                "--rmax", "--count", "--tol", "--format"),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_READS)))
    reads = _READS[command]
    base = reads[:reads.index("--mode")]
    chosen = list(base) + draw(st.lists(st.sampled_from(reads[len(base):]), unique=True,
                                        max_size=4))
    chosen += draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=1))  # any flag
    flags = {}
    for flag in chosen:
        pool = _FUZZ_VALUES[flag]
        flags[flag] = None if pool is None else draw(
            st.sampled_from(pool[:3] if flag in base else pool))
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=20), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_argv_fuzz_exits_0_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(argv)
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 2:
        assert out == ""


def _golden():
    path = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_argvs_get_past_the_parser():
    golden = _golden()
    assert set(golden.FAULT_NAMES) == set(FAULT_NAMES)
    parser = build_parser()
    refused = [argv for argv in golden.ARGVS if not _parses(parser, argv)]
    bogus = ["oracle", "--mode", "field", "--m", "3", "--count", "3", "--convention", "bogus"]
    assert refused == [bogus] + [["verify", "--fast", "--inject-fault", name]
                                 for name in golden.UNKNOWN_FAULTS]


def _parses(parser, argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parser.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


def test_each_command_registers_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def registered(command):
        return {flag for action in sub.choices[command]._actions
                for flag in action.option_strings} - {"-h", "--help"}

    for command, reads in _READS.items():
        assert registered(command) == {*reads, "--config"}, command
    assert registered("verify") == {"--fast", "--inject-fault"}


# -- the pretty match lines of spectrum --oracle ---------------------------

_FIELD_J1_BLOCK = (
    "algebraic block, mode=field, j=1 (m=3), source=derived\n"
    "ledger: physical = reduced + (-8)\n"
    "  root 0: reduced -5.65685424949238019520675489683879231427868750150779  "
    "physical -13.65685424949238019520675489683879231427868750150779  [subcritical: no real E]\n"
    "  root 1: reduced 5.65685424949238019520675489683879231427868750150779  "
    "physical -2.34314575050761980479324510316120768572131249849221  [subcritical: no real E]\n")


@pytest.mark.parametrize("extra, lines", [
    ([], ["  match root 0: UNMATCHED (nearest 10.682442023247496, rel gap 1.7822037072442622)",
          "  match root 1: UNMATCHED (nearest 10.682442023247496, rel gap 5.559017304379486)"]),
    (["--oracle-n", "8192"],
     ["  match root 0: UNMATCHED (nearest 10.682442006693735, rel gap 1.7822037060321414, "
      "oracle flags rounding-limited)",
      "  match root 1: UNMATCHED (nearest 10.682442006693735, rel gap 5.5590172973147265, "
      "oracle flags rounding-limited)"]),
    (["--rmax", "1e6", "--oracle-n", "256", "--count", "4"],
     ["  match root 0: UNMATCHED (nearest None, rel gap None)",
      "  match root 1: UNMATCHED (nearest None, rel gap None)"]),
], ids=["default", "flagged-record", "no-record"])
def test_pretty_spectrum_match_lines(extra, lines):
    code, out = run(["spectrum", "--mode", "field", "--j", "1", "--oracle", "--format", "pretty",
                     *extra])
    assert code == 0
    assert out == _FIELD_J1_BLOCK + "".join(line + "\n" for line in lines)


# -- LAPACK dstebz outside its range ---------------------------------------

@pytest.mark.parametrize("argv", [
    ["oracle", "--mode", "free", "--j", "0", "--oracle-n", "128", "--hbar", "1e100"],
    ["compare", "--mode", "field", "--j", "0", "--oracle-n", "128", "--c", "1e100"],
    ["oracle", "--box", "--oracle-n", "128", "--rmax", "1e-100"],
    ["oracle", "--box", "--oracle-n", "128", "--rmax", "1e100", "--count", "2"],
], ids=["huge-hbar", "compare-huge-c", "tiny-box", "huge-box"])
def test_a_system_outside_the_dstebz_range_exits_2(argv, capsys):
    # the huge box exited 0 with 5.24e-195 +- 4.9e-195 for the exact 9.87e-200
    code, out = run(argv)
    assert code == 2 and out == ""
    assert "dstebz" in capsys.readouterr().err


def test_the_refusal_names_the_norm_of_the_coarsest_level(capsys):
    # the h level is refused before the h/2 level (norm 2.62e+205) is built: its
    # ||T|| = 4 / h^2 with h = 1e-100 / 128
    assert run(["oracle", "--box", "--oracle-n", "128", "--rmax", "1e-100"]) == (2, "")
    assert capsys.readouterr().err == (
        "sextic: configuration error: the tridiagonal system has norm 6.55e+204, outside "
        "[1e-135, 1e+135] where LAPACK dstebz is sound; rescale the parameters or r_max\n")


# -- each command derives its block once -----------------------------------

def _count_calls(monkeypatch, *names):
    """Wrap each named pipeline function on the qes and cli modules with a call counter."""
    from sextic import cli, qes
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(qes, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module in (qes, cli):
            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("argv, derivations, searches", [
    (["compare", "--mode", "field", "--j", "3"], 1, 0),
    (["compare", "--mode", "free", "--j", "3"], 1, 0),
    (["compare", "--mode", "free", "--j", "0", "--gauge", "3"], 13, 1),
    (["wavefunction", "--mode", "free", "--j", "1", "--samples", "3"], 1, 0),
    (["derive", "--mode", "free", "--j", "3"], 12, 1),
    (["polys", "--mode", "free", "--j", "3", "--gauge", "2"], 12, 1),
], ids=["compare-field", "compare-free", "compare-gauge-3", "wavefunction", "derive-free",
        "polys-gauge-2"])
def test_each_command_derives_its_block_once(argv, derivations, searches, monkeypatch):
    # a gauge search derives each of its 12 candidates, and spectrum reuses the
    # chosen one; crosspath_comparison reuses the block when it is the canonical
    # free block and derives that block itself otherwise (free j = 0 candidate 3
    # closes its module but is not it)
    counts = _count_calls(monkeypatch, "derived_recurrence", "gauge_search")
    extra = ["--oracle-n", "128"] if argv[0] == "compare" else []
    assert run(argv + extra)[0] == 0
    assert counts == {"derived_recurrence": derivations, "gauge_search": searches}


def test_the_wavefunction_check_derives_each_block_once(monkeypatch):
    from sextic import verify
    counts = _count_calls(monkeypatch, "derived_recurrence")
    assert verify.check_wavefunction_residual().passed
    assert counts == {"derived_recurrence": 8}  # 2 modes x j = 0..3
