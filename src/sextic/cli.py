"""Command-line front end.

Subcommands: derive, polys, spectrum, oracle, wavefunction, verify, compare.
Exit codes: 0 success (findings such as table mismatches are still 0),
1 internal or invariant failure, 2 usage/configuration error or parameters
without a real simple algebraic block (RootPropertyError).  Identical
configuration gives byte-identical JSON output.  Output is plain text
(NO_COLOR trivially honored).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import mpmath

from . import oracle as oracle_mod
from . import tables, verify
from .model import ConfigError, DomainError, PhysicalParams
from .opcalc import GaugeError, NotQesError
from .qes import (QesSpectrum, RootPropertyError, canonical_gauge,
                  crosspath_comparison, derived_recurrence, gauge_search,
                  ledger_shift_direct, polynomial_family, published_recurrence,
                  spectrum, wavefunction)
from .render import (dumps, enclosure_json, frac_str, gauge_json,
                     ledger_json, poly_json, poly_text, spectrum_json)

PARAM_KEYS = ("M", "c", "hbar", "omega", "q", "e", "B")


@dataclass
class RunConfig:
    mode: str = "free"
    j: Optional[int] = None
    m: Optional[int] = None
    params: PhysicalParams = None
    digits: int = 50
    oracle_n: int = 8192
    r_max: Optional[float] = None
    count: Optional[int] = None
    tol: float = 1e-4
    fmt: str = "json"
    gauge_policy: str = "auto"
    convention: str = "consistent"
    source: str = "derived"

    def level(self) -> int:
        if self.j is not None:
            return self.j
        if self.m is not None:
            return self.m - 2
        raise ConfigError("specify --j or --m")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for line_no, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()

    def pick(name, cast, default=None):
        flag = getattr(args, name, None)
        if flag is None and name not in file_vals:
            return default
        value = flag if flag is not None else file_vals[name]
        try:
            return cast(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    cfg.mode = pick("mode", str, "free")
    if cfg.mode not in ("free", "field"):
        raise ConfigError(f"mode must be free or field, got {cfg.mode!r}")
    cfg.j = pick("j", int)
    cfg.m = pick("m", int)
    if cfg.j is not None and cfg.m is not None and cfg.m != cfg.j + 2:
        raise ConfigError(f"m = j + 2 required (got m={cfg.m}, j={cfg.j})")
    for name in ("j", "m"):
        if getattr(cfg, name) is not None and getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be non-negative")
    cfg.digits = pick("digits", int, 50)
    if cfg.digits < 15:
        raise ConfigError("digits must be at least 15")
    cfg.oracle_n = pick("oracle_n", int, 8192)
    cfg.r_max = pick("rmax", float)
    if cfg.r_max is not None and not (math.isfinite(cfg.r_max) and cfg.r_max > 0):
        raise ConfigError(f"rmax must be finite and positive, got {cfg.r_max}")
    cfg.count = pick("count", int)
    if cfg.count is not None and cfg.count < 1:
        raise ConfigError(f"count must be at least 1, got {cfg.count}")
    cfg.tol = pick("tol", float, 1e-4)
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        raise ConfigError(f"tol must be finite and non-negative, got {cfg.tol}")
    cfg.fmt = pick("format", str, "json")
    if cfg.fmt not in ("json", "csv", "pretty"):
        raise ConfigError(f"format must be json, csv or pretty, got {cfg.fmt!r}")
    cfg.gauge_policy = pick("gauge", str, "auto")
    cfg.convention = pick("convention", str, "consistent")
    cfg.source = pick("source", str, "derived")
    if cfg.source not in ("derived", "published"):
        raise ConfigError("source must be derived or published")

    raw = {}
    for key in PARAM_KEYS:
        val = pick(key, str)
        if val is not None:
            raw[key] = val
    cfg.params = PhysicalParams.from_mapping(raw)
    if cfg.mode == "field" and cfg.params.B is None:
        cfg.params = cfg.params.with_qes_field()
    return cfg


def _select_gauge(cfg: RunConfig, j: int):
    if cfg.gauge_policy == "auto":
        return canonical_gauge(cfg.params, j + 2, cfg.mode)
    try:
        index = int(cfg.gauge_policy)
    except ValueError as exc:
        raise ConfigError("gauge must be 'auto' or a candidate index") from exc
    candidates = gauge_search(cfg.params, j, cfg.mode, convention=cfg.convention)
    if not 0 <= index < len(candidates):
        raise ConfigError(f"gauge index {index} out of range 0..{len(candidates) - 1}")
    return candidates[index].gauge


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def cmd_derive(cfg: RunConfig, out: TextIO) -> int:
    j = cfg.level()
    cfg.params.require_qes()
    candidates = gauge_search(cfg.params, j, cfg.mode, include_failures=True,
                              convention=cfg.convention)
    rows = []
    for idx, cand in enumerate(candidates):
        row = {"index": idx, "gauge": gauge_json(cand.gauge)}
        if cand.viable:
            rec = cand.recurrence
            row.update({
                "reduced_operator": rec.operator.canonical_text(),
                "recurrence": {
                    "alpha_k": poly_text(rec.alpha, var="k"),
                    "beta_k": poly_text(rec.beta, var="k"),
                    "gamma_k": poly_text(rec.gamma, var="k"),
                    "truncation_index": rec.truncation_index,
                },
                "ledger": ledger_json(cand.ledger),
                "reproduces_published_ode": cand.diagnostics["reproduces_published_ode"],
                "published_constant": frac_str(cand.diagnostics["published_constant"]),
                "constant_consistent": cand.diagnostics["constant_consistent"],
            })
        else:
            row["rejected"] = cand.error
        rows.append(row)
    report = {
        "command": "derive",
        "mode": cfg.mode,
        "j": j,
        "m": j + 2,
        "params": cfg.params.as_dict(),
        "published_reduced_operator":
            tables.published_reduced_operator(cfg.params, j + 2, cfg.mode).canonical_text(),
        "candidates": rows,
    }
    if cfg.mode == "free":
        cp = crosspath_comparison(cfg.params, j)
        report["module_hamiltonian"] = {"charpoly": poly_json(cp["charpoly_module"]),
                                        **_module_hamiltonian(cp)}
    if cfg.fmt == "pretty":
        out.write(f"gauge candidates, mode={cfg.mode}, j={j} (m={j + 2})\n")
        for row in rows:
            g = row["gauge"]
            head = f"[{row['index']}] r^({g['power']}) b={g['gaussian']} a={g['quartic']}  ({g['normalizability']})"
            if "rejected" in row:
                out.write(f"{head}\n    rejected: {row['rejected']}\n")
            else:
                out.write(f"{head}\n    operator: {row['reduced_operator']}\n")
                out.write(f"    alpha_k = {row['recurrence']['alpha_k']}; "
                          f"beta_k = {row['recurrence']['beta_k']}; "
                          f"gamma_k = {row['recurrence']['gamma_k']}\n")
                out.write(f"    ledger shift = {row['ledger']['shift']}; "
                          f"reproduces published operator: {row['reproduces_published_ode']}\n")
        out.write(f"published operator: {report['published_reduced_operator']}\n")
    else:
        out.write(dumps(report))
    return 0


def _module_hamiltonian(cp: dict) -> dict:
    """How the published sl2 combination relates to the derived free-mode block,
    from a :func:`crosspath_comparison` result."""
    return {
        "published_offset": frac_str(cp["offset_published"]),
        "published_offset_matches": cp["published_offset_matches"],
        "implied_offset": frac_str(cp["offset_implied"]),
        "implied_offset_matches": cp["implied_offset_matches"],
        "q_sign_flipped": cp["q_flipped_in_module_hamiltonian"],
    }


# ---------------------------------------------------------------------------
# polys
# ---------------------------------------------------------------------------


def _term_diff(derived, published) -> list[dict]:
    top = max(derived.degree, published.degree)
    rows = []
    for power in range(top, -1, -1):
        dv, pv = derived.coeff(power), published.coeff(power)
        rows.append({"power": power, "derived": frac_str(dv),
                     "published": frac_str(pv), "match": dv == pv})
    return rows


def polys_report(cfg: RunConfig, j: int) -> dict:
    params = cfg.params
    rec_d, _ = derived_recurrence(params, j, _select_gauge(cfg, j), cfg.mode, cfg.convention)
    fam_d = polynomial_family(rec_d)
    rec_p = published_recurrence(params, j, cfg.mode)
    fam_p = polynomial_family(rec_p)

    if cfg.mode == "free":
        table = tables.published_free_table(params)
        table = {n: p.monic() for n, p in table.items()}
        compare_d = fam_d.in_physical_variable()
        compare_p = fam_p.in_physical_variable()
    else:
        table = {n: tables.published_field_table(params, n)
                 for n in tables.FIELD_TABLE_COEFFS}
        compare_d = fam_d
        compare_p = fam_p

    diffs = []
    n = j + 1
    if n in table:
        rows = _term_diff(compare_d.critical, table[n])
        diffs.append({"degree": n, "verdict": "MATCH" if all(r["match"] for r in rows) else "MISMATCH",
                      "source": "derived-vs-table", "terms": rows})
        rows_p = _term_diff(compare_p.critical, table[n])
        diffs.append({"degree": n, "verdict": "MATCH" if all(r["match"] for r in rows_p) else "MISMATCH",
                      "source": "published-recurrence-vs-table", "terms": rows_p})
    u = None
    from .model import eta_squared
    if cfg.mode == "field":
        u = eta_squared(params)
    return {
        "command": "polys",
        "mode": cfg.mode,
        "j": j,
        "normalization": "monic",
        "variable": compare_d.variable,
        "params": params.as_dict(),
        "derived": {f"P_{k}": poly_json(p) for k, p in enumerate(compare_d.polys)},
        "derived_text": {f"P_{k}": poly_text(p, unit=u) for k, p in enumerate(compare_d.polys)},
        "published_recurrence_family": {f"P_{k}": poly_json(p)
                                        for k, p in enumerate(compare_p.polys)},
        "published_recurrence_degenerate_rows": list(fam_p.degenerate_rows),
        "table_comparison": diffs,
        "ledger": ledger_json(fam_d.ledger),
    }


def cmd_polys(cfg: RunConfig, out: TextIO) -> int:
    j = cfg.level()
    cfg.params.require_qes()
    report = polys_report(cfg, j)
    if cfg.fmt == "pretty":
        out.write(f"energy polynomials, mode={cfg.mode}, j={j}, monic, "
                  f"variable={report['variable']}\n")
        for name, text in report["derived_text"].items():
            out.write(f"  {name} = {text}\n")
        for diff in report["table_comparison"]:
            out.write(f"{diff['source']} (degree {diff['degree']}): {diff['verdict']}\n")
            for row in diff["terms"]:
                if not row["match"]:
                    out.write(f"    x^{row['power']}: derived {row['derived']} "
                              f"vs published {row['published']}\n")
    else:
        out.write(dumps(report))
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, out: TextIO, with_oracle: bool = False) -> int:
    j = cfg.level()
    cfg.params.require_qes()
    gauge = _select_gauge(cfg, j) if cfg.source == "derived" else None
    spec = spectrum(cfg.params, j, cfg.mode, cfg.source, gauge, cfg.digits, cfg.convention)
    report = spectrum_json(spec, cfg.digits)
    if with_oracle:
        report["match_report"] = _run_match(cfg, spec, j)
    if cfg.fmt == "pretty":
        out.write(f"algebraic block, mode={cfg.mode}, j={j} (m={j + 2}), source={cfg.source}\n")
        out.write(f"ledger: physical = reduced + ({report['ledger']['shift']})\n")
        for r in report["roots"]:
            line = (f"  root {r['index']}: reduced {r['reduced']['value']}  "
                    f"physical {r['physical']['value']}")
            if "subcritical_violation" in r["energy"]:
                line += "  [subcritical: no real E]"
            else:
                line += f"  E = +-{r['energy']['plus']}"
            out.write(line + "\n")
        if with_oracle:
            for e in report["match_report"]["entries"]:
                out.write(f"  match root {e['root_index']}: {e['verdict']} "
                          f"(nearest {e['nearest_oracle']}, rel gap {e['relative_gap']})\n")
    else:
        out.write(dumps(report))
    return 0


def _oracle_grid(cfg: RunConfig, m: int, mode: str, default_count: int):
    """(count, grid) of a numerical solve: --count, else the default; --rmax, else
    the suggested domain (the box defaults to (0, pi) and takes at least 64 intervals)."""
    count = default_count if cfg.count is None else cfg.count
    if mode == "box":
        r_max = math.pi if cfg.r_max is None else cfg.r_max
        return count, oracle_mod.Grid(r_max, max(64, cfg.oracle_n))
    if cfg.r_max is not None:
        return count, oracle_mod.Grid(cfg.r_max, cfg.oracle_n)
    return count, oracle_mod.suggest_grid(cfg.params, m, mode, count, n=cfg.oracle_n)


def _run_match(cfg: RunConfig, spec: QesSpectrum, j: int) -> dict:
    count, grid = _oracle_grid(cfg, j + 2, cfg.mode, j + 5)
    osp = oracle_mod.refine(cfg.params, j + 2, cfg.mode, count, grid, cfg.convention)
    rep = oracle_mod.match_report(spec, osp, cfg.tol)
    direct = ledger_shift_direct(cfg.params, j + 2, cfg.mode,
                                 spec.gauge or canonical_gauge(cfg.params, j + 2, cfg.mode),
                                 cfg.convention)
    return {
        "tolerance": cfg.tol,
        "ledger_shift_pipeline": str(spec.ledger.shift),
        "ledger_shift_direct": str(direct),
        "ledger_shifts_agree": spec.ledger.shift == direct,
        "oracle_eigenvalues": [{"index": r.index, "value": repr(r.extrapolated),
                                "error": repr(r.error_estimate),
                                "order": None if r.observed_order is None
                                else round(r.observed_order, 3),
                                "flags": list(r.flags)} for r in osp.records],
        "entries": [{
            "root_index": e.root_index,
            "qes_physical": repr(e.qes_value),
            "nearest_oracle": None if e.nearest_oracle is None else repr(e.nearest_oracle),
            "absolute_gap": None if e.absolute_gap is None else repr(e.absolute_gap),
            "relative_gap": None if e.relative_gap is None else repr(e.relative_gap),
            "verdict": e.verdict,
        } for e in rep.entries],
        "matched": rep.matched,
        "unmatched": len(rep.entries) - rep.matched,
    }


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(cfg: RunConfig, out: TextIO, box: bool = False) -> int:
    if box:
        mode, m, params = "box", 0, None
    else:
        mode, params = cfg.mode, cfg.params
        m = cfg.m if cfg.m is not None else cfg.level() + 2
    count, grid = _oracle_grid(cfg, m, mode, 6)
    spec = oracle_mod.refine(params, m, mode, count, grid, cfg.convention)
    if cfg.fmt == "csv":
        out.write("n,eigenvalue,error\n")
        for rec in spec.records:
            out.write(f"{rec.index},{rec.extrapolated!r},{rec.error_estimate!r}\n")
        return 0
    report = {
        "command": "oracle",
        "mode": mode,
        "m": m,
        "params": None if box else cfg.params.as_dict(),
        "grid": {"r_max": spec.grid.r_max, "n": spec.grid.n},
        "eigenvalues": [{
            "index": rec.index,
            "value_h": repr(rec.value_h),
            "value_h2": repr(rec.value_h2),
            "value_h4": repr(rec.value_h4),
            "extrapolated": repr(rec.extrapolated),
            "observed_order": None if rec.observed_order is None
            else round(rec.observed_order, 4),
            "error": repr(rec.error_estimate),
            "flags": list(rec.flags),
        } for rec in spec.records],
    }
    if cfg.fmt == "pretty":
        out.write(f"numerical spectrum, mode={mode}, m={m}, r_max={spec.grid.r_max:.6g}, "
                  f"n={spec.grid.n}\n")
        for rec in spec.records:
            order = "-" if rec.observed_order is None else f"{rec.observed_order:.3f}"
            out.write(f"  {rec.index}: {rec.extrapolated!r} +- {rec.error_estimate:.2e} "
                      f"(order {order}{', ' + ','.join(rec.flags) if rec.flags else ''})\n")
    else:
        out.write(dumps(report))
    return 0


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------


def cmd_wavefunction(cfg: RunConfig, out: TextIO, root_index: int,
                     r_from: float, r_to: float, samples: int) -> int:
    j = cfg.level()
    cfg.params.require_qes()
    gauge = _select_gauge(cfg, j)
    spec = spectrum(cfg.params, j, cfg.mode, "derived", gauge, cfg.digits, cfg.convention)
    if not 0 <= root_index < len(spec.roots_reduced):
        raise ConfigError(f"root index {root_index} out of range 0..{len(spec.roots_reduced) - 1}")
    wf = wavefunction(cfg.params, j, spec.roots_reduced[root_index], cfg.mode,
                      gauge, cfg.digits)
    out.write(f"# gauge: power={frac_str(gauge.power)} gaussian={frac_str(gauge.gaussian)} "
              f"quartic={frac_str(gauge.quartic)}\n")
    out.write(f"# normalizability: {wf.normalizability}\n")
    out.write(f"# reduced eigenvalue: {enclosure_json(spec.roots_reduced[root_index], cfg.digits)['value']}\n")
    out.write(f"# f sampled from the closed form at a {cfg.digits}-digit root, "
              f"rounded to 17 significant digits\n")
    out.write("r,f\n")
    if samples <= 0:
        return 0
    with mpmath.workdps(cfg.digits + 10):
        for i in range(samples):
            r = r_from + (r_to - r_from) * i / max(1, samples - 1)
            val = wf(mpmath.mpf(r))
            out.write(f"{r!r},{mpmath.nstr(val, 17)}\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, out: TextIO, fast: bool, fault: Optional[str]) -> int:
    results = verify.run_checks(fast=fast, fault=fault)
    failed = [r for r in results if not r.passed]
    for r in results:
        out.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    out.write(f"{len(results) - len(failed)}/{len(results)} invariants hold\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(cfg: RunConfig, out: TextIO) -> int:
    j = cfg.level()
    cfg.params.require_qes()
    gauge = _select_gauge(cfg, j)
    spec = spectrum(cfg.params, j, cfg.mode, "derived", gauge, cfg.digits, cfg.convention)
    report = {
        "command": "compare",
        "mode": cfg.mode,
        "j": j,
        "m": j + 2,
        "params": cfg.params.as_dict(),
        "polys": polys_report(cfg, j),
        "spectrum": spectrum_json(spec, cfg.digits),
        "match_report": _run_match(cfg, spec, j),
    }
    if cfg.mode == "free":
        report["module_hamiltonian"] = _module_hamiltonian(crosspath_comparison(cfg.params, j))
    if cfg.fmt == "pretty":
        out.write(f"reconciliation report, mode={cfg.mode}, j={j}\n")
        for diff in report["polys"]["table_comparison"]:
            out.write(f"  {diff['source']} degree {diff['degree']}: {diff['verdict']}\n")
        mr = report["match_report"]
        out.write(f"  ledger shifts agree: {mr['ledger_shifts_agree']} "
                  f"(pipeline {mr['ledger_shift_pipeline']}, direct {mr['ledger_shift_direct']})\n")
        out.write(f"  matched {mr['matched']} / unmatched {mr['unmatched']} "
                  f"at tol {mr['tolerance']}\n")
    else:
        out.write(dumps(report))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 but avoid killing embedding callers
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--mode", choices=["free", "field"])
    p.add_argument("--j", type=int)
    p.add_argument("--m", type=int)
    for key in ("M", "c", "hbar", "omega", "q", "e", "B"):
        p.add_argument(f"--{key}")
    p.add_argument("--digits", type=int)
    p.add_argument("--format", choices=["json", "csv", "pretty"])
    p.add_argument("--gauge", help="auto (default) or viable-candidate index")
    p.add_argument("--convention", choices=["consistent", "printed"])
    p.add_argument("--source", choices=["derived", "published"])
    p.add_argument("--oracle-n", dest="oracle_n", type=int)
    p.add_argument("--rmax", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sextic",
                     description="algebraic block, reconciliation reports and the "
                                 "numerical eigensolver of the planar sextic oscillator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("derive", "gauge candidates, reduced operators, recurrences and ledgers"),
        ("polys", "energy polynomial tables and the comparison against the published ones"),
        ("spectrum", "algebraic-block roots, energies and coefficients"),
        ("oracle", "numerical eigenvalues with convergence certificates"),
        ("wavefunction", "sample one closed-form block eigenfunction"),
        ("verify", "run the invariant suite"),
        ("compare", "polys + spectrum + oracle + match in one report"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "spectrum":
            p.add_argument("--oracle", action="store_true",
                           help="append a match report against the numerical solver")
        if name == "oracle":
            p.add_argument("--box", action="store_true",
                           help="debug potential: particle in a box")
        if name == "wavefunction":
            p.add_argument("--root-index", type=int, default=0)
            p.add_argument("--r-from", type=float, default=0.1)
            p.add_argument("--r-to", type=float, default=3.0)
            p.add_argument("--samples", type=int, default=60)
        if name == "verify":
            p.add_argument("--fast", action="store_true",
                           help="skip the numerical-solver checks")
            p.add_argument("--inject-fault", dest="fault",
                           help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None, stream: Optional[TextIO] = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _build_config(args)
        if args.command == "derive":
            return cmd_derive(cfg, out)
        if args.command == "polys":
            return cmd_polys(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, with_oracle=args.oracle)
        if args.command == "oracle":
            return cmd_oracle(cfg, out, box=args.box)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, out, args.root_index, args.r_from,
                                    args.r_to, args.samples)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.fast, args.fault)
        if args.command == "compare":
            return cmd_compare(cfg, out)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except (ConfigError, DomainError, RootPropertyError) as exc:
        # RootPropertyError: the parameters have no real simple block (q < 0)
        print(f"sextic: configuration error: {exc}", file=sys.stderr)
        return 2
    except (GaugeError, NotQesError) as exc:
        # property violations are findings: report and keep exit 0 contract
        # only for polys-style comparisons; anywhere else they are failures
        print(f"sextic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"sextic: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
