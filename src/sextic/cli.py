"""Command-line front end.

One table, :data:`COMMANDS`, names for each subcommand the options it reads
(also its config-file keys), its report builder and its text views; an
option or config key that a command does not read exits 2 like any unknown
flag.  Exit codes: 0 success (findings such as table mismatches are still 0),
1 internal or invariant failure, 2 usage/configuration error or parameters
without a real simple algebraic block (RootPropertyError) or whose selected
gauge does not close its module (OpenModuleError).  Identical
configuration gives byte-identical JSON.  Output is plain text (NO_COLOR holds).
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence, TextIO

import mpmath

from . import oracle as oracle_mod
from . import tables, verify
from .model import MAGNETIC_CONVENTIONS, ConfigError, DomainError, PhysicalParams, eta_squared
from .opcalc import GaugeError, NotQesError
from .qes import (OpenModuleError, QesSpectrum, RootPropertyError, canonical_gauge,
                  crosspath_comparison, derived_recurrence, gauge_search,
                  ledger_shift_direct, polynomial_family, published_recurrence,
                  spectrum, wavefunction)
from .render import (dumps, enclosure_json, frac_str, gauge_candidate_json,
                     gauge_json, ledger_json, match_entry_json,
                     module_hamiltonian_json, oracle_record_json, poly_json,
                     poly_text, spectrum_json)

PARAM_KEYS = ("M", "c", "hbar", "omega", "q", "e", "B")


def _positive_finite(x: float) -> bool:
    return math.isfinite(x) and x > 0


class Option(NamedTuple):
    """A value option: ``--name`` (``_`` written ``-``) or ``name=`` in a config file."""

    cast: Callable = str
    default: object = None
    check: Optional[Callable] = None
    need: str = ""  # what ``check`` asks of the value, for the error message
    choices: tuple = ()
    help: Optional[str] = None


OPTIONS = {
    "mode": Option(str, "free", choices=("free", "field")),
    "j": Option(int, None, lambda v: v >= 0, "non-negative"),
    "m": Option(int, None, lambda v: v >= 0, "non-negative"),
    **{key: Option(help="exact rational (0.25, 3/4, -1/2)") for key in PARAM_KEYS},
    "digits": Option(int, 50, lambda v: v >= 15, "at least 15"),
    "gauge": Option(str, "auto", lambda v: v == "auto" or v.isdigit(),
                    "'auto' or a candidate index", help="auto (default) or viable-candidate index"),
    "convention": Option(str, MAGNETIC_CONVENTIONS[0], choices=MAGNETIC_CONVENTIONS),
    "source": Option(str, "derived", choices=("derived", "published")),
    "oracle_n": Option(int, oracle_mod.DEFAULT_N, lambda v: v >= 1, "at least 1",
                       help=f"base intervals n of the numerical solver's n, 2n, 4n ladder "
                            f"(default {oracle_mod.DEFAULT_N}, near the rounding optimum)"),
    "rmax": Option(float, None, _positive_finite, "finite and positive"),
    "count": Option(int, None, lambda v: v >= 1, "at least 1"),
    "tol": Option(float, 1e-4, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative"),
    "root_index": Option(int, 0),
    "r_from": Option(float, 0.1, _positive_finite, "finite and positive"),
    "r_to": Option(float, 3.0, _positive_finite, "finite and positive"),
    "samples": Option(int, 60, lambda v: v >= 0, "non-negative"),
    "inject_fault": Option(choices=verify.FAULT_NAMES, help=argparse.SUPPRESS),
}


class Command(NamedTuple):
    """One subcommand.  ``build`` and ``views`` hold names of this module's
    functions, looked up at call time so that a wrapper installed on the
    module attribute (a profiler, say) sees every call.  The first view is
    the default; ``--format`` exists only where there is a choice.  A command
    with ``config`` takes ``--config`` and builds a :class:`RunConfig`."""

    help: str
    options: tuple[str, ...]
    build: str  # report builder: cfg -> report dict
    views: dict  # format -> view: report dict -> text
    switches: tuple[tuple[str, str], ...] = ()  # (name, help) of store_true flags
    config: bool = True

    @property
    def keys(self) -> tuple[str, ...]:
        """Every value option; each is also a config-file key."""
        return self.options + (("format",) if len(self.views) > 1 else ())

    def option(self, key: str) -> Option:
        if key == "format":
            return Option(str, next(iter(self.views)), choices=tuple(self.views))
        return OPTIONS[key]


_MODEL = ("mode", "j", "m", *PARAM_KEYS, "convention")  # cfg.params holds the last eight
_ORACLE = ("oracle_n", "rmax", "count")

COMMANDS = {
    "derive": Command("gauge candidates, reduced operators, recurrences and ledgers",
                      _MODEL, "cmd_derive",
                      {"json": "dumps", "pretty": "_pretty_derive"}),
    "polys": Command("energy polynomial tables and the comparison against the published ones",
                     _MODEL + ("gauge",), "cmd_polys",
                     {"json": "dumps", "pretty": "_pretty_polys"}),
    "spectrum": Command("algebraic-block roots, energies and coefficients",
                        _MODEL + ("digits", "gauge", "source", *_ORACLE, "tol"), "cmd_spectrum",
                        {"json": "dumps", "pretty": "_pretty_spectrum"},
                        (("oracle", "append a match report against the numerical solver"),)),
    "oracle": Command("numerical eigenvalues with convergence certificates",
                      _MODEL + _ORACLE, "cmd_oracle",
                      {"json": "dumps", "csv": "_csv_oracle", "pretty": "_pretty_oracle"},
                      (("box", "debug potential: particle in a box"),)),
    "wavefunction": Command("sample one closed-form block eigenfunction",
                            _MODEL + ("digits", "gauge", "root_index",
                                      "r_from", "r_to", "samples"),
                            "cmd_wavefunction", {"csv": "_csv_wavefunction"}),
    "verify": Command("run the invariant suite", ("inject_fault",), "cmd_verify",
                      {"pretty": "_pretty_verify"},
                      (("fast", "skip the numerical-solver checks"),), config=False),
    "compare": Command("polys + spectrum + oracle + match in one report",
                       _MODEL + ("digits", "gauge", *_ORACLE, "tol"), "cmd_compare",
                       {"json": "dumps", "pretty": "_pretty_compare"}),
}


class RunConfig(SimpleNamespace):
    """The options one command reads, resolved (flag, else config-file value,
    else default) and checked; ``params`` holds the model parameters."""

    def level(self) -> int:
        if self.j is None and self.m is None:
            raise ConfigError("specify --j or --m")
        return self.j if self.j is not None else self.m - 2


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


def _build_config(args: argparse.Namespace, cmd: Command) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}
    unread = sorted(set(file_vals) - set(cmd.keys))
    if unread:
        raise ConfigError(f"{args.config}: {args.command} reads no key {', '.join(unread)}")
    values = {}
    for name in cmd.keys:
        opt = cmd.option(name)
        value = getattr(args, name)
        if value is None and name in file_vals:
            try:
                value = opt.cast(file_vals[name])
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if value is None:
            value = opt.default
        elif opt.choices and value not in opt.choices:
            raise ConfigError(f"{name} must be one of {', '.join(opt.choices)}, got {value!r}")
        elif opt.check and not opt.check(value):
            raise ConfigError(f"{name} must be {opt.need}, got {value!r}")
        values[name] = value
    cfg = RunConfig(**values, **{name: getattr(args, name) for name, _ in cmd.switches})
    if cfg.j is not None and cfg.m is not None and cfg.m != cfg.j + 2:
        raise ConfigError(f"m = j + 2 required (got m={cfg.m}, j={cfg.j})")
    params = PhysicalParams.from_mapping({key: values[key] for key in PARAM_KEYS})
    cfg.params = replace(params, convention=cfg.convention).for_mode(cfg.mode)
    return cfg


def _select_gauge(cfg: RunConfig, j: int):
    """The derived recurrence of the gauge ``--gauge`` selects: the canonical
    gauge's, or the chosen gauge-search candidate's, which the search derived.
    A band whose module does not close raises OpenModuleError."""
    if cfg.gauge == "auto":
        rec = derived_recurrence(cfg.params, j, None, cfg.mode)
    else:
        candidates = gauge_search(cfg.params, j, cfg.mode)
        if int(cfg.gauge) >= len(candidates):
            raise ConfigError(f"gauge index {cfg.gauge} out of range 0..{len(candidates) - 1}")
        rec = candidates[int(cfg.gauge)].recurrence
    if not rec.closes:
        raise OpenModuleError(rec)
    return rec


# ---------------------------------------------------------------------------
# Report builders: cfg -> JSON-ready dict
# ---------------------------------------------------------------------------


def cmd_derive(cfg: RunConfig) -> dict:
    j = cfg.level()
    candidates = gauge_search(cfg.params, j, cfg.mode, include_failures=True)
    ranks = itertools.count()  # --gauge indexes the viable candidates only
    report = {
        "command": "derive", "mode": cfg.mode, "j": j, "m": j + 2, "params": cfg.params.as_dict(),
        "published_reduced_operator":
            tables.published_reduced_operator(cfg.params, j + 2, cfg.mode).canonical_text(),
        "candidates": [gauge_candidate_json(i, next(ranks) if cand.viable else None, cand)
                       for i, cand in enumerate(candidates)],
    }
    if cfg.mode == "free":
        canonical = canonical_gauge(cfg.params, j + 2, "free")
        rec = next((c.recurrence for c in candidates if c.gauge == canonical), None)
        report["module_hamiltonian"] = module_hamiltonian_json(
            crosspath_comparison(cfg.params, j, rec))
    return report


def _term_diff(derived, published) -> list[dict]:
    return [{"power": k, "derived": frac_str(derived.coeff(k)),
             "published": frac_str(published.coeff(k)),
             "match": derived.coeff(k) == published.coeff(k)}
            for k in range(max(derived.degree, published.degree), -1, -1)]


def cmd_polys(cfg: RunConfig) -> dict:
    j = cfg.level()
    return _polys(cfg, polynomial_family(_select_gauge(cfg, j)))


def _polys(cfg: RunConfig, fam_d) -> dict:
    """The ``polys`` report of the derived family ``fam_d``."""
    j, params = fam_d.j, cfg.params
    fam_p = polynomial_family(published_recurrence(params, j, cfg.mode))
    if cfg.mode == "free":
        table = {n: p.monic() for n, p in tables.published_free_table(params).items()}
        compare_d, compare_p = fam_d.in_physical_variable(), fam_p.in_physical_variable()
    else:
        table = {n: tables.published_field_table(params, n) for n in tables.FIELD_TABLE_COEFFS}
        compare_d, compare_p = fam_d, fam_p
    diffs = []
    if j + 1 in table:
        for source, fam in (("derived-vs-table", compare_d),
                            ("published-recurrence-vs-table", compare_p)):
            rows = _term_diff(fam.critical, table[j + 1])
            diffs.append({"degree": j + 1, "source": source, "terms": rows,
                          "verdict": "MATCH" if all(r["match"] for r in rows) else "MISMATCH"})
    u = eta_squared(params) if cfg.mode == "field" else None
    return {
        "command": "polys", "mode": cfg.mode, "j": j, "params": params.as_dict(),
        "normalization": "monic", "variable": compare_d.variable,
        "derived": {f"P_{k}": poly_json(p) for k, p in enumerate(compare_d.polys)},
        "derived_text": {f"P_{k}": poly_text(p, unit=u) for k, p in enumerate(compare_d.polys)},
        "published_recurrence_family": {f"P_{k}": poly_json(p)
                                        for k, p in enumerate(compare_p.polys)},
        "published_recurrence_degenerate_rows": list(fam_p.degenerate_rows),
        "table_comparison": diffs,
        "ledger": ledger_json(fam_d.ledger),
    }


def _block(cfg: RunConfig, source: str = "derived") -> QesSpectrum:
    """The algebraic block of the configured level."""
    if source == "published" and cfg.gauge != "auto":
        raise ConfigError(f"--gauge {cfg.gauge} selects a derived gauge; "
                          "--source published has none")
    j = cfg.level()
    rec = (_select_gauge(cfg, j) if source == "derived"
           else published_recurrence(cfg.params, j, cfg.mode))
    return spectrum(cfg.params, j, cfg.mode, cfg.digits, rec)


def cmd_spectrum(cfg: RunConfig) -> dict:
    spec = _block(cfg, cfg.source)
    report = spectrum_json(spec)
    if cfg.oracle:
        report["match_report"] = _run_match(cfg, spec)
    return report


def _oracle_grid(cfg: RunConfig, m: int, mode: str, default_count: int):
    """(count, grid) of a numerical solve: --count, else the default; --rmax, else
    the suggested domain (the box defaults to (0, pi) and takes at least 64 intervals)."""
    count = default_count if cfg.count is None else cfg.count
    if mode == "box":
        r_max = math.pi if cfg.rmax is None else cfg.rmax
        return count, oracle_mod.Grid(r_max, max(64, cfg.oracle_n))
    if cfg.rmax is not None:
        return count, oracle_mod.Grid(cfg.rmax, cfg.oracle_n)
    return count, oracle_mod.suggest_grid(cfg.params, m, mode, count, n=cfg.oracle_n)


def _run_match(cfg: RunConfig, spec: QesSpectrum) -> dict:
    count, grid = _oracle_grid(cfg, spec.m, cfg.mode, spec.j + 5)
    osp = oracle_mod.refine(cfg.params, spec.m, cfg.mode, count, grid)
    rep = oracle_mod.match_report(spec, osp, cfg.tol)
    direct = ledger_shift_direct(cfg.params, spec.m, cfg.mode,
                                 spec.gauge or canonical_gauge(cfg.params, spec.m, cfg.mode))
    return {
        "tolerance": cfg.tol,
        "ledger_shift_pipeline": str(spec.ledger.shift),
        "ledger_shift_direct": str(direct),
        "ledger_shifts_agree": spec.ledger.shift == direct,
        "oracle_eigenvalues": [oracle_record_json(r) for r in osp.records],
        "entries": [match_entry_json(e) for e in rep.entries],
        "matched": rep.matched,
        "unmatched": len(rep.entries) - rep.matched,
    }


def cmd_oracle(cfg: RunConfig) -> dict:
    if cfg.box:
        mode, m, params = "box", 0, None
    else:
        mode, params = cfg.mode, cfg.params
        m = cfg.level() + 2
    count, grid = _oracle_grid(cfg, m, mode, 6)
    spec = oracle_mod.refine(params, m, mode, count, grid)
    return {
        "command": "oracle", "mode": mode, "m": m,
        "params": None if params is None else params.as_dict(),
        "grid": {"r_max": spec.grid.r_max, "n": spec.grid.n},
        "eigenvalues": [oracle_record_json(rec) for rec in spec.records],
    }


#: Largest |b r^2/2h + a r^4/4h| at the far end of a ``wavefunction`` window.  A
#: sample's cost grows with that exponent, mostly in the decimal print of the
#: gauge factor: at 50 digits one sample takes about 30 ms at 10^300 and about
#: 1 s at 10^1200 (2-core x86-64 VM, Python 3.11, mpmath 1.3)
WINDOW_EXPONENT_BOUND = 10**300


def cmd_wavefunction(cfg: RunConfig) -> dict:
    rs = [cfg.r_from + (cfg.r_to - cfg.r_from) * i / max(1, cfg.samples - 1)
          for i in range(cfg.samples)]
    for r in rs:  # rounding: --r-from 1e300 --r-to 3 ends the window at 0.0
        if not _positive_finite(r):
            raise ConfigError(f"sample point r = {r!r} of the window is not finite and positive")
    spec = _block(cfg)
    if not 0 <= cfg.root_index < len(spec.roots_reduced):
        raise ConfigError(f"root index {cfg.root_index} out of range "
                          f"0..{len(spec.roots_reduced) - 1}")
    wf = wavefunction(spec, cfg.root_index)
    far = max(rs, default=0.0)
    g, rf = wf.gauge, Fraction(far)
    if abs((g.gaussian * rf**2 / 2 + g.quartic * rf**4 / 4) / wf.hbar) > WINDOW_EXPONENT_BOUND:
        raise DomainError(f"the gauge exponent |b r^2/2h + a r^4/4h| at r = {far!r} "
                          f"exceeds {WINDOW_EXPONENT_BOUND:.0e}: shorten the window")
    with mpmath.workdps(spec.digits + 10):
        samples = [[repr(r), mpmath.nstr(wf(mpmath.mpf(r)), 17)] for r in rs]
    return {"command": "wavefunction", "gauge": gauge_json(spec.gauge),
            "normalizability": wf.normalizability, "digits": spec.digits,
            "reduced_eigenvalue":
                enclosure_json(spec.roots_reduced[cfg.root_index], spec.digits)["value"],
            "samples": samples}


def cmd_verify(args: argparse.Namespace) -> dict:
    results = verify.run_checks(fast=args.fast, fault=args.inject_fault)
    return {"command": "verify",
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "failed": sum(1 for r in results if not r.passed)}


def cmd_compare(cfg: RunConfig) -> dict:
    spec = _block(cfg)
    j = spec.j
    report = {
        "command": "compare", "mode": cfg.mode, "j": j, "m": j + 2, "params": cfg.params.as_dict(),
        "polys": _polys(cfg, spec.family),
        "spectrum": spectrum_json(spec),
        "match_report": _run_match(cfg, spec),
    }
    if cfg.mode == "free":
        report["module_hamiltonian"] = module_hamiltonian_json(
            crosspath_comparison(cfg.params, j, spec.recurrence))
    return report


# ---------------------------------------------------------------------------
# Text views: report dict -> text
# ---------------------------------------------------------------------------


def _lines(view):
    """A view written as a generator of lines."""
    return lambda report: "".join(line + "\n" for line in view(report))


@_lines
def _pretty_derive(rep: dict):
    yield f"gauge candidates, mode={rep['mode']}, j={rep['j']} (m={rep['m']})"
    for row in rep["candidates"]:
        g = row["gauge"]
        gauge = "" if row["gauge_index"] is None else f" (--gauge {row['gauge_index']})"
        yield (f"[{row['index']}]{gauge} r^({g['power']}) b={g['gaussian']} "
               f"a={g['quartic']}  ({g['normalizability']})")
        if "rejected" in row:
            yield f"    rejected: {row['rejected']}"
            continue
        rec = row["recurrence"]
        yield f"    operator: {row['reduced_operator']}"
        yield (f"    alpha_k = {rec['alpha_k']}; beta_k = {rec['beta_k']}; "
               f"gamma_k = {rec['gamma_k']}; closes: {str(rec['closes']).lower()}")
        yield (f"    ledger shift = {row['ledger']['shift']}; "
               f"reproduces published operator: {row['reproduces_published_ode']}")
    yield f"published operator: {rep['published_reduced_operator']}"


@_lines
def _pretty_polys(rep: dict):
    yield (f"energy polynomials, mode={rep['mode']}, j={rep['j']}, monic, "
           f"variable={rep['variable']}")
    for name, text in rep["derived_text"].items():
        yield f"  {name} = {text}"
    for diff in rep["table_comparison"]:
        yield f"{diff['source']} (degree {diff['degree']}): {diff['verdict']}"
        for row in diff["terms"]:
            if not row["match"]:
                yield (f"    x^{row['power']}: derived {row['derived']} "
                       f"vs published {row['published']}")


@_lines
def _pretty_spectrum(rep: dict):
    yield (f"algebraic block, mode={rep['mode']}, j={rep['j']} (m={rep['m']}), "
           f"source={rep['source']}")
    yield f"ledger: physical = reduced + ({rep['ledger']['shift']})"
    for r in rep["roots"]:
        energy = ("[subcritical: no real E]" if "subcritical_violation" in r["energy"]
                  else f"E = +-{r['energy']['plus']}")
        yield (f"  root {r['index']}: reduced {r['reduced']['value']}  "
               f"physical {r['physical']['value']}  {energy}")
    for e in rep.get("match_report", {}).get("entries", ()):
        flags = f", oracle flags {','.join(e['oracle_flags'])}" if e["oracle_flags"] else ""
        yield (f"  match root {e['root_index']}: {e['verdict']} "
               f"(nearest {e['nearest_oracle']}, rel gap {e['relative_gap']}{flags})")


@_lines
def _pretty_oracle(rep: dict):
    yield (f"numerical spectrum, mode={rep['mode']}, m={rep['m']}, "
           f"r_max={rep['grid']['r_max']:.6g}, n={rep['grid']['n']}")
    for rec in rep["eigenvalues"]:
        order = "-" if rec["observed_order"] is None else f"{rec['observed_order']:.3f}"
        flags = ", " + ",".join(rec["flags"]) if rec["flags"] else ""
        yield (f"  {rec['index']}: {rec['extrapolated']} +- {float(rec['error']):.2e} "
               f"(order {order}{flags})")


@_lines
def _pretty_verify(rep: dict):
    for r in rep["checks"]:
        yield f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}"
    total = len(rep["checks"])
    yield f"{total - rep['failed']}/{total} invariants hold"


@_lines
def _pretty_compare(rep: dict):
    yield f"reconciliation report, mode={rep['mode']}, j={rep['j']}"
    for diff in rep["polys"]["table_comparison"]:
        yield f"  {diff['source']} degree {diff['degree']}: {diff['verdict']}"
    mr = rep["match_report"]
    yield (f"  ledger shifts agree: {mr['ledger_shifts_agree']} "
           f"(pipeline {mr['ledger_shift_pipeline']}, direct {mr['ledger_shift_direct']})")
    yield f"  matched {mr['matched']} / unmatched {mr['unmatched']} at tol {mr['tolerance']}"


def _csv_oracle(rep: dict) -> str:
    return "n,eigenvalue,error\n" + "".join(
        f"{rec['index']},{rec['extrapolated']},{rec['error']}\n" for rec in rep["eigenvalues"])


def _csv_wavefunction(rep: dict) -> str:
    g = rep["gauge"]
    return (f"# gauge: power={g['power']} gaussian={g['gaussian']} quartic={g['quartic']}\n"
            f"# normalizability: {rep['normalizability']}\n"
            f"# reduced eigenvalue: {rep['reduced_eigenvalue']}\n"
            f"# f sampled from the closed form at a {rep['digits']}-digit root, "
            f"rounded to 17 significant digits\n"
            "r,f\n" + "".join(f"{r},{f}\n" for r, f in rep["samples"]))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every option is long, so "-" before a digit or point starts a value (--q -1/2,
        # --rmax -0.5); _negative_number_matcher is private to argparse (read with
        # .match on CPython 3.11) and test_negative_value_as_separate_argument pins it
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):  # keep exit code 2 but avoid killing embedding callers
        self.exit(2, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sextic",
                     description="algebraic block, reconciliation reports and the "
                                 "numerical eigensolver of the planar sextic oscillator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.config:
            p.add_argument("--config", help="flat key=value file of this command's options "
                                            "(flags win)")
        for key in cmd.keys:
            opt = cmd.option(key)
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.cast,
                           choices=opt.choices or None, help=opt.help)
        for switch, doc in cmd.switches:
            p.add_argument("--" + switch, action="store_true", help=doc)
    return parser


def main(argv: Optional[Sequence[str]] = None, stream: Optional[TextIO] = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cmd = COMMANDS[args.command]
    module = sys.modules[__name__]
    try:
        # verify reads no configuration: its builder takes the parsed flags
        cfg = _build_config(args, cmd) if cmd.config else args
        fmt = getattr(cfg, "format", next(iter(cmd.views)))
        report = getattr(module, cmd.build)(cfg)
        out.write(getattr(module, cmd.views[fmt])(report))
        return 1 if report.get("failed") else 0
    except (ConfigError, DomainError, RootPropertyError, OpenModuleError) as exc:
        # RootPropertyError: the parameters have no real simple block (q < 0);
        # OpenModuleError: the selected gauge's band builds no block
        print(f"sextic: configuration error: {exc}", file=sys.stderr)
        return 2
    except (GaugeError, NotQesError) as exc:
        print(f"sextic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"sextic: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
