"""Per-layer spans and counts, recorded at the public functions of sextic.

Nothing in the package is edited: :func:`install` replaces each traced
function, in every ``sextic.*`` namespace that holds it, by a wrapper that
times the call and updates counters.  Spans nest; a layer's self time is its
span minus the spans of traced calls made inside it.  A function already
running further up the stack is not timed again, so recursion and
re-entrant helpers are counted once.

Totals are kept in memory per pass (:meth:`Tracer.take_pass`) and reduced
to one value per metric by the caller.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# metric names reported in every traced run, in this order
LAYER_METRICS = (
    ("opcalc.reduce.ms", "ms"),
    ("opcalc.compose.calls", "count"),
    ("opcalc.compose.ms", "ms"),
    ("qes.polynomial_family.ms", "ms"),
    ("qes.critical_roots.ms", "ms"),
    ("qes.critical_roots.calls", "count"),
    ("qes.critical_roots.degree_max", "count"),
    ("qes.critical_roots.coeff_bits_max", "bits"),
    ("qes.coefficient_rows.ms", "ms"),
    ("qes.gauge_search.ms", "ms"),
    ("qes.crosspath_comparison.ms", "ms"),
    ("qes.wavefunction.ms", "ms"),
    ("oracle.suggest_grid.ms", "ms"),
    ("oracle.suggest_grid.solves", "count"),
    ("oracle.discretize.ms", "ms"),
    ("oracle.discretize.points", "count"),
    ("oracle.eigenvalues_bisection.ms", "ms"),
    ("oracle.eigenvalues_bisection.calls", "count"),
    ("oracle.eigenvalues_bisection.work", "count"),
    ("oracle.ladder_n1.ms", "ms"),
    ("oracle.ladder_n2.ms", "ms"),
    ("oracle.ladder_n4.ms", "ms"),
    ("oracle.refine.self_ms", "ms"),
    ("oracle.match_report.ms", "ms"),
    ("oracle.shoot.ms", "ms"),
    ("oracle.shoot.calls", "count"),
    ("oracle.residual.ms", "ms"),
    ("render.spectrum_json.ms", "ms"),
    ("render.dumps.ms", "ms"),
    ("render.bytes", "bytes"),
) + tuple((f"verify.{name}.ms", "ms") for name in (
    "sl2-relations", "module-invariance", "free-table", "field-table",
    "quotient-residual", "wavefunction-residual", "root-properties",
    "ledger-consistency", "crosspath", "oracle-box", "oracle-oscillator",
    "refine-shoot",
)) + (
    ("cli.compare.ms", "ms"),
    ("cli.verify.ms", "ms"),
    ("cli.self_ms", "ms"),
)

# metrics that are maxima over a pass rather than sums
_MAX_METRICS = {"qes.critical_roots.degree_max", "qes.critical_roots.coeff_bits_max"}


class Tracer:
    """Stack of open spans plus the running totals of the current pass."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_seconds, extra]
        self.values: dict[str, float] = defaultdict(float)

    def enclosing(self, name: str):
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame
        return None

    def add(self, metric: str, value: float) -> None:
        if metric in _MAX_METRICS:
            self.values[metric] = max(self.values[metric], value)
        else:
            self.values[metric] += value

    def take_pass(self) -> dict[str, float]:
        """Totals since the previous call, as {metric: value}; resets them."""
        out = dict(self.values)
        self.values = defaultdict(float)
        return out


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class _Span:
    """How one traced function reports: span name, and hooks for counts."""

    def __init__(self, name, total=None, self_metric=None, on_enter=None, on_exit=None):
        self.name = name
        self.total = total if total is not None else f"{name}.ms"
        self.self_metric = self_metric
        self.on_enter = on_enter
        self.on_exit = on_exit


def _wrap(tracer: Tracer, fn, span: _Span):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.enclosing(span.name) is not None:
            return fn(*args, **kwargs)
        frame = [span.name, perf_counter(), 0.0,
                 span.on_enter(args, kwargs) if span.on_enter else None]
        tracer.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.stack.pop()
            elapsed = perf_counter() - frame[1]
            if tracer.stack:
                tracer.stack[-1][2] += elapsed
            if span.total:
                tracer.add(span.total, 1e3 * elapsed)
            if span.self_metric:
                tracer.add(span.self_metric, 1e3 * (elapsed - frame[2]))
        if span.on_exit:
            span.on_exit(tracer, elapsed, args, kwargs, result)
        return result

    return traced


def _ladder_level(tracer: Tracer, elapsed: float, n: int) -> None:
    refine = tracer.enclosing("oracle.refine")
    if refine is not None:
        tracer.add(f"oracle.ladder_n{n // refine[3]}.ms", 1e3 * elapsed)


def _on_discretize(tracer, elapsed, args, kwargs, result):
    diag, _ = result
    tracer.add("oracle.discretize.points", len(diag))
    _ladder_level(tracer, elapsed, len(diag) + 1)


def _on_bisection(tracer, elapsed, args, kwargs, result):
    n = len(args[0] if args else kwargs["diag"])
    count = args[2] if len(args) > 2 else kwargs["count"]
    tracer.add("oracle.eigenvalues_bisection.calls", 1)
    tracer.add("oracle.eigenvalues_bisection.work", n * count)
    if tracer.enclosing("oracle.suggest_grid") is not None:
        tracer.add("oracle.suggest_grid.solves", 1)
    _ladder_level(tracer, elapsed, n + 1)


def _on_critical_roots(tracer, elapsed, args, kwargs, result):
    family = args[0] if args else kwargs["family"]
    crit = family.critical
    tracer.add("qes.critical_roots.calls", 1)
    tracer.add("qes.critical_roots.degree_max", crit.degree)
    tracer.add("qes.critical_roots.coeff_bits_max", max(_bits(a) for a in crit.c))


def _on_dumps(tracer, elapsed, args, kwargs, result):
    tracer.add("render.bytes", len(result.encode("utf-8")))


def _count(metric):
    def hook(tracer, elapsed, args, kwargs, result):
        tracer.add(metric, 1)
    return hook


def _spans():
    """{(module, attribute): _Span} for every traced public function."""
    reduce_span = _Span("opcalc.reduce")
    spans = {
        ("sextic.opcalc", "gauge_conjugate"): reduce_span,
        ("sextic.opcalc", "change_variable_sqrt"): reduce_span,
        ("sextic.opcalc", "series_recurrence"): reduce_span,
        ("sextic.opcalc", "compose"): _Span("opcalc.compose",
                                            on_exit=_count("opcalc.compose.calls")),
        ("sextic.qes", "polynomial_family"): _Span("qes.polynomial_family"),
        ("sextic.qes", "critical_roots"): _Span("qes.critical_roots",
                                                on_exit=_on_critical_roots),
        ("sextic.qes", "spectrum"): _Span("qes.spectrum", total=False,
                                          self_metric="qes.coefficient_rows.ms"),
        ("sextic.qes", "gauge_search"): _Span("qes.gauge_search"),
        ("sextic.qes", "crosspath_comparison"): _Span("qes.crosspath_comparison"),
        ("sextic.qes", "wavefunction"): _Span("qes.wavefunction"),
        ("sextic.oracle", "suggest_grid"): _Span("oracle.suggest_grid"),
        ("sextic.oracle", "discretize"): _Span("oracle.discretize", on_exit=_on_discretize),
        ("sextic.oracle", "eigenvalues_bisection"): _Span("oracle.eigenvalues_bisection",
                                                          on_exit=_on_bisection),
        ("sextic.oracle", "refine"): _Span(
            "oracle.refine", total=False, self_metric="oracle.refine.self_ms",
            on_enter=lambda args, kwargs: (args[4] if len(args) > 4 else kwargs["grid"]).n),
        ("sextic.oracle", "match_report"): _Span("oracle.match_report"),
        ("sextic.oracle", "shoot"): _Span("oracle.shoot", on_exit=_count("oracle.shoot.calls")),
        ("sextic.oracle", "residual"): _Span("oracle.residual"),
        ("sextic.render", "spectrum_json"): _Span("render.spectrum_json"),
        ("sextic.render", "dumps"): _Span("render.dumps", on_exit=_on_dumps),
        ("sextic.cli", "cmd_compare"): _Span("cli.compare", self_metric="cli.self_ms"),
        ("sextic.cli", "cmd_verify"): _Span("cli.verify", self_metric="cli.self_ms"),
        ("sextic.cli", "main"): _Span("cli.main", total=False, self_metric="cli.self_ms"),
    }
    for name in LAYER_METRICS:
        if name[0].startswith("verify."):
            check = name[0][len("verify."):-len(".ms")]
            spans[("sextic.verify", "check_" + check.replace("-", "_"))] = _Span(name[0][:-3])
    return spans


def install(tracer: Tracer):
    """Wrap every traced function wherever sextic holds it; returns an undo callable."""
    import sextic.cli  # noqa: F401  (loads every traced module)
    import sextic.verify

    package = {name: mod for name, mod in sys.modules.items()
               if name == "sextic" or name.startswith("sextic.")}
    replacements = {}
    for (modname, attr), span in _spans().items():
        fn = getattr(package[modname], attr)
        replacements[id(fn)] = (fn, _wrap(tracer, fn, span))

    undo = []
    for mod in package.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements and value is replacements[id(value)][0]:
                setattr(mod, attr, replacements[id(value)][1])
                undo.append((mod, attr, value))
    # run_checks iterates these lists, not the module attributes
    for checks in (sextic.verify._EXACT_CHECKS, sextic.verify._ORACLE_CHECKS):
        for i, fn in enumerate(checks):
            if id(fn) in replacements:
                checks[i] = replacements[id(fn)][1]
                undo.append((checks, i, fn))

    def restore():
        for owner, key, value in reversed(undo):
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)

    return restore
