"""Per-layer spans and counters, recorded from outside the library.

The library binds imported functions by name: ``model`` and ``theorems`` call
``integrate_radial``, ``theorems`` and ``cli`` call ``radial_integrals``, and
``cli`` calls ``theorems.*`` and ``tuning.*`` through the module.  So each
layer is wrapped by replacing the name inside every consumer module, and the
wrappers are removed again by ``Tracer.uninstall``.

Every wrapped call records a span (name, start, end, parent).  A layer's self
time is the duration of its spans minus the time their child spans cover.
Spans stay in memory and are written out once, at the end, by ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# highest order of the Bessel table each specfun entry point builds, minus l;
# the input-mix shares compare |x| with that order, as specfun's own
# series / Miller / upward switch does
_TABLE_EXTRA = {
    "bessel_j": 0,
    "bessel_j_prime": 1,
    "bessel_u": 1,
    "bessel_j_and_u": 1,
    "lommel_first": 1,
    "lommel_second": 1,
}
_SERIES_CUTOFF = 0.1
_NEAR_DIAGONAL = 1e-2


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self.max_order = 0
        self._stack = []
        self._patches = []
        self._seen_cells = set()

    # -- wrapping -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)

        return timed

    def _patch(self, module, name, wrapper):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _specfun(self, name, fn):
        import numpy as np

        counts, extra, timed = self.counts, _TABLE_EXTRA[name], self._span("specfun." + name, fn)

        def run(l, *args):
            if name == "lommel_second":       # its j_l calls are counted on their own
                x = np.empty(0)
            elif name == "lommel_first":
                x = np.abs(args[0]) * args[1]
            else:
                x = np.abs(args[0])
            order = l + extra
            small = np.count_nonzero(x < _SERIES_CUTOFF)
            below = np.count_nonzero((x >= _SERIES_CUTOFF) & (x < order))
            counts["specfun.calls"] += 1
            counts["specfun.points"] += np.size(x)
            counts["specfun.small_arg"] += small
            counts["specfun.below_order"] += below
            counts["specfun.above_order"] += np.size(x) - small - below
            if l > self.max_order:
                self.max_order = l
            return timed(l, *args)

        return run

    def _quadrature(self, consumer, fn):
        import numpy as np
        from tunedsource.errors import ConvergenceError

        counts, timed = self.counts, self._span("quadrature.integrate_radial", fn)
        integrand_name = consumer + ".integrand"     # integrand time belongs to the layer that wrote it

        def run(f, a, rel_tol=1e-12, **kwargs):
            def counted(r):
                counts["quadrature.integrand_points"] += np.size(r)
                return f(r)

            counts["quadrature.integrals"] += 1
            try:
                res = timed(self._span(integrand_name, counted), a, rel_tol, **kwargs)
            except ConvergenceError:
                counts["quadrature.convergence_errors"] += 1
                raise
            counts["quadrature.panels"] += res.panels_used
            if res.abs_error_estimate > rel_tol * abs(res.value):
                counts["quadrature.floor_accepts"] += 1
            return res

        return run

    def _model(self, fn):
        counts, seen, timed = self.counts, self._seen_cells, self._span("model.radial_integrals", fn)

        def run(mode, k, K, a, *args, **kwargs):
            key = (mode.j, mode.l, abs(k), abs(K), a)
            counts["model.calls"] += 1
            if key in seen:
                counts["model.repeats"] += 1
            else:
                seen.add(key)
            if abs(abs(K) - abs(k)) < _NEAR_DIAGONAL * abs(k):
                counts["model.near_diag"] += 1
            return timed(mode, k, K, a, *args, **kwargs)

        return run

    def _counted(self, layer, key, fn):
        counts, timed = self.counts, self._span(f"{layer}.{fn.__name__}", fn)

        def run(*args, **kwargs):
            counts[key] += 1
            return timed(*args, **kwargs)

        return run

    def _roots(self, fn):
        counts, timed = self.counts, self._counted("tuning", "tuning.calls", fn)

        def run(g, *args, **kwargs):
            def counted(chi):
                counts["tuning.constraint_evals"] += 1
                return g(chi)

            return timed(counted, *args, **kwargs)

        return run

    # -- the CLI, called the way main() calls it ----------------------------

    def cli_report(self, cli, command, config, overrides):
        """load_config, run_<command>, render, write: main()'s steps, each a span."""
        cfg = self._span("cli.load", cli.load_config)(config, command=command, overrides=overrides)
        code, columns, rows = self._span("cli.run", getattr(cli, f"run_{command}"))(cfg)
        render = cli.render_csv if cfg.out_format == "csv" else cli.render_json
        text = self._span("cli.render", render)(command, columns, rows)
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.counts["cli.rows"] += len(rows)
        self.counts["cli.report_bytes"] += len(text.encode("utf-8"))
        return code

    # -- results ------------------------------------------------------------

    def summary(self):
        """Raw per-layer sums of this process; ``layer_metrics`` derives the rest."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        raw = defaultdict(float, self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            raw[f"{layer}.self_s"] += end - start - child[i]
            raw[f"span.{name}"] += end - start
        raw["specfun.max_order"] = self.max_order
        raw["trace.spans"] = len(self.spans)
        return dict(raw)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def install():
    """Wrap every layer at the names its consumers call; returns the Tracer."""
    import inspect

    from tunedsource import cli, model, specfun, theorems, tuning

    tracer = Tracer()
    for name in _TABLE_EXTRA:
        tracer._patch(specfun, name, tracer._specfun(name, getattr(specfun, name)))
    for consumer, layer in ((model, "model"), (theorems, "theorems")):
        tracer._patch(consumer, "integrate_radial", tracer._quadrature(layer, consumer.integrate_radial))
    for consumer in (theorems, cli):
        tracer._patch(consumer, "radial_integrals", tracer._model(consumer.radial_integrals))
    for name in theorems.__all__:
        fn = getattr(theorems, name)
        if inspect.isfunction(fn):
            tracer._patch(theorems, name, tracer._counted("theorems", f"theorems.{name}.calls", fn))
    tracer._patch(tuning, "find_constraint_roots", tracer._roots(tuning.find_constraint_roots))
    tracer._patch(tuning, "select_chi0", tracer._counted("tuning", "tuning.calls", tuning.select_chi0))
    return tracer


THEOREM_FUNCTIONS = (
    "boundedness_margin",
    "curl_identity_check",
    "minimality_margin",
    "expansion_j2",
    "expansion_fd",
    "series_integrals_j1",
    "f1_vanishing_check",
    "mode_ratio",
    "default_chi_grid",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raws):
    """Per-layer metrics from the raw sums of one or more traced processes."""
    raw = defaultdict(float)
    for one in raws:
        for key, value in one.items():
            raw[key] = max(raw[key], value) if key == "specfun.max_order" else raw[key] + value

    def span(name):
        return raw[f"span.{name}"]

    out = {
        "specfun.calls": raw["specfun.calls"],
        "specfun.points": raw["specfun.points"],
        "specfun.points_per_call": _ratio(raw["specfun.points"], raw["specfun.calls"]),
        "specfun.self_s": raw["specfun.self_s"],
        "specfun.us_per_call": 1e6 * _ratio(raw["specfun.self_s"], raw["specfun.calls"]),
        "specfun.max_order": raw["specfun.max_order"],
        "specfun.small_arg_frac": _ratio(raw["specfun.small_arg"], raw["specfun.points"]),
        "specfun.below_order_frac": _ratio(raw["specfun.below_order"], raw["specfun.points"]),
        "specfun.above_order_frac": _ratio(raw["specfun.above_order"], raw["specfun.points"]),
        "quadrature.integrals": raw["quadrature.integrals"],
        "quadrature.panels": raw["quadrature.panels"],
        "quadrature.panels_per_integral": _ratio(raw["quadrature.panels"], raw["quadrature.integrals"]),
        "quadrature.integrand_points": raw["quadrature.integrand_points"],
        "quadrature.self_s": raw["quadrature.self_s"],
        "quadrature.integrand_s": span("model.integrand") + span("theorems.integrand"),
        "quadrature.convergence_errors": raw["quadrature.convergence_errors"],
        "quadrature.floor_accepts": raw["quadrature.floor_accepts"],
        "model.calls": raw["model.calls"],
        "model.self_s": raw["model.self_s"],
        "model.ms_per_call": 1e3 * _ratio(span("model.radial_integrals"), raw["model.calls"]),
        "model.repeat_frac": _ratio(raw["model.repeats"], raw["model.calls"]),
        "model.near_diag_frac": _ratio(raw["model.near_diag"], raw["model.calls"]),
    }
    for name in THEOREM_FUNCTIONS:
        out[f"theorems.{name}.calls"] = raw[f"theorems.{name}.calls"]
    out.update({
        "theorems.self_s": raw["theorems.self_s"],
        "tuning.calls": raw["tuning.calls"],
        "tuning.constraint_evals": raw["tuning.constraint_evals"],
        "tuning.self_s": raw["tuning.self_s"],
        "cli.import_s": raw["cli.import_s"],
        "cli.load_s": span("cli.load"),
        "cli.run_s": span("cli.run"),
        "cli.render_s": span("cli.render"),
        "cli.rows": raw["cli.rows"],
        "cli.report_bytes": raw["cli.report_bytes"],
    })
    return out
