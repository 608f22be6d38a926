"""Span tracer that measures the simulator's layers from outside.

It wraps public functions of the `dvssgt` modules by module attribute, so
calls made inside the package (which look the name up on the module) go
through the wrapper too. Only functions that exist are wrapped: a name that
a refactor removed is listed in `absent` and its metrics read 0, never a
crash.

Spans are recorded at the command, `run_experiment`, `run_path` and step
boundaries, and around the setup, spectral, theory and output functions.
Per-agent leaf calls are too many to span individually, so each one adds
its count and self time to the innermost open span. Every call's duration
is charged to its caller as child time; a call's self time is its duration
minus its children's, so the self times of one command sum to its duration.
"""
from __future__ import annotations

import time
from collections import defaultdict

perf = time.perf_counter

# (module, function, metric, kind); kind is command | span | path | step
SPANS = (
    ("cli", "main", "cli.main", "command"),
    ("cli", "build_instance", "cli.build_instance", "span"),
    ("cli", "run_experiment", "cli.run_experiment", "span"),
    ("graph", "erdos_renyi", "graph.erdos_renyi", "span"),
    ("graph", "metropolis_weights", "graph.metropolis_weights", "span"),
    ("oracle", "make_regression_problem", "oracle.make_problem", "span"),
    ("oracle", "empirical_noise_level", "oracle.noise_level", "span"),
    ("algo", "run_path", "algo.run_path", "path"),
    ("algo", "dvss_sgt_step", "algo.step", "step"),
    ("algo", "dsgt_step", "algo.step", "step"),
    ("algo", "dsgd_step", "algo.step", "step"),
    ("metrics", "aggregate", "metrics.aggregate", "span"),
    ("metrics", "write_csv", "metrics.write_csv", "span"),
    ("theory", "find_alpha", "theory.find_alpha", "span"),
    ("theory", "check_error_recursion", "theory.check_recursion", "span"),
    ("spectral", "perron_root_3x3", "spectral.perron", "span"),
    ("spectral", "spectral_radius_sym", "spectral.sym_radius", "span"),
    ("charts", "line_chart_svg", "charts.svg", "span"),
)

# per-agent calls, accumulated on the enclosing span
LEAVES = (
    ("oracle", "gradient_stream", "oracle.stream"),
    ("oracle", "sample_gradient", "oracle.sample"),
    ("oracle", "exact_gradient", "oracle.exact_grad"),
    ("metrics", "error_vector", "metrics.error_vector"),
)

# evaluations of rho(J) made by the step-size search; counted, not timed
RHO_EVAL = ("theory", "spectral_radius_3x3")


class Span:
    __slots__ = ("name", "kind", "parent", "path", "start", "end", "self_s", "leaves")

    def __init__(self, name, kind, parent, path):
        self.name, self.kind, self.parent, self.path = name, kind, parent, path
        self.leaves = {}

    def as_list(self):
        leaves = {k: [c, round(t, 9)] for k, (c, t) in self.leaves.items()}
        return [self.name, self.start, self.end, self.parent, self.path, leaves]


class Tracer:
    """Wraps the program's functions while installed; restores them on exit."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.absent = []
        self._saved = []
        self._stack = [[0.0]]   # per open call: time spent in its children
        self._current = None    # index of the innermost open span
        self._paths = 0
        self.rho_evals = 0
        self.samples = 0        # sampled gradients actually drawn
        self.max_batch = 0
        self.messages = 0

    def __enter__(self):
        for mod, fn_name, metric, kind in SPANS:
            self._wrap(mod, fn_name, lambda fn, m=metric, k=kind: self._span(fn, m, k))
        for mod, fn_name, metric in LEAVES:
            self._wrap(mod, fn_name, lambda fn, m=metric: self._leaf(fn, m))
        self._wrap(*RHO_EVAL, self._rho_counter)
        return self

    def __exit__(self, *exc):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()
        return False

    def _wrap(self, mod, fn_name, make):
        module = self.modules[mod]
        original = getattr(module, fn_name, None)
        if not callable(original):
            self.absent.append(f"{mod}.{fn_name}")
            return
        self._saved.append((module, fn_name, original))
        setattr(module, fn_name, make(original))

    def _span(self, fn, metric, kind):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = self._current
            if kind == "step" and parent is not None and spans[parent].kind == "step":
                return fn(*args, **kwargs)   # dsgt_step -> dvss_sgt_step counts once
            if kind == "path":
                self._paths += 1
                path = self._paths
            else:
                path = spans[parent].path if parent is not None else None
            span = Span(metric, kind, parent, path)
            self._current = len(spans)
            spans.append(span)
            frame = [0.0]
            stack.append(frame)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
                self._current = parent
                dur = span.end - span.start
                span.self_s = dur - frame[0]
                stack[-1][0] += dur
            if kind == "path":
                self._count_messages(result)
            return result
        return wrapper

    def _leaf(self, fn, metric):
        spans, stack = self.spans, self._stack
        sample = metric == "oracle.sample"

        def wrapper(*args, **kwargs):
            if sample:
                self._count_samples(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][0] += dur
                acc = spans[self._current].leaves.get(metric)
                if acc is None:
                    acc = spans[self._current].leaves[metric] = [0, 0.0]
                acc[0] += 1
                acc[1] += dur - frame[0]
        return wrapper

    def _rho_counter(self, fn):

        def wrapper(*args, **kwargs):
            cur = self._current
            if cur is not None and self.spans[cur].name == "theory.find_alpha":
                self.rho_evals += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_samples(self, args, kwargs):
        # sample_gradient(p, i, x, batch, rng); an exact oracle draws nothing
        problem = args[0] if args else kwargs.get("p")
        batch = args[3] if len(args) > 3 else kwargs.get("batch", 0)
        if not getattr(problem, "exact_oracle", False):
            self.samples += batch
            self.max_batch = max(self.max_batch, batch)

    def _count_messages(self, trace):
        per_agent = getattr(trace, "per_agent_messages", None)
        if per_agent is not None:
            self.messages += int(per_agent.sum())
        elif "algo.run_path().per_agent_messages" not in self.absent:
            self.absent.append("algo.run_path().per_agent_messages")

    def layer_table(self, d):
        """Per-layer counts and self times of everything traced so far.

        `d` is the problem dimension, needed for the computed draw size.
        """
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            self_s[span.name] += span.self_s
            calls[span.name] += 1
            for metric, (count, seconds) in span.leaves.items():
                self_s[metric] += seconds
                calls[metric] += count
        t = {
            "graph.erdos_renyi_s": self_s["graph.erdos_renyi"],
            "graph.metropolis_weights_s": self_s["graph.metropolis_weights"],
            "graph.messages": self.messages,
            "oracle.make_problem_s": self_s["oracle.make_problem"],
            "oracle.stream_calls": calls["oracle.stream"],
            "oracle.stream_s": self_s["oracle.stream"],
            "oracle.sample_calls": calls["oracle.sample"],
            "oracle.samples": self.samples,
            "oracle.sample_s": self_s["oracle.sample"],
            "oracle.ns_per_sample": (1e9 * self_s["oracle.sample"] / self.samples
                                     if self.samples else 0.0),
            "oracle.exact_grad_calls": calls["oracle.exact_grad"],
            "oracle.exact_grad_s": self_s["oracle.exact_grad"],
            "oracle.noise_level_s": self_s["oracle.noise_level"],
            # computed, not measured: the largest (N, d) regressor block plus N noise draws
            "oracle.max_draw_bytes": self.max_batch * (d + 1) * 8,
            "algo.paths": calls["algo.run_path"],
            "algo.steps": calls["algo.step"],
            "algo.step_self_s": self_s["algo.step"],
            "algo.run_path_self_s": self_s["algo.run_path"],
            "metrics.error_vector_calls": calls["metrics.error_vector"],
            "metrics.error_vector_s": self_s["metrics.error_vector"],
            "metrics.aggregate_s": self_s["metrics.aggregate"],
            "metrics.write_csv_s": self_s["metrics.write_csv"],
            "theory.find_alpha_s": self_s["theory.find_alpha"],
            "theory.rho_evals": self.rho_evals,
            "theory.check_recursion_s": self_s["theory.check_recursion"],
            "spectral.perron_calls": calls["spectral.perron"],
            "spectral.perron_s": self_s["spectral.perron"],
            "spectral.sym_radius_calls": calls["spectral.sym_radius"],
            "spectral.sym_radius_s": self_s["spectral.sym_radius"],
            "charts.svg_s": self_s["charts.svg"],
            "cli.self_s": (self_s["cli.main"] + self_s["cli.build_instance"]
                           + self_s["cli.run_experiment"]),
        }
        # every self time above, so their sum is the command's duration
        t["_self_total_s"] = sum(self_s.values())
        return t
