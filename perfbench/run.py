"""Benchmark of the dvssgt simulator: one workload per invocation.

    python3 perfbench/run.py --workload fig2|fig3|theory --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from
`src/`. The load is a closed loop with one client: it calls
`dvssgt.cli.main(argv)` in this process with a generated config, one call at
a time, until the next call would overrun `--seconds` (at least one call).
Every call's outputs are checked. With `--trace 0` the last line of stdout
is a JSON object with the end-to-end metrics (medians over the calls); with
`--trace 1`, calls alternate untraced and traced and the object carries the
per-layer metrics of the traced calls instead. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
# setup_s is timed on blocks of back-to-back build_instance calls: a single
# 30-50 ms call lands either in a quiet or a busy moment of the shared host,
# and the median of such bimodal samples jumps between the two; a block
# averages over both. Blocks run before the loop, after each workload call
# and after the loop, so the median samples the whole run.
SETUP_BLOCK = 5
SETUP_EDGE_BLOCKS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "samples_per_s": "1/s",
              "path_iters_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graph.erdos_renyi_s": "s", "graph.metropolis_weights_s": "s",
    "graph.messages": "count",
    "oracle.make_problem_s": "s", "oracle.stream_calls": "count", "oracle.stream_s": "s",
    "oracle.sample_calls": "count", "oracle.samples": "count", "oracle.sample_s": "s",
    "oracle.ns_per_sample": "ns", "oracle.exact_grad_calls": "count",
    "oracle.exact_grad_s": "s", "oracle.noise_level_s": "s", "oracle.max_draw_bytes": "B",
    "algo.paths": "count", "algo.steps": "count", "algo.step_self_s": "s",
    "algo.run_path_self_s": "s",
    "metrics.error_vector_calls": "count", "metrics.error_vector_s": "s",
    "theory.rho_evals": "count", "spectral.perron_calls": "count",
    "spectral.sym_radius_calls": "count", "spectral.sym_radius_s": "s",
    "cli.self_s": "s", "trace_overhead_frac": "frac", "trace.unattributed_frac": "frac",
}
# measured in the traced run and printed, but zero by construction on some
# workload, so they stay out of the result line (see README.md)
PER_LAYER_PRINTED = {"metrics.aggregate_s": "s", "metrics.write_csv_s": "s",
                     "theory.find_alpha_s": "s", "theory.check_recursion_s": "s",
                     "spectral.perron_s": "s", "charts.svg_s": "s"}


def cap_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = nproc + 1
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    # measured as a slowdown; the benchmark runs the serial path
    os.environ.pop("DVSSGT_WORKERS", None)
    return nproc


def import_program():
    src = ROOT / "src"
    if not (src / "dvssgt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {src / 'dvssgt'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import dvssgt
    from dvssgt import algo, charts, cli, graph, metrics, oracle, spectral, theory
    if Path(dvssgt.__file__).resolve().parent != (src / "dvssgt").resolve():
        sys.exit(f"perfbench: imported dvssgt from {dvssgt.__file__}, not from {src}")
    return {"algo": algo, "charts": charts, "cli": cli, "graph": graph,
            "metrics": metrics, "oracle": oracle, "spectral": spectral,
            "theory": theory}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(nproc, seed):
    import numpy as np
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "loadavg_start": list(os.getloadavg()), "seed": seed}


class Bench:
    def __init__(self, modules, workload, seed):
        self.m = modules
        self.w = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = workload.config(seed)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.out = self.dir / "out"
        g = self.cfg["graph"]
        self.sum_deg = int(modules["graph"].erdos_renyi(g["n"], g["p"], g["seed"])
                           .degrees().sum())
        self.setup_times = []    # every build_instance call, in the workload or not
        self.setup_blocks = []   # mean time of one call, per block
        self.attempted = self.failed = 0
        self.digests = {}
        # one timer per build_instance call, in place for the whole run
        cli = modules["cli"]
        build = cli.build_instance

        def timed_build(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                self.setup_times.append(time.perf_counter() - t0)
        cli.build_instance = timed_build

    def setup_block(self):
        t0 = time.perf_counter()
        for _ in range(SETUP_BLOCK):
            self.m["cli"].build_instance(self.cfg)
        self.setup_blocks.append((time.perf_counter() - t0) / SETUP_BLOCK)

    def call(self, tracer=None):
        """One workload call; returns (wall_s, setup_s, samples, path_iters) or None."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.w.argv(self.cfg_path, self.out)
        n_setup = len(self.setup_times)
        self.attempted += 1
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                with tracer or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    code = self.m["cli"].main(argv)
                    wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"dvssgt {' '.join(argv)} exited {code}:\n"
                                   + captured.getvalue()[-2000:])
            problems, samples, iters, digests = self.w.check(self.cfg, self.out,
                                                             self.sum_deg)
        except Exception:
            self.failed += 1
            print(f"perfbench: {self.w.name} call crashed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        self.digests = digests
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {self.w.name} check failed: {problem}", file=sys.stderr)
            return None
        return wall, sum(self.setup_times[n_setup:]), samples, iters


def end_to_end(bench, records):
    rates = [(s / (w - st), i / (w - st)) for w, st, s, i in records]
    return {
        "wall_s": statistics.median(r[0] for r in records),
        "setup_s": statistics.median(bench.setup_blocks),
        "samples_per_s": statistics.median(r[0] for r in rates),
        "path_iters_per_s": statistics.median(r[1] for r in rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(pairs, tables):
    # median_low keeps a measured value, and counts stay integers
    table = {k: statistics.median_low(t[k] for t in tables) for k in tables[0]}
    untraced = statistics.median(p[0][0] for p in pairs)
    traced = statistics.median(p[1][0] for p in pairs)
    table["trace_overhead_frac"] = traced / untraced - 1.0
    unattributed = [1.0 - t["_self_total_s"] / p[1][0] for t, p in zip(tables, pairs)]
    table["trace.unattributed_frac"] = statistics.median(unattributed)
    return table


def write_trace(bench, facts, tracer, table):
    path = WORK / f"trace-{bench.w.name}-seed{facts['seed']}.json"
    doc = {"machine": facts, "absent": tracer.absent, "layers": table,
           "digests": bench.digests,
           "span_fields": ["name", "start", "end", "parent", "path", "leaves"],
           "spans": [s.as_list() for s in tracer.spans]}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    modules = import_program()
    from workloads import DEFAULT_SEED, WORKLOADS  # imports numpy
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if not 0 <= seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    facts = machine_facts(nproc, seed)
    print("machine " + json.dumps(facts))
    bench = Bench(modules, WORKLOADS[args.workload], seed)
    for _ in range(SETUP_EDGE_BLOCKS):
        bench.setup_block()

    records, pairs, tables = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = bench.call()
        if args.trace:
            tracer = Tracer(modules)
            traced = bench.call(tracer)
            if plain and traced:
                pairs.append((plain, traced))
                tables.append(tracer.layer_table(bench.cfg["problem"]["d"]))
        elif plain:
            records.append(plain)
        bench.setup_block()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break
    for _ in range(SETUP_EDGE_BLOCKS):
        bench.setup_block()

    print("digests " + json.dumps(bench.digests))
    metrics, units, shown = {}, {}, {}
    if pairs:
        metrics, units = per_layer(pairs, tables), PER_LAYER
        shown = {**PER_LAYER, **PER_LAYER_PRINTED}
        if tracer.absent:
            print("absent, their metrics read 0: " + ", ".join(tracer.absent))
        print(f"trace written to {write_trace(bench, facts, tracer, metrics)}")
    elif records:
        metrics, units = end_to_end(bench, records), END_TO_END
        shown = END_TO_END
    for name in shown:
        value = metrics[name]
        print(f"  {name:30s} {value if isinstance(value, int) else f'{value:.6g}'} "
              f"{shown[name]}")
    print(f"  {'fail_frac':30s} {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} calls)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    # a run with no successful call has no metrics to report
    return 0 if units else 1


if __name__ == "__main__":
    sys.exit(main())
