"""treepack benchmark: one workload per process, one thread.

  python3 perfbench/run.py --workload dag-path --seed 1 --seconds 50 --trace 0

Imports the library from ``src/`` next to this directory.  With
``--trace 0`` it makes one warm-up solve, then repeats whole rounds (every
instance of the workload solved once) while another round still fits in
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
follows every untraced solve with the same library call made with the
spans of ``traced.py`` in place, and reports per-layer metrics.  Every solve is checked
(``checks.py``); the last line of stdout is one JSON object.  Per-run
results and spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("dag-path", "random-dp", "reduce-prune")
# rounding modes per DP workload
MODES = {"random-dp": ("cost-free", "cost-preserving"),
         "reduce-prune": ("cost-preserving",)}
# dag-path solves every DAG cost-preserving and its first DAG cost-free
# too, so that both rounding modes run on a benchmarked workload
DAG_MODES = ("cost-preserving", "cost-free")
# set-ups before the first round; one more follows every untraced round
SETUP_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "import treepack, treepack.apps, treepack.oracle; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Time to import the library in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload, seed):
    """One set-up: import the library in a fresh interpreter, then build the
    workload's instances.  Returns (seconds, cases)."""
    t_imp = import_seconds()
    t = time.perf_counter()
    cases = build_cases(workload, seed)
    return t_imp + time.perf_counter() - t, cases


class Op:
    """One solve of one instance in one rounding mode: ``run`` calls the
    library's entry point, ``traced`` makes the same call with the spans of
    ``traced.py`` in place, and ``check`` validates a result of either and
    returns (witness, largest packing-row value)."""

    def __init__(self, name, run, traced, check):
        self.name, self.run, self.traced, self.check = name, run, traced, check
        self.witness = None
        self.violation = None


def dag_ops(cases, seed):
    from treepack import RoundingParams
    from treepack.apps import robust_shortest_path
    from treepack.apps.paths import path_dp
    import checks
    import traced

    ops = []
    for k, case in enumerate(cases):
        g = case.graph
        inst, delta = path_dp(g, "s", "t")
        best = checks.cheapest_within_budget(g, case.paths)
        for mode in DAG_MODES if k == 0 else DAG_MODES[:1]:
            params = RoundingParams(mode=mode, seed=seed)

            def run(g=g, params=params):
                return robust_shortest_path(g, "s", "t", params=params)

            def traced_run(trace, run=run, params=params):
                return traced.solve(trace, params, run)

            def check(out, inst=inst, delta=delta, g=g, best=best,
                      mode=mode):
                if out.status != "ok":
                    raise checks.CheckError("path status %r" % out.status)
                viol = checks.check_solve(inst, delta, out.solve, mode)
                checks.check_st_path(g, out.edges)
                if dict.fromkeys(out.edges, 1) != out.solve.witness.vector:
                    raise checks.CheckError(
                        "edges %r disagree with the witness" % (out.edges,))
                if mode == "cost-preserving":
                    checks.check_cost(sum(g.edges[i].cost
                                          for i in out.edges),
                                      out.solve.lp_objective)
                checks.check_lower_bound(out.solve.lp_objective, best)
                return out.solve.witness, viol

            ops.append(Op("%s/%s" % (case.name, mode), run, traced_run,
                          check))
    return ops


def dp_ops(workload, cases, seed):
    from treepack import RoundingParams, oracle, solve_additive_dp
    import checks
    import traced

    ops = []
    for case in cases:
        _, opt, _ = oracle.solve_exact(case.inst, case.delta)
        for mode in MODES[workload]:
            params = RoundingParams(mode=mode, seed=seed)

            def run(case=case, params=params):
                return solve_additive_dp(case.inst, case.delta,
                                         params=params)

            def traced_run(trace, run=run, params=params):
                return traced.solve(trace, params, run)

            def check(res, case=case, mode=mode, opt=opt):
                viol = checks.check_solve(case.inst, case.delta, res, mode)
                checks.check_lower_bound(res.lp_objective, opt)
                return res.witness, viol

            ops.append(Op("%s/%s" % (case.name, mode), run, traced_run,
                          check))
    return ops


def build_cases(workload, seed):
    import workloads
    if workload == "dag-path":
        return workloads.dag_cases(seed)
    return workloads.dp_cases(workload, seed)


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seconds = {op.name: [] for op in ops}

    def attempt(self, op, trace=None):
        """Solve and check one op; returns its solve time.  A traced solve
        must give the witness of the op's first untraced solve, and every
        later untraced solve must repeat it."""
        import checks
        self.attempted += 1
        if trace is not None:
            trace.request = "%s#%d" % (op.name, self.attempted)
        t = time.perf_counter()
        try:
            out = op.run() if trace is None else op.traced(trace)
        except Exception as e:          # a raising solve is a failed op
            return self._fail(op, "raised %r" % e, time.perf_counter() - t)
        dt = time.perf_counter() - t
        try:
            witness, viol = op.check(out)
        except checks.CheckError as e:
            return self._fail(op, str(e), dt)
        if trace is None and op.witness is None:
            op.witness, op.violation = witness, viol
        if witness != op.witness:
            return self._fail(op, "witness differs from the first solve", dt)
        return dt

    def _fail(self, op, why, dt):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (op.name, why))
        return dt

    def round(self, trace=None):
        """Solve every op once; with a trace, follow each untraced solve by
        a traced one, so both see the same machine load.  Returns the solve
        times, untraced and traced."""
        gc.collect()    # garbage of the last round is not this round's cost
        times, traced = [], []
        for op in self.ops:
            times.append(self.attempt(op))
            self.seconds[op.name].append(times[-1])
            if trace is not None:
                traced.append(self.attempt(op, trace))
        return times, traced


def per_layer(trace, wall, traced_wall):
    n = len(traced_wall)
    tm, ct = trace.times, trace.counts
    cand = ct["reduce.candidate_triples"]

    def sec(name):
        return {"value": tm[name] / n, "unit": "s"}

    def cnt(name):
        return {"value": ct[name] / n, "unit": "count"}

    return {
        "core.preprocess_s": sec("core.preprocess"),
        "apps.model_s": sec("apps.model"),
        "reduce.reduce_s": sec("reduce.reduce"),
        "reduce.shallow_labels": cnt("reduce.shallow_labels"),
        "reduce.pbtl_labels": cnt("reduce.pbtl_labels"),
        "reduce.pbtl_triples": cnt("reduce.pbtl_triples"),
        "reduce.pbtl_kept_ratio": {
            "value": ct["reduce.pbtl_triples"] / cand if cand else 0.0,
            "unit": "ratio"},
        "reduce.lift_s": sec("reduce.lift"),
        "lp.pad_s": sec("lp.pad"),
        "lp.relax_s": sec("lp.relax"),
        "lp.solve_s": sec("lp.solve"),
        "lp.cert_s": sec("lp.cert"),
        "lp.vars": cnt("lp.vars"),
        "lp.rows": cnt("lp.rows"),
        "lp.nnz": cnt("lp.nnz"),
        "rounding.cost_free_s": sec("rounding.cost_free"),
        "rounding.cost_preserving_s": sec("rounding.cost_preserving"),
        "rounding.trials": cnt("rounding.trials"),
        "bench.trace_overhead_s": {
            "value": statistics.median(
                t - u for t, u in zip(traced_wall, wall)),
            "unit": "s"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the library must come from this checkout, never from site-packages
    if not (SRC / "treepack" / "__init__.py").is_file():
        print("no treepack sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread: a BLAS thread pool would contend with the solve for the
    # machine's cores (set before numpy is first imported)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    # imported here untimed: a set-up times the import in a fresh
    # interpreter, and only the first build in this one would repeat it
    import workloads  # noqa: F401
    setup = []
    for _ in range(SETUP_REPS):
        dt, cases = set_up(args.workload, args.seed)
        setup.append(dt)

    if args.workload == "dag-path":
        ops = dag_ops(cases, args.seed)
    else:
        ops = dp_ops(args.workload, cases, args.seed)
    runner = Runner(ops)
    try:
        ops[0].run()            # warm-up; a fault here shows in the rounds
    except Exception:
        pass

    import traced
    trace = traced.Trace() if args.trace else None
    if trace is not None:
        # an extra untraced round: first solves of an instance run slower
        # and would skew the traced-minus-untraced overhead
        runner.round()
    wall, traced_wall, solve_times = [], [], []
    # start a round only when one as long as the last still ends in time;
    # the set-ups between rounds do not count against --seconds
    start, last, paused = time.perf_counter(), 0.0, 0.0
    while (not wall or time.perf_counter() - start - paused + last
           <= args.seconds):
        t = time.perf_counter()
        times, traced_times = runner.round(trace)
        last = time.perf_counter() - t
        wall.append(sum(times))
        solve_times.extend(times)
        traced_wall.append(sum(traced_times))
        if trace is None:
            # set-ups spread over the run see the machine's load as the
            # rounds do, not only that of its first seconds
            t = time.perf_counter()
            setup.append(set_up(args.workload, args.seed)[0])
            paused += time.perf_counter() - t

    correct = runner.failed == 0
    if trace is not None:
        metrics = per_layer(trace, wall, traced_wall)
    else:
        viols = [op.violation for op in ops if op.violation is not None]
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "solve_p50_s": {"value": statistics.median(solve_times),
                            "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "violation": {
                "value": statistics.fmean(viols) if viols else 0.0,
                "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "rounds": len(wall),
                   "round_seconds": wall, "traced_round_seconds": traced_wall,
                   "setup_seconds": setup, "errors": runner.errors,
                   "violations": {op.name: op.violation for op in ops},
                   "solve_seconds": runner.seconds,
                   "result": result}, fh, indent=1)
    if trace is not None:
        with open(OUT / (stem + "-spans.json"), "w") as fh:
            json.dump([{"name": n, "parent": p, "request": r, "start": s,
                        "end": e} for n, p, r, s, e in trace.spans], fh)

    for err in runner.errors:
        print("FAILED %s" % err)
    print("%s seed=%d rounds=%d attempted=%d failed=%d"
          % (args.workload, args.seed, len(wall), runner.attempted,
             runner.failed))
    for name, m in metrics.items():
        print("  %-28s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
