"""Command-line front end.

Subcommands: solve (run the full pipeline on an instance file), app (run one
of the application adapters), oracle (exact brute force), reduce (reduction
statistics), bench (CSV sweep over instances and epsilons).

Exit codes: 0 success, 2 infeasible/empty result, 1 usage, input or solver
error.
All randomness flows from --seed; identical invocations give identical
bytes on stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import partial

from . import apps
from .core import instance_from_json, instance_phi, vec_dot
from .oracle import solve_exact
from .reduce import check_epsilon, layered_height, reduce_chain
from .rounding import (RoundingParams, prepare_instance, solve_additive_dp,
                       violation_bound)


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_instance(path):
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def _params(args):
    return RoundingParams(mode=args.mode, trials=args.trials, seed=args.seed,
                          dump_lp_path=args.dump_lp)


def _add_solver_flags(p):
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", choices=["cost-free", "cost-preserving"],
                   default="cost-free")
    p.add_argument("--dump-lp", default=None, metavar="FILE")
    p.add_argument("--output", default=None, metavar="FILE")


def _witness_json(node):
    return {"problem": node.problem_id, "choice": node.choice_index,
            "children": [_witness_json(c) for c in node.children]}


def cmd_solve(args):
    inst = _load_instance(args.instance)
    res = solve_additive_dp(inst, args.delta, eps=args.epsilon,
                            params=_params(args))
    report = {"status": res.status}
    if res.status == "ok":
        report["vector"] = sorted([i, v] for i, v in res.witness.vector.items())
        report["witness"] = _witness_json(res.witness.root)
        report["diagnostics"] = res.diagnostics.to_json()
    _emit(report, args.output)
    return 0 if res.status == "ok" else 2


def cmd_oracle(args):
    inst = _load_instance(args.instance)
    try:
        w, opt, _ = solve_exact(inst, args.delta)
    except RuntimeError as e:
        raise SystemExit("oracle: %s" % e)
    if w is None:
        _emit({"status": "infeasible"}, args.output)
        return 2
    _emit({"status": "ok", "cost": opt,
           "vector": sorted([i, v] for i, v in w.vector.items()),
           "size": w.size}, args.output)
    return 0


def cmd_reduce(args):
    inst = _load_instance(args.instance)
    check_epsilon(args.epsilon)
    # the instance and the height solve reduces at this epsilon
    inst, ok = prepare_instance(inst)
    if not ok:
        _emit({"status": "no-solution"}, args.output)
        return 2
    red = reduce_chain(inst, args.delta,
                       height_fn=partial(layered_height, eps=args.epsilon))
    _emit({"delta": red.delta, "delta1": red.delta1, "delta2": red.delta2,
           "ftlLabels": len(red.ftl2.labels),
           "shallowLabels": len(red.shallow.labels),
           "pbtlLabels": len(red.pbtl.labels),
           "pbtlTriples": len(red.pbtl.int_view().parent),
           "height": red.H}, args.output)
    return 0


def _load_graph(path):
    with open(path) as fh:
        return apps.graph_from_json(json.load(fh))


def cmd_app(args):
    name = args.name
    if name == "gap-gen":
        bg, frac = apps.gap_instance(args.k)
        out = apps.graph_to_json(bg)
        out["fractional"] = {str(j): [v.numerator, v.denominator]
                             for j, v in sorted(frac.items())}
        _emit(out, args.output)
        return 0
    if name == "lcs":
        r = apps.bounded_rep_lcs(args.a, args.b, args.C, eps=args.epsilon,
                                 params=_params(args))
        _emit({"length": r.length, "subsequence": r.subsequence,
               "pairs": r.pairs, "repetitions": r.repetitions}, args.output)
        return 0
    g = _load_graph(args.input)
    if name == "shortest-path":
        r = apps.robust_shortest_path(g, args.s, args.t, eps=args.epsilon,
                                      params=_params(args))
        _emit({"status": r.status, "edges": r.edges, "cost": r.cost,
               "lengthSums": r.length_sums}, args.output)
    elif name == "flow":
        r = apps.generalized_flow(g, args.s, args.F, args.W,
                                  eps=args.epsilon, params=_params(args))
        _emit({"status": r.status,
               "flow": sorted([i, u] for i, u in r.flow.items()),
               "cost": r.cost, "capViolation": r.cap_violation}, args.output)
    elif name == "steiner":
        terms = args.terminals.split(",")
        r = apps.steiner_cover(g, args.root, terms, args.budget,
                               eps=args.epsilon, params=_params(args))
        _emit({"status": r.status, "tree": r.tree, "covered": r.covered,
               "guessed": r.guessed, "cost": r.cost}, args.output)
    elif name == "orienteering":
        r = apps.colorful_orienteering(g, args.s, args.t, args.budget,
                                       eps=args.epsilon,
                                       params=_params(args),
                                       levels=args.levels)
        _emit({"status": r.status, "walk": r.walk, "colors": r.colors,
               "guessed": r.guessed, "cost": r.cost}, args.output)
    elif name == "matching":
        r = apps.robust_perfect_matching(g, eps=args.epsilon,
                                         params=_params(args))
        _emit({"status": r.status, "matching": r.matching,
               "lengthSums": r.length_sums, "iterations": r.iterations,
               "alpha": r.alpha}, args.output)
    else:
        raise SystemExit("unknown adapter %r" % name)
    return 0 if r.status == "ok" else 2


def cmd_bench(args):
    with open(args.suite) as fh:
        suite = json.load(fh)
    header = ["instance", "epsilon", "lpCost", "roundedCost",
              "maxViolation", "softBound", "runtime", "status"]

    def run(path, eps):
        inst = _load_instance(path)
        delta = suite.get("delta", instance_phi(inst))
        t0 = time.time()
        try:
            res = solve_additive_dp(
                inst, delta, eps=eps,
                params=RoundingParams(mode=suite.get("mode", "cost-free"),
                                      seed=suite.get("seed", 0),
                                      trials=suite.get("trials")))
        except Exception as e:          # per-row failures don't stop the run
            return [path, eps, "", "", "", "", "%.3f" % (time.time() - t0),
                    "error: %s" % e]
        dt = time.time() - t0
        bound = violation_bound(instance_phi(inst), eps, max(inst.m, 1))
        if res.status != "ok":
            return [path, eps, "", "", "", "%.6g" % bound, "%.3f" % dt,
                    res.status]
        return [path, eps, "%.9g" % res.lp_objective,
                "%.9g" % vec_dot(inst.cost, res.witness.vector),
                "%.9g" % res.diagnostics.max_violation,
                "%.6g" % bound, "%.3f" % dt, "ok"]

    rows = [run(path, eps) for path in suite.get("instances", [])
            for eps in suite.get("epsilons", [0.5])]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="treepack")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run the pipeline on an instance file")
    p.add_argument("instance")
    p.add_argument("--delta", type=int, required=True)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force solve")
    p.add_argument("instance")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("reduce", help="reduction statistics")
    p.add_argument("instance")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("app", help="run an application adapter")
    p.add_argument("name", choices=["shortest-path", "lcs", "flow",
                                    "steiner", "orienteering", "matching",
                                    "gap-gen"])
    p.add_argument("input", nargs="?", help="graph JSON file")
    p.add_argument("--s")
    p.add_argument("--t")
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--C", type=int, default=1)
    p.add_argument("--F", type=int, default=1)
    p.add_argument("--W", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--root")
    p.add_argument("--terminals", default="")
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--levels", type=int, default=None)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_app)

    p = sub.add_parser("bench", help="CSV sweep over a suite file")
    p.add_argument("suite")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code != 2:             # --help
            raise
        return 1                    # argparse's usage error; 2 is infeasible
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            RuntimeError, ImportError) as e:
        # RuntimeError: LP status error or unbounded; ImportError: no HiGHS
        # extension in the installed scipy
        sys.stderr.write("error: %s\n" % e)
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
