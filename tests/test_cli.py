import json
import sys

import pytest

from treepack import cli, rounding
from treepack.cli import main
from treepack.core import AdditiveDpInstance, Choice, Problem, instance_to_json
from treepack.apps import DirectedGraph, Edge, graph_to_json
from treepack.lp import LpResult

from conftest import tiny_instance


@pytest.fixture
def inst_path(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(instance_to_json(tiny_instance())))
    return str(p)


@pytest.fixture
def diamond_path(tmp_path):
    g = DirectedGraph(["s", "a", "b", "t"],
                      [Edge("s", "a", cost=1.0), Edge("a", "t", cost=1.0),
                       Edge("s", "b", cost=1.0), Edge("b", "t", cost=1.0)])
    p = tmp_path / "diamond.json"
    p.write_text(json.dumps(graph_to_json(g)))
    return str(p)


def test_solve_writes_report(inst_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["solve", inst_path, "--delta", "5", "--seed", "1",
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "ok"
    assert report["vector"] == [[1, 2]]
    assert "maxViolation" in report["diagnostics"]


def test_solve_report_round_trips_byte_identical(inst_path, capsys):
    assert main(["solve", inst_path, "--delta", "5", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", inst_path, "--delta", "5", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    # canonical form survives a parse/serialize cycle
    obj = json.loads(first)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == first


def test_solve_infeasible_exit_code(inst_path, tmp_path, capsys):
    inst = tiny_instance()
    inst.packing = [{0: 1.0, 1: 1.0}]
    p = tmp_path / "hard.json"
    p.write_text(json.dumps(instance_to_json(inst)))
    assert main(["solve", str(p), "--delta", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "lp-infeasible"


def test_malformed_input_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", str(p), "--delta", "3"]) == 1
    assert main(["solve", str(tmp_path / "missing.json"), "--delta", "3"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("failure", ["error", "unbounded"])
def test_solver_failure_exits_one(inst_path, monkeypatch, capsys, failure):
    def failing_solve(model):
        return LpResult(failure)
    monkeypatch.setattr(rounding, "solve_lp", failing_solve)
    assert main(["solve", inst_path, "--delta", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_invalid_rounded_labeling_exits_one(inst_path, monkeypatch, capsys):
    """A rounded labeling with one invalid triple is caught before it is
    lifted: the solve fails with exit code 1 and an error message."""
    round_without_cost = rounding.round_without_cost

    def broken(source, collapsed, pbtl, *args, **kw):
        labeling, layers, picks = round_without_cost(source, collapsed,
                                                     pbtl, *args, **kw)
        leaf = min(key for key in labeling.assignment if key[0] == pbtl.H)
        labeling.assignment[leaf] = pbtl.root     # never a leaf's label
        return labeling, layers, picks

    monkeypatch.setattr(rounding, "round_without_cost", broken)
    assert main(["solve", inst_path, "--delta", "5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid triple")


@pytest.mark.parametrize("flags", [[], ["--delta", "5", "--mode", "bogus"],
                                   ["--delta", "2", "--backend", "exact"],
                                   ["--delta", "5", "--bogus"]],
                         ids=["no-delta", "mode-bogus", "unknown-option",
                              "unknown-flag"])
def test_usage_errors_exit_one(inst_path, monkeypatch, capsys, flags):
    """A missing --delta, a --mode outside its choices or an unknown flag
    (HiGHS is the one LP backend, and no flag picks another) is a usage
    error: exit code 1, as the README says, not argparse's 2, which here
    means an infeasible or empty result.  Nothing reaches stdout and the
    reduction never runs."""
    def reduce_chain(*args, **kw):
        raise AssertionError("the reduction ran")
    monkeypatch.setattr(rounding, "reduce_chain", reduce_chain)
    assert main(["solve", inst_path, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--dump-lp" in capsys.readouterr().out


def test_dump_lp_writes_the_model_and_keeps_stdout(inst_path, tmp_path,
                                                   monkeypatch, capsys):
    """``--dump-lp FILE`` leaves stdout byte for byte as it is without the
    flag, and FILE holds the model the solve builds: one ``r<i>:`` line
    per row and one bound line per variable."""
    flags = ["solve", inst_path, "--delta", "5", "--seed", "1"]
    assert main(flags) == 0
    plain = capsys.readouterr().out
    models = []
    build = rounding.build_state_lp

    def spy(*args, **kw):
        sol = build(*args, **kw)
        models.append(sol.model)
        return sol

    monkeypatch.setattr(rounding, "build_state_lp", spy)
    path = tmp_path / "model.lp"
    assert main(flags + ["--dump-lp", str(path)]) == 0
    assert capsys.readouterr().out == plain
    model, = models
    lines = path.read_text().splitlines()
    rows = [line.split(":")[0] for line in lines if line.startswith(" r")]
    assert rows == [" r%d" % i for i in range(len(model.rows))] != []
    bounds = lines[lines.index("Bounds") + 1:lines.index("End")]
    assert bounds == [" 0 <= x%d" % i for i in range(model.n)] != []


def test_unwritable_dump_lp_exits_one(inst_path, tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "model.lp"
    assert main(["solve", inst_path, "--delta", "5",
                 "--dump-lp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--trials", "-1"], ["--trials", "0"],
                                   ["--seed", "-1"],
                                   ["--dump-lp", "no-such-dir/m.lp"]],
                         ids=["trials-1", "trials0", "seed-1", "dump-lp"])
def test_bad_solve_flags_exit_one_before_reducing(inst_path, monkeypatch,
                                                  tmp_path, capsys, flags):
    """A trial count below 1, a negative seed or a ``--dump-lp`` file that
    cannot be opened (the relative path names a missing directory) is one
    error line and exit code 1, and the reduction never runs."""
    def reduce_chain(*args, **kw):
        raise AssertionError("the reduction ran")
    monkeypatch.setattr(rounding, "reduce_chain", reduce_chain)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", inst_path, "--delta", "5", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_oracle_matches_solve(inst_path, capsys):
    assert main(["oracle", inst_path, "--delta", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"status": "ok", "cost": 2.0, "vector": [[1, 2]], "size": 2}


def test_reduce_stats(inst_path, capsys):
    assert main(["reduce", inst_path, "--delta", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["delta"] == 4 and rep["delta1"] == 8 and rep["delta2"] == 8
    assert rep["height"] >= 1 and rep["pbtlTriples"] >= 1


def test_reduce_reports_the_height_solve_builds(inst_path, monkeypatch,
                                                capsys):
    """At --delta 5 and the default epsilon 1/2, solve builds H = 12."""
    assert main(["reduce", inst_path, "--delta", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["height"] == 12
    seen = []
    build = rounding.build_state_lp

    def spy(coll, pbtl, **kw):
        seen.append(pbtl.H)
        return build(coll, pbtl, **kw)

    monkeypatch.setattr(rounding, "build_state_lp", spy)
    assert main(["solve", inst_path, "--delta", "5"]) == 0
    assert seen == [12]


@pytest.mark.parametrize("eps", ["0", "nan", "-0.5", "inf"])
@pytest.mark.parametrize("cmd", ["solve", "reduce"])
def test_bad_epsilon_exits_one_before_reducing(inst_path, monkeypatch,
                                               capsys, cmd, eps):
    """An epsilon that is not finite and > 0 is one error line and exit
    code 1, and the reduction never runs."""
    def reduce_chain(*args, **kw):
        raise AssertionError("the reduction ran")
    monkeypatch.setattr(rounding, "reduce_chain", reduce_chain)
    monkeypatch.setattr(cli, "reduce_chain", reduce_chain)
    assert main([cmd, inst_path, "--delta", "5", "--epsilon", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: epsilon must be finite and > 0")
    assert captured.err.count("\n") == 1


def test_epsilon_above_one_solves_in_one_layer(inst_path, capsys):
    """eps >= 1 rounds to eps' = 1: one super-layer, as at eps = 1."""
    assert main(["solve", inst_path, "--delta", "5", "--epsilon", "2"]) == 0
    two = capsys.readouterr().out
    assert main(["solve", inst_path, "--delta", "5", "--epsilon", "1"]) == 0
    assert capsys.readouterr().out == two
    assert json.loads(two)["status"] == "ok"


def _dead_base_path(tmp_path, root_dies):
    """r takes base a or the infeasible base b; when the root dies, r has
    only b."""
    choices = (Choice(fixed={}, children=("b",)),)
    if not root_dies:
        choices = (Choice(fixed={}, children=("a",)),) + choices
    inst = AdditiveDpInstance(
        d=1, m=1, root="r", packing=[{0: 0.5}], cost=[1.0],
        problems=[Problem(id="r", base=False, choices=choices),
                  Problem(id="a", base=True, x={0: 1}),
                  Problem(id="b", base=True, x=None)])
    p = tmp_path / ("dead-root.json" if root_dies else "dead-base.json")
    p.write_text(json.dumps(instance_to_json(inst)))
    return str(p)


def test_reduce_reduces_what_solve_reduces(tmp_path, monkeypatch, capsys):
    """``reduce`` strips the infeasible base b first, as solve does, and
    reports the reduction solve builds."""
    path = _dead_base_path(tmp_path, root_dies=False)
    assert main(["reduce", path, "--delta", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    seen = []
    reduce_chain = rounding.reduce_chain

    def spy(*args, **kw):
        seen.append(reduce_chain(*args, **kw))
        return seen[-1]

    monkeypatch.setattr(rounding, "reduce_chain", spy)
    assert main(["solve", path, "--delta", "2"]) == 0
    red, = seen
    assert rep == {"delta": red.delta, "delta1": red.delta1,
                   "delta2": red.delta2, "ftlLabels": len(red.ftl2.labels),
                   "shallowLabels": len(red.shallow.labels),
                   "pbtlLabels": len(red.pbtl.labels),
                   "pbtlTriples": len(red.pbtl.triples), "height": red.H}
    assert (rep["ftlLabels"], rep["shallowLabels"]) == (2, 4)


@pytest.mark.parametrize("cmd", ["solve", "reduce"])
def test_dead_root_exits_two(tmp_path, monkeypatch, capsys, cmd):
    """When preprocessing kills the root, solve and reduce both print
    status no-solution and exit 2, without reducing."""
    def reduce_chain(*args, **kw):
        raise AssertionError("the reduction ran")
    monkeypatch.setattr(rounding, "reduce_chain", reduce_chain)
    monkeypatch.setattr(cli, "reduce_chain", reduce_chain)
    path = _dead_base_path(tmp_path, root_dies=True)
    assert main([cmd, path, "--delta", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {"status": "no-solution"}


@pytest.mark.parametrize("mode", ["cost-free", "cost-preserving"])
@pytest.mark.parametrize("cost", [float("nan"), float("inf"), "1"],
                         ids=["nan", "inf", "string"])
def test_solve_rejects_a_cost_that_is_not_a_finite_number(
        tmp_path, capsys, mode, cost):
    """A NaN, infinite or string cost is an invalid instance in both
    modes: exit 1 and one error line, before HiGHS is reached."""
    doc = instance_to_json(tiny_instance())
    doc["cost"][0] = cost
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["solve", str(p), "--delta", "5", "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid instance: cost entry 0: ")
    assert captured.err.count("\n") == 1


def _tiny_doc(change):
    """``tiny_instance``'s JSON document after ``change``, as text."""
    doc = instance_to_json(tiny_instance())
    change(doc)
    return json.dumps(doc)


# instance documents of the wrong shape, and the one error line each gives
MISSHAPEN = {
    "choices-string": (
        lambda d: d["problems"][0].update(choices="ab"),
        "invalid instance: problems[0].choices: expected an array, "
        "not a string"),
    "problems-object": (
        lambda d: d.update(problems={"a": 1}),
        "invalid instance: problems: expected an array, not an object"),
    "root-array": (
        lambda d: d.update(root=["s"]),
        "invalid instance: root: expected a string or an integer, "
        "not an array"),
    "x-string": (
        lambda d: d["problems"][2].update(x="ab"),
        "invalid instance: problems[2].x: expected an array of "
        "[index, value] pairs, not a string"),
    "children-string": (
        lambda d: d["problems"][1]["choices"][0].update(children="x"),
        "invalid instance: problems[1].choices[0].children: expected an "
        "array, not a string"),
}

BAD_DOCUMENTS = [
    pytest.param(["solve", "{}", "--delta", "3"], "[]",
                 "invalid instance: expected a JSON object, not an array",
                 id="solve-array"),
    pytest.param(["solve", "{}", "--delta", "3"], "null",
                 "invalid instance: expected a JSON object, not null",
                 id="solve-null"),
    pytest.param(["reduce", "{}", "--delta", "3"], "[]",
                 "invalid instance: expected a JSON object, not an array",
                 id="reduce-array"),
    pytest.param(["reduce", "{}", "--delta", "3"], "null",
                 "invalid instance: expected a JSON object, not null",
                 id="reduce-null"),
    pytest.param(["oracle", "{}", "--delta", "3"], "[]",
                 "invalid instance: expected a JSON object, not an array",
                 id="oracle-array"),
    pytest.param(["oracle", "{}", "--delta", "3"], "null",
                 "invalid instance: expected a JSON object, not null",
                 id="oracle-null"),
    pytest.param(["app", "shortest-path", "{}", "--s", "s", "--t", "t"],
                 "[1, 2]", "invalid graph: expected a JSON object, not an "
                 "array", id="shortest-path-array"),
    *(pytest.param([cmd, "{}", "--delta", "3"], _tiny_doc(change), message,
                   id="%s-%s" % (cmd, name))
      for name, (change, message) in MISSHAPEN.items()
      for cmd in ("solve", "reduce", "oracle")),
]


@pytest.mark.parametrize("argv,text,message", BAD_DOCUMENTS)
def test_document_that_is_not_an_object_exits_one(tmp_path, capsys, argv,
                                                  text, message):
    """An instance or graph file whose JSON is not an object, or an
    instance whose fields have the wrong shape, is an input error: one
    ``error:`` line that names the JSON path, and exit 1, not a TypeError
    or an AttributeError."""
    p = tmp_path / "doc.json"
    p.write_text(text)
    assert main([str(p) if a == "{}" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message
    assert "Traceback" not in captured.err


def test_out_of_memory_exits_one_without_traceback(inst_path, monkeypatch,
                                                    capsys):
    def no_memory(*args, **kw):
        raise MemoryError()
    monkeypatch.setattr(rounding, "build_state_lp", no_memory)
    assert main(["solve", inst_path, "--delta", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_missing_highs_exits_one_without_traceback(inst_path, monkeypatch,
                                                  capsys):
    """Without scipy's HiGHS extension, a solve is one error line."""
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    assert main(["solve", inst_path, "--delta", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "scipy.optimize._highspy._core" in captured.err
    assert captured.err.count("\n") == 1


def test_app_shortest_path(diamond_path, capsys):
    rc = main(["app", "shortest-path", diamond_path, "--s", "s", "--t", "t",
               "--seed", "0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "ok" and rep["cost"] == pytest.approx(2.0)


def test_app_lcs(capsys):
    assert main(["app", "lcs", "--a", "xy", "--b", "xy", "--C", "2",
                 "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["length"] == 2


def test_app_gap_gen(capsys):
    assert main(["app", "gap-gen", "--k", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["left"]) == len(rep["right"])
    assert all(n == 1 and d == 2 for n, d in rep["fractional"].values())


def test_bench_empty_suite_prints_header_only(tmp_path, capsys):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"instances": [], "epsilons": [0.5]}))
    assert main(["bench", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["instance,epsilon,lpCost,roundedCost,"
                                "maxViolation,softBound,runtime,status"]


def _strip_runtime(csv_text):
    rows = [r.split(",") for r in csv_text.splitlines()]
    return [r[:6] + r[7:] for r in rows]


def test_bench_reproducible_modulo_runtime(inst_path, tmp_path, capsys):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"instances": [inst_path],
                             "epsilons": [0.5, 1.0 / 3],
                             "delta": 5, "seed": 2, "trials": 4}))
    assert main(["bench", str(p)]) == 0
    a = capsys.readouterr().out
    assert main(["bench", str(p)]) == 0
    b = capsys.readouterr().out
    assert _strip_runtime(a) == _strip_runtime(b)
    body = a.splitlines()[1:]
    assert len(body) == 2 and all(r.endswith(",ok") for r in body)


def test_bench_reports_a_bad_mode_as_an_error_row(inst_path, tmp_path,
                                                   capsys):
    """The suite file's mode is checked like --mode: an unknown one is an
    error row, not a cost-free run."""
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"instances": [inst_path], "epsilons": [0.5],
                             "delta": 5, "mode": "bogus"}))
    assert main(["bench", str(p)]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split(",")[-1] == "error: unknown rounding mode 'bogus'"
