"""The package surface: lazy imports, exported names, the experiment table, and
which public functions the configs and the command line reach."""

import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import subexp
from subexp import cli
from subexp.config import EXPERIMENT_TABLE, EXPERIMENTS
from test_golden import _FILES, GOLDEN, V2MIX, _sha

# Every public name of the package, by home module.
EXPORTS = {
    "distributions": ("AmbiguitySet", "Event", "FiniteDiscrete", "TwoSidedPareto"),
    "errors": ("DimensionTooLarge", "NonFiniteVerdict", "NonLattice", "NotConvergent",
               "QuadratureNotConverged", "SchemaError", "StateSpaceTooLarge", "SubexpError",
               "TargetOutOfRange", "TooLargeForBruteForce"),
    "expectation": ("choquet_integral", "event_upper_capacity", "lower_expectation",
                    "mean_interval", "truncated_expectation", "upper_expectation"),
    "meanset": ("MeanSet", "build_direction_net", "build_mean_set", "distance_to_mean_set",
                "support_function"),
    "sampler": ("BlockSchedule", "Path", "oscillation_schedule",
                "sample_path", "stationary_for_target", "target_chasing_schedule"),
    "lattice_dp": ("AllBlocksHit", "LatticeModel", "RunningMax", "brute_force_value",
                   "dp_value", "lattice_model", "policy_enumeration_value"),
    "inequalities": ("exponential_bound", "kolmogorov_lower_capacity_bound",
                     "kolmogorov_upper_bound", "run_inequality_grid"),
    "axioms": ("random_ambiguity_set", "random_max_affine", "run_axioms"),
    "experiments": ("run_cluster_set", "run_marcinkiewicz", "run_slln", "run_weak_lln"),
    "series": ("run_choquet_series", "run_three_series"),
    "config": ("EXPERIMENTS", "RunConfig", "member_to_spec", "model_from_spec",
               "model_to_spec", "parse_config"),
    "parallel": ("parallel_map",),
    "runner": ("ExperimentResult", "Row", "run", "write_outputs"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

E1 = {"label": "E1", "members": [
    {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
]}
PARETO = {"label": "p15", "members": [
    {"kind": "pareto", "alpha": 1.5, "scale": 1.0, "right_mass": 0.5},
]}

# Parses the configs read from stdin in a fresh interpreter, then prints the
# subexp, numpy, scipy, dataclasses and inspect modules loaded.
_PARSE_ONLY = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import subexp\n"
    "for doc in json.load(sys.stdin): subexp.parse_config(json.dumps(doc))\n"
    "roots = ('subexp', 'numpy', 'scipy', 'dataclasses', 'inspect')\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))"
)


def test_parsing_loads_only_the_schema_layer():
    # Every experiment, then every golden config: weak_lln_exact sets
    # lattice_quantum, which parsing checks against the atoms. A model keeps
    # its atoms as plain floats until a run reads an array, so numpy stays out,
    # and the schema's records are named tuples and its events slotted
    # classes, so dataclasses and inspect stay out.
    docs = [{"model": PARETO if name == "choquet_series" else E1, "experiment": name}
            for name in EXPERIMENTS] + [doc for doc, *_ in GOLDEN.values()]
    assert any("lattice_quantum" in doc for doc in docs)
    src = str(Path(subexp.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _PARSE_ONLY, src], input=json.dumps(docs),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == ["subexp", "subexp.config", "subexp.distributions", "subexp.errors"]


# Runs the configs read from stdin in a fresh interpreter, then prints the
# loaded modules under the roots given as a comma-separated list.
_RUN = (
    "import io, json, sys, tempfile; sys.path.insert(0, sys.argv[1]); import subexp\n"
    "sys.stdout = io.StringIO()\n"
    "for doc in json.load(sys.stdin):\n"
    "    subexp.run(subexp.parse_config(json.dumps(doc)), out=tempfile.mkdtemp(dir=sys.argv[2]))\n"
    "sys.stdout = sys.__stdout__\n"
    "roots = tuple(sys.argv[3].split(','))\n"
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m in roots or m.startswith(tuple(r + '.' for r in roots)))))"
)


def _modules_loaded_by_runs(docs, tmp_path, roots=("scipy",)):
    src = str(Path(subexp.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _RUN, src, str(tmp_path), ",".join(roots)],
                          input=json.dumps(docs), capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# Two 4-d point masses and a fair mix of two more: a run on a 4-d direction net.
C4 = {"label": "C4", "members": [
    {"kind": "finite", "atoms": [[[1.0, 0.0, 0.0, 0.0], 1.0]]},
    {"kind": "finite", "atoms": [[[0.0, 1.0, 0.0, 0.0], 1.0]]},
    {"kind": "finite", "atoms": [[[0.0, 0.0, 1.0, 0.0], 0.5], [[0.0, 0.0, 0.0, 1.0], 0.5]]},
]}


def test_planar_sampled_runs_never_load_scipy_optimize(tmp_path):
    docs = [
        {"model": V2MIX, "experiment": "cluster_set", "parameters": {"N": 20_000}, "seeds": [1]},
        {"model": V2MIX, "experiment": "weak_lln",
         "parameters": {"mode": "mc", "ns": [16], "mc_replicas": 6}},
    ]
    assert _modules_loaded_by_runs(docs, tmp_path) == []


def test_choquet_series_runs_never_load_scipy_integrate(tmp_path):
    coin = {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
    docs = [
        GOLDEN["choquet_series"][0],
        {"model": {"label": "p15coin", "members": PARETO["members"] + [coin]},
         "experiment": "choquet_series", "parameters": {"p": 1.2, "K": 2000}},
    ]
    assert _modules_loaded_by_runs(docs, tmp_path) == []


def test_golden_runs_load_no_scipy(tmp_path):
    # Every golden config, and a 4-d cluster set whose direction net is built
    # without scipy's ndtri.
    docs = [doc for doc, *_ in GOLDEN.values()] + [
        {"model": C4, "experiment": "cluster_set", "parameters": {"N": 2000, "delta": 0.4},
         "seeds": [1]},
    ]
    assert _modules_loaded_by_runs(docs, tmp_path) == []


def _subexp_modules_loaded_by_run(name, tmp_path):
    loaded = _modules_loaded_by_runs([GOLDEN[name][0]], tmp_path, ("subexp",))
    return {m.removeprefix("subexp.") for m in loaded} - {"subexp"}


def test_an_axioms_run_loads_only_the_modules_of_its_driver(tmp_path):
    # The driver is found through the package's lazy exports, and the runner,
    # which owns the row types, imports no engine, so the axiom suite never
    # compiles the others.
    assert _subexp_modules_loaded_by_run("axioms", tmp_path) == {
        "axioms", "config", "distributions", "errors", "expectation", "runner"}


def test_an_inequality_grid_run_loads_no_sampled_module(tmp_path):
    # Nothing is sampled, so neither the window engine nor the sampler loads.
    assert _subexp_modules_loaded_by_run("inequality_grid", tmp_path) == {
        "config", "distributions", "errors", "inequalities", "lattice_dp", "parallel", "runner"}


# Each process compiles every module it imports from source when no bytecode
# cache is written, and the heap high-water mark of that compile is set by
# the largest single module, not by the package's total size. One compile()
# in a fresh interpreter, after numpy, raised ru_maxrss by 2.50 MB for the
# 951-line experiments.py that held every driver, 1.25-1.38 MB for modules of
# 430-459 lines and 0.62 MB for 214-254 lines (2-vCPU x86 host, Python
# 3.11). Importing every module from source after numpy peaked 1.05 MB
# lower once no module exceeded this cap (+6.55 against +7.6 MB).
_MAX_MODULE_LINES = 480


def test_no_module_outgrows_the_compile_peak():
    lengths = {path.name: len(path.read_text().splitlines())
               for path in Path(subexp.__file__).parent.glob("*.py")}
    assert "experiments.py" in lengths
    assert {name: n for name, n in lengths.items() if n > _MAX_MODULE_LINES} == {}


def test_numpy_is_the_only_import_outside_the_standard_library():
    # Function-level imports count too, so a lazy import cannot add a dependency.
    roots = set()
    for path in Path(subexp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert "math" in roots
    assert roots - set(sys.stdlib_module_names) == {"numpy"}


def test_golden_runs_load_no_numpy_ma_and_only_axioms_load_numpy_random(tmp_path):
    # Any np.unique call loads numpy.ma; only the axiom suite draws from
    # numpy.random.
    roots = ("numpy.ma", "numpy.random")
    docs = [doc for name, (doc, *_) in GOLDEN.items() if name != "axioms"]
    assert _modules_loaded_by_runs(docs, tmp_path, roots) == []
    axioms = _modules_loaded_by_runs([GOLDEN["axioms"][0]], tmp_path, roots)
    assert "numpy.random" in axioms
    assert all(m.startswith("numpy.random") for m in axioms)


# numpy.linalg's entry points that call LAPACK. The first LAPACK call in a
# process pages in its code, about 1.2 MB of resident memory, so no run may
# make one.
_LAPACK = ("svd", "lstsq", "solve", "qr", "eig", "eigh", "eigvals", "eigvalsh", "inv", "pinv",
           "det", "slogdet", "cholesky", "matrix_rank")

# Runs the {name: config} documents read from stdin in a fresh interpreter,
# each into the directory of its name, with every LAPACK entry point raising.
_RUN_WITHOUT_LAPACK = (
    "import io, json, sys; sys.path.insert(0, sys.argv[1]); import numpy.linalg\n"
    "def lapack(*args, **kwargs): raise AssertionError('LAPACK called')\n"
    "for name in sys.argv[2].split(','): setattr(numpy.linalg, name, lapack)\n"
    "import subexp\n"
    "sys.stdout = io.StringIO()\n"
    "for name, doc in json.load(sys.stdin).items():\n"
    "    subexp.run(subexp.parse_config(json.dumps(doc)), out=name)\n"
)


def test_golden_runs_keep_their_bytes_with_lapack_unavailable(tmp_path):
    src = str(Path(subexp.__file__).resolve().parent.parent)
    docs = {name: doc for name, (doc, *_) in GOLDEN.items()}
    subprocess.run([sys.executable, "-c", _RUN_WITHOUT_LAPACK, src, ",".join(_LAPACK)],
                   input=json.dumps(docs), capture_output=True, text=True, timeout=120,
                   check=True, cwd=tmp_path)
    for name, (_, *digests) in GOLDEN.items():
        assert [_sha(tmp_path / name / f) for f in _FILES] == digests, name


def test_no_module_uses_numpy_linalg_but_norm():
    # The runtime guard above covers the golden configs; this covers every path.
    used = set()
    for path in Path(subexp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg":
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
                used.add(ast.unparse(node))
    assert used == {"norm"}


def test_all_lists_exactly_the_exported_names():
    assert subexp.__all__ == NAMES
    assert len(NAMES) == 62
    assert subexp.__version__ == "0.1.0"


def test_no_submodule_keeps_its_own_list_of_public_names():
    # _EXPORTS is the one list of public names. A submodule __all__ would be a
    # second list that nothing reads, free to drift from it.
    modules = [p.stem for p in Path(subexp.__file__).parent.glob("*.py") if p.stem != "__init__"]
    assert "sampler" in modules
    listing = [m for m in modules if hasattr(importlib.import_module(f"subexp.{m}"), "__all__")]
    assert listing == []


def _unused_imports(path):
    """Names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on the package, so an import left behind by a deletion
    # would stay. The package's __init__ imports to re-export, and is skipped.
    modules = Path(subexp.__file__).parent.glob("*.py")
    unused = {m.name: _unused_imports(m) for m in modules if m.name != "__init__.py"}
    assert "lattice_dp.py" in unused
    assert {name: names for name, names in unused.items() if names} == {}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_home_module(module):
    home = importlib.import_module(f"subexp.{module}")
    for name in EXPORTS[module]:
        assert getattr(subexp, name) is getattr(home, name), name


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from subexp import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(subexp, name) for name in NAMES)
    assert set(NAMES) <= set(dir(subexp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subexp.no_such_name


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_table_driver_is_the_named_function_and_takes_the_schema(name):
    # Resolved as the runner resolves it: through the package's exports.
    entry = EXPERIMENT_TABLE[name]
    driver = getattr(subexp, entry.driver)
    assert inspect.isfunction(driver) and driver.__name__ == entry.driver
    defaults = {key: default for key, (default, _) in entry.schema.items()}
    model = subexp.model_from_spec(E1)
    signature = inspect.signature(driver)
    signature.bind(model, **defaults)
    # Parsing materializes the schema's copy of each default; a call from
    # Python gets the driver's own, so the two copies must agree.
    for key, default in defaults.items():
        own = signature.parameters[key].default
        if isinstance(default, list):
            default, own = tuple(default), tuple(own)
        assert default == own, key


# Public functions that no config or command-line path calls, and why each stays.
UNREACHED = {
    "brute_force_value": "referee for dp_value over every adversary history",
    "policy_enumeration_value": "referee for dp_value over every deterministic policy",
    "support_function": "exact support function that tests hold build_mean_set's net to",
    "truncated_expectation": "the paper's truncation definition that tests hold mean_interval to",
}

# Public classes that no config or command-line path instantiates, and why each stays.
UNUSED_CLASSES = {
    "AllBlocksHit": "only the benchmark tracer's import keeps it; ROADMAP item 6 replaces it "
                    "with the Borel-Cantelli lemma in closed form",
}


def _names_called_in(path):
    """Names that the module at path calls, as f(...) or obj.f(...)."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return calls


def test_every_referee_is_called_by_a_test():
    # The exemption holds only while a test uses the referee; one that loses
    # its last caller is dead code.
    called = set().union(*map(_names_called_in, Path(__file__).parent.glob("*.py")))
    assert sorted(set(UNREACHED) - called) == []


def test_every_public_function_is_reached_by_a_config_or_the_cli(tmp_path, monkeypatch, capsys):
    """Runs every golden config (the inequality grid and the axiom suite among
    them) through the command line, and lists the public functions none of
    them called and the public classes (exceptions aside) none of their
    methods ran on."""
    monkeypatch.chdir(tmp_path)
    paths = {}
    for name, (doc, *_) in GOLDEN.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    called, instances = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            # A method call, dataclass __init__s included: record the class of self.
            if code.co_argcount and code.co_varnames[0] == "self":
                instances.add(type(frame.f_locals["self"]))

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for name, path in paths.items():
            assert cli.main(["run", str(path), "--out", name, "--jobs", "2"]) in (0, 1), name
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()

    functions = {name: getattr(subexp, name) for name in subexp.__all__}
    functions = {name: fn for name, fn in functions.items() if inspect.isfunction(fn)}
    assert set(UNREACHED) <= set(functions)
    missed = [name for name, fn in sorted(functions.items())
              if fn.__code__ not in called and name not in UNREACHED]
    assert missed == []

    classes = {name: getattr(subexp, name) for name in subexp.__all__}
    classes = {name: cls for name, cls in classes.items()
               if inspect.isclass(cls) and not issubclass(cls, BaseException)}
    assert set(UNUSED_CLASSES) <= set(classes)
    unused = [name for name, cls in sorted(classes.items())
              if cls not in instances and name not in UNUSED_CLASSES]
    assert unused == []


def test_the_benchmark_tracer_finds_every_name_it_binds():
    # perfbench/tracing.py imports lattice_dp names, wraps public functions
    # that one subexp module imports from another, and re-binds dp_value's
    # signature. Read, not imported: a change here that breaks every
    # benchmark run fails this test.
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    bound = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module.startswith("subexp")
             for alias in node.names]
    bound += [(call.args[0].args[0].value, call.args[1].value) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_wrap_attr"
              and isinstance(call.args[1], ast.Constant)]
    assert {name for _, name in bound} >= {"AllBlocksHit", "lattice_model", "write_outputs"}
    for module, name in bound:
        assert hasattr(importlib.import_module(module), name), (module, name)

    counted = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_COUNTED")
    modules = [importlib.import_module(f"subexp.{path.stem}")
               for path in Path(subexp.__file__).parent.glob("*.py")]
    importers = {name: [m.__name__ for m in modules if inspect.isfunction(vars(m).get(name))
                        and vars(m)[name].__module__ != m.__name__]
                 for name in counted}
    assert counted and all(importers.values()), importers

    dp_args = next(node.args for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_dp_args")
    params = inspect.signature(subexp.dp_value).parameters.values()
    assert [arg.arg for arg in dp_args.args] == [p.name for p in params]
    assert ([ast.literal_eval(d) for d in dp_args.defaults]
            == [p.default for p in params if p.default is not p.empty])


def _readme_quick_start() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_the_values_its_comments_name():
    # Every statement runs; each expression's comment opens with the value it
    # gives: a literal exactly, "same" as the expression above, "~x" within
    # 0.05 of x (a sampled mean).
    block = _readme_quick_start()
    lines = block.splitlines()
    namespace, previous, exact = {}, None, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].split("# ", 1)[1]
        near, named = re.match(r"(~?)(same|\([^)]*\)|[-\d.]+)", comment).groups()
        if named == "same":
            assert value == previous, comment
        elif near:
            assert abs(value - float(named)) <= 0.05, (comment, value)
        else:
            assert value == ast.literal_eval(named), (comment, value)
            exact.append(value)
        previous = value
    assert exact == [0.5, 0.0, (0.0, 0.5), 0.75, 0.5625, 0.5625]
