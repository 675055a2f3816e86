"""The artifact file codec: atomic writes, CSV tables that keep quoted text
and every float bit, and the rule that nothing else in the package writes
a file; the rule that only `_util` parses a hand-written JSON file; the
rule that only the pipeline's stage runner hashes files; the rule that
only the fit stage and the CV and Monte Carlo refit fit a recipe; the rule
that only `_util` starts processes; and the rule that the package defines
no public name, and no private function or method, that only tests use."""

import ast
import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lurk
from lurk import geodata
from lurk.covariates import CovariateMatrix
from lurk.evaluation import CvResult
from lurk.monitors import MonitorTable
from lurk._util import dump_json, read_table

TESTS = Path(__file__).resolve().parent


def monitor_table(site_ids, rng, province=None, city=None):
    n = len(site_ids)
    return MonitorTable(
        site_ids=tuple(site_ids), x=rng.uniform(0, 1e6, n), y=rng.uniform(0, 1e6, n),
        province=tuple(province or ["p"] * n), city=tuple(city or ["c"] * n),
        annual_mean=rng.lognormal(2.0, 1.0, n),
        n_valid_days=rng.integers(274, 366, n), n_calendar_days=np.full(n, 365),
    )


# -- atomic writes ---------------------------------------------------------------

def artifact(kind, seed):
    """A table, grid or JSON object of a few kilobytes; each seed differs."""
    rng = np.random.default_rng(seed)
    if kind == "table":
        return monitor_table([f"s{i}" for i in range(40)], rng)
    if kind == "grid":
        return geodata.RasterGrid(0.0, 0.0, 100.0, 20, 20, rng.normal(size=(20, 20)))
    return {"values": rng.normal(size=200).tolist()}


WRITERS = {
    "table": lambda obj, path: obj.to_csv(path),
    "grid": geodata.write_raster,
    "json": dump_json,
}
NAMES = {"table": "monitors.csv", "grid": "prediction.asc", "json": "manifest.json"}

# Runs one write in a child process whose file-size limit stops it halfway,
# as a full disk would; prints the errno of the error the write raised.
FAILING_WRITE = """
import resource, signal, sys
import test_codec as t
kind, path, limit = sys.argv[1], sys.argv[2], int(sys.argv[3])
obj = t.artifact(kind, seed=2)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    t.WRITERS[kind](obj, path)
except OSError as exc:
    print(exc.errno)
"""


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_write_that_fails_halfway_keeps_the_previous_file(tmp_path, kind):
    path = tmp_path / NAMES[kind]
    WRITERS[kind](artifact(kind, seed=1), path)
    before = path.read_bytes()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(Path(lurk.__file__).parents[1]), str(TESTS)]))
    child = subprocess.run(
        [sys.executable, "-c", FAILING_WRITE, kind, str(path), str(len(before) // 2)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert child.stdout.split() == [str(errno.EFBIG)], child.stderr  # it failed halfway
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left


# -- quoted text ---------------------------------------------------------------------

ODD = ['a,b', 'say "hi"', '"both", here', 'plain', ' padded ', 'two\nlines', '']


def test_quoted_ids_and_groups_round_trip_every_bit(tmp_path):
    rng = np.random.default_rng(7)
    ids = [f"{s}#{i}" for i, s in enumerate(ODD)]
    provinces = ODD[::-1]
    table = monitor_table(ids, rng, provinces, [s + ", city" for s in ODD])
    table.to_csv(tmp_path / "monitors.csv")
    back = MonitorTable.from_csv(tmp_path / "monitors.csv")
    for name in ("site_ids", "province", "city"):
        assert getattr(back, name) == getattr(table, name)
    for name in ("x", "y", "annual_mean", "n_valid_days", "n_calendar_days"):
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name

    values = rng.normal(size=(len(ids), 3)) * [1e-300, 1.0, 1e300]
    values[0] = [-0.0, 5e-324, 0.1]
    matrix = CovariateMatrix(ids, ["x,1", 'q"2', "plain"], values)
    matrix.to_csv(tmp_path / "matrix.csv")
    back = CovariateMatrix.from_csv(tmp_path / "matrix.csv")
    assert (back.site_ids, back.columns) == (matrix.site_ids, matrix.columns)
    assert back.values.tobytes() == matrix.values.tobytes()

    cv = CvResult(scheme="leave_one_group_out", site_ids=tuple(ids),
                  fold_labels=tuple(provinces), observed=table.annual_mean.copy(),
                  predicted=rng.normal(size=len(ids)), nn_distance_m=rng.uniform(0, 1e5, len(ids)),
                  r2_mse=0.0, rmse=0.0)
    cv.to_csv(tmp_path / "cv_kfold.csv")
    text, names, columns = read_table(tmp_path / "cv_kfold.csv", ("site_id", "fold"))
    assert (text["site_id"], text["fold"]) == (cv.site_ids, cv.fold_labels)
    assert names == ["observed", "predicted", "nn_distance_m"]
    for j, name in enumerate(names):
        assert np.ascontiguousarray(columns[:, j]).tobytes() == getattr(cv, name).tobytes()


# -- one writer ------------------------------------------------------------------------

WRITE_MODE = re.compile(r"[rwxabt+]*[wax+][rwxabt+]*")


def test_only_the_codec_writes_files():
    """Outside `_util`, no module of the package and no script in `scripts/`
    opens a file for writing, calls `write_text` or `write_bytes`, or makes a
    csv writer."""
    found = []
    scripts = sorted((TESTS.parent / "scripts").glob("*.py"))
    assert scripts
    for path in [*sorted(Path(lurk.__file__).parent.glob("*.py")), *scripts]:
        if path.name == "_util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            modes = [a.value for a in [*node.args, *(k.value for k in node.keywords)]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if (name in ("write_text", "write_bytes", "writer", "DictWriter")
                    or name == "open" and any(WRITE_MODE.fullmatch(m) for m in modes)):
                found.append((path.name, ast.unparse(node)))
    assert found == []


def test_only_the_stage_runner_hashes_files():
    """Stage keys are built in one place: in `pipeline.py` only `_Runner`
    names `sha256_file`, so no stage assembles a key from hashes by hand."""
    tree = ast.parse((Path(lurk.__file__).parent / "pipeline.py").read_text())
    runner = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Runner")
    inside = {id(node) for node in ast.walk(runner)}
    named = [node for node in ast.walk(tree)
             if getattr(node, "id", getattr(node, "attr", None)) == "sha256_file"]
    assert any(id(node) in inside for node in named)
    assert [f"line {node.lineno}" for node in named if id(node) not in inside] == []


def test_only_the_fit_stage_and_the_refit_fit_recipes():
    """A recipe is fitted in two places: the pipeline's fit stage (`do_fit`)
    and `evaluation._refit`, which every CV fold and Monte Carlo iteration
    calls; no other function of the package or of a script in `scripts/`
    calls `fit_recipe`."""
    found = []
    for path in [*sorted(Path(lurk.__file__).parent.glob("*.py")),
                 *sorted((TESTS.parent / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        enclosing = {}  # node -> the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((node, fn.name) for node in ast.walk(fn) if node is not fn)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == "fit_recipe":
                found.append((path.name, enclosing.get(node)))
    assert sorted(found) == [("evaluation.py", "_refit"), ("pipeline.py", "do_fit")]


# -- one reader of hand-written JSON ------------------------------------------------------

# (module, function) of each parse of a file the package wrote itself.
ARTIFACT_READS = [("pipeline.py", "_read_manifest"),  # manifest.json
                  ("pipeline.py", "do_predict")]  # model.json


def test_only_util_parses_json_files():
    """Outside `_util`, whose `read_json` names a file that does not parse,
    no module of the package calls `json.load`, or `json.loads` on anything
    but a `json.dumps` round trip, except to read back one of its own
    artifacts (ARTIFACT_READS)."""
    found = []
    for path in sorted(Path(lurk.__file__).parent.glob("*.py")):
        if path.name == "_util.py":
            continue
        tree = ast.parse(path.read_text())
        enclosing = {}  # node -> the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((node, fn.name) for node in ast.walk(fn) if node is not fn)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("json.load", "json.loads")):
                continue
            arg = node.args[0] if node.args else None
            if not (isinstance(arg, ast.Call) and ast.unparse(arg.func) == "json.dumps"):
                found.append((path.name, enclosing.get(node)))
    assert sorted(found) == ARTIFACT_READS


# -- one ownership rule, one JSON form --------------------------------------------------------

def _qualified(node, names=()):
    """(dotted name of the innermost enclosing classes and functions, node)
    for every node below `node`."""
    for child in ast.iter_child_nodes(node):
        inner = names
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*names, child.name)
        yield ".".join(inner), child
        yield from _qualified(child, inner)


def _freezes(node) -> bool:
    """True for `x.setflags(write=False)` (or `x.setflags(False)`) and for
    an assignment to a `.writeable` flag."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags":
        args = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "write")]
        return any(isinstance(a, ast.Constant) and a.value is False for a in args)
    return isinstance(node, ast.Assign) and any(
        getattr(t, "attr", None) == "writeable" for t in node.targets)


def test_one_ownership_rule_and_one_json_form():
    """A record's arrays are made read-only in one place, `_util.owned_array`,
    and again after unpickling by `Lattice.__setstate__` (which
    `FeatureLayer` shares); and every record's JSON form is `_util.plain`,
    so only `CovariateSpec`, whose form drops the fields at their defaults
    to keep `covariates.json`'s bytes, defines `to_dict`."""
    freezes, codecs = [], []
    for path in sorted(Path(lurk.__file__).parent.glob("*.py")):
        for name, node in _qualified(ast.parse(path.read_text())):
            if _freezes(node):
                freezes.append((path.name, name))
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict":
                codecs.append((path.name, name))
    assert freezes == [("_util.py", "owned_array"), ("geodata.py", "Lattice.__setstate__")]
    assert codecs == [("covariates.py", "CovariateSpec.to_dict")]


# -- one fan-out ---------------------------------------------------------------------------

PROCESS_MODULES = ("multiprocessing", "concurrent.futures", "subprocess")


def test_only_util_starts_processes():
    """Processes are started in one place, `_util.FanOut`: no other module
    of the package imports multiprocessing, concurrent.futures or
    subprocess, or calls a fork."""
    found = []
    for path in sorted(Path(lurk.__file__).parent.glob("*.py")):
        if path.name == "_util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name.startswith("fork"):
                    found.append((path.name, ast.unparse(node)))
                continue
            else:
                continue
            if any(n == m or n.startswith(m + ".") for n in names for m in PROCESS_MODULES):
                found.append((path.name, ast.unparse(node)))
    assert found == []
    util = (Path(lurk.__file__).parent / "_util.py").read_text()
    assert "import multiprocessing" in util  # the scan would see it there


# -- no code that only tests use ---------------------------------------------------------

# Public names that nothing outside tests/ reads yet, each with its reason.
UNREFERENCED_ALLOWED = {
    "morans_i": "ROADMAP item 2 reports Moran's I of the trend and CV residuals",
}
# Public names that only the benchmark (perfbench/) reads, each with its reason.
BENCHMARK_ONLY = {
    "rasterize_covariates": "perfbench times it; ROADMAP item 1 step B deletes it",
    "filled": "perfbench builds its lattice with it; ROADMAP item 1 step B deletes it",
}


def _public_definitions(tree):
    """(name, node) for each public function and class of a module and each
    public method or property of its public classes. Click commands are run
    by name from the command line, so they are exempt."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not any(isinstance(d, ast.Call) and getattr(d.func, "attr", "") in ("command", "group")
                   for d in node.decorator_list):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _references(node, enclosing=()):
    """(name, ids of the enclosing definitions) for every name, attribute,
    import alias and string constant under `node`: a string can name a
    function, as `PipelineConfig._geo_inputs` names the geo readers."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, id(node))
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield from ((part, enclosing) for part in node.name.split("."))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _private_definitions(tree):
    """(name, node) for each private function of a module and each private
    method of its classes: one leading underscore, so dunders are exempt."""
    def private(node):
        return (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__"))
    for node in tree.body:
        if private(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body if private(m))


def _scan():
    """The package's module paths, every parsed tree, and name -> ids of the
    definitions enclosing each reference, in the program (the package and
    `scripts/`) and in the benchmark (`perfbench/`)."""
    root = TESTS.parent
    package = sorted(Path(lurk.__file__).parent.glob("*.py"))
    program = [*package, *sorted((root / "scripts").glob("*.py"))]
    benchmark = sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*program, *benchmark]}

    def used_from(paths):
        found: dict[str, list[tuple]] = {}
        for path in paths:
            for name, enclosing in _references(trees[path]):
                found.setdefault(name, []).append(enclosing)
        return found
    return package, trees, used_from(program), used_from(benchmark)


def test_every_public_name_is_used_outside_tests():
    """Each public function, class, method and property in the package is
    referenced somewhere in the package or `scripts/`, outside its own
    definition; tests do not count, and a name that only `perfbench/`
    references must be on BENCHMARK_ONLY. The scan matches names only, so
    it cannot see a member whose name another attribute or variable
    shares: `CvPlan.labels` once went unseen because `labels` is also a
    local variable in `evaluation`."""
    package, trees, used_from, in_benchmark = _scan()
    unused = [(path.stem, name) for path in package
              for name, node in _public_definitions(trees[path])
              if all(id(node) in enclosing for enclosing in used_from.get(name, ()))]
    only_tests = sorted(f"{module}.{name}" for module, name in unused
                        if name not in UNREFERENCED_ALLOWED
                        and not (name in BENCHMARK_ONLY and name in in_benchmark))
    assert not only_tests, f"public names that only tests use: {only_tests}"
    names = {name for _, name in unused}
    assert names >= set(UNREFERENCED_ALLOWED), \
        "an allowed name is used outside tests now; drop it from the allowlist"
    assert names & set(in_benchmark) >= set(BENCHMARK_ONLY), \
        "a BENCHMARK_ONLY name is used by the program, or not by perfbench; drop it"


def test_every_private_function_is_used_outside_tests():
    """Each private function and method in the package (one leading
    underscore) is referenced in the package, `scripts/` or `perfbench/`
    outside its own definition: a helper that only tests call is code the
    program does not run."""
    package, trees, used_from, in_benchmark = _scan()
    only_tests = sorted(
        f"{path.stem}.{name}" for path in package
        for name, node in _private_definitions(trees[path])
        if all(id(node) in enclosing
               for enclosing in [*used_from.get(name, ()), *in_benchmark.get(name, ())]))
    assert not only_tests, f"private names that only tests use: {only_tests}"
