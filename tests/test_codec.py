"""The artifact file codec: atomic writes, CSV tables that keep quoted text
and every float bit, and the rule that nothing else in the package writes
a file; and the rule that the package defines no public name that only
tests use."""

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
    matrix = CovariateMatrix.from_values(ids, ["x,1", 'q"2', "plain"], values)
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
ALLOWED = [("pipeline.py", "open(self.log_path, 'a')")]  # run.log's line-by-line append


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
    assert found == ALLOWED


# -- no code that only tests use ---------------------------------------------------------

# Public names that nothing outside tests/ reads yet, each with its reason.
UNREFERENCED_ALLOWED = {
    "morans_i": "ROADMAP item 3 reports Moran's I of the model residuals",
    "gamma": "the variogram-fit tests draw their true semivariances from it",
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
    """(name, ids of the enclosing definitions) for every name, attribute and
    import alias under `node`."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, id(node))
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield from ((part, enclosing) for part in node.name.split("."))
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_public_name_is_used_outside_tests():
    """Each public function, class, method and property in the package is
    referenced by a name, attribute or import somewhere in the package,
    `scripts/` or `perfbench/`, outside its own definition; tests do not
    count. The scan matches names only, so it cannot see a member whose name
    another attribute or variable shares: `CvPlan.labels` once went unseen
    because `labels` is also a local variable in `evaluation`."""
    root = TESTS.parent
    package = sorted(Path(lurk.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [
        *package, *sorted((root / "scripts").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py"))]}
    used_from: dict[str, list[tuple]] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            used_from.setdefault(name, []).append(enclosing)
    unused = [(path.stem, name) for path in package
              for name, node in _public_definitions(trees[path])
              if all(id(node) in enclosing for enclosing in used_from.get(name, ()))]
    only_tests = sorted(f"{module}.{name}" for module, name in unused
                        if name not in UNREFERENCED_ALLOWED)
    assert not only_tests, f"public names that only tests use: {only_tests}"
    assert {name for _, name in unused} >= set(UNREFERENCED_ALLOWED), \
        "an allowed name is used outside tests now; drop it from the allowlist"
