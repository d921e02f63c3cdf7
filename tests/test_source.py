import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "steklov").glob("*.py"))


# the library reports through return values and `logging`; only the CLI prints
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_library_does_not_print(path):
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert calls == [], f"print() at {path.name} lines {calls}"


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


# one owner for neck-site refusals: `meshes.place_sites`
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "meshes.py"],
                         ids=lambda p: p.name)
def test_only_meshes_refuses_gluings(path):
    assert "InvalidGluingError" not in set(_raised_names(ast.parse(path.read_text())))


# one owner of chart geometry: `meshes.assemble_mesh` turns it into edge weights
def test_dtn_never_reads_chart_geometry():
    [path] = [p for p in SOURCES if p.name == "dtn.py"]
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("vertices", "triangles")]
    assert reads == [], f"dtn.py reads chart geometry at lines {reads}"


def _callers(names):
    """The module-level functions, as "module.py:function", that call each name."""
    callers = {name: set() for name in names}
    for path in SOURCES:
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.name}:{fn.name}")
    return callers


# one sited-chart mesher: every chart with neck sites, disk or grid, goes
# through `meshes._sited_chart`, the only caller of the site pipeline's stages
def test_one_function_meshes_every_sited_chart():
    stages = ("_site_points", "_layout_split", "_band_delaunay")
    assert _callers(stages) == {name: {"meshes.py:_sited_chart"} for name in stages}


# every glued component is meshed through `gluing.prepare_components`, which
# meshes alike disks once; a plain surface through `meshes.build_spec_mesh`
def test_components_are_meshed_through_one_reuse_step():
    assert _callers(("mesh_placed",)) == {
        "mesh_placed": {"gluing.py:prepare_components", "meshes.py:build_spec_mesh"}}


# every neck chart, an interior neck's cylinder or a boundary arc's collar, is
# built by `gluing.glue` on `_fill_graded` rows; `meshes` grades only boundary rows
def test_neck_charts_are_built_in_gluing_from_graded_rows():
    assert _callers(("_fill_graded", "_collar", "_neck_chart")) == {
        "_fill_graded": {"meshes.py:_disk_boundary", "gluing.py:_collar",
                         "gluing.py:_neck_chart"},
        "_collar": {"gluing.py:glue"},
        "_neck_chart": {"gluing.py:glue"},
    }


# one owner of the mesh's structure: only `meshes` labels connected components
# (logical vertices, boundary loops, and the refusal of a component without
# boundary), so no solver re-derives it
def test_only_meshes_labels_components():
    users = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id", getattr(node.func, "attr", None))]
            else:
                continue
            if "connected_components" in names:
                users.add(path.name)
    assert users == {"meshes.py"}


# one owner of boundary densities: `meshes` scales the chart densities
# (`with_conformal_factor`) and turns them into boundary lengths (`boundary_edge_lengths`)
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "meshes.py"],
                         ids=lambda p: p.name)
def test_only_meshes_reads_boundary_densities(path):
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr == "chart_density"]
    assert reads == [], f"{path.name} reads boundary densities at lines {reads}"


def _report_writes(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            yield node.lineno, "open"
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and (f.value.id, f.attr) in (("json", "dump"), ("csv", "writer"),
                                           ("csv", "DictWriter"))):
            yield node.lineno, f"{f.value.id}.{f.attr}"


# one owner of the report formats: `experiments.write_json` and `write_csv`
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "experiments.py"],
                         ids=lambda p: p.name)
def test_only_experiments_writes_reports(path):
    writes = list(_report_writes(ast.parse(path.read_text())))
    assert writes == [], f"{path.name} writes files at {writes}"


# under the repo's pytest settings a falsified property fails alone, and the
# session goes on to the next test
def test_falsified_property_leaves_the_session_running(tmp_path):
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n\n\n"
        "def test_after():\n"
        "    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout[-3000:]
    assert "1 failed, 1 passed" in done.stdout
