import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "steklov").glob("*.py"))


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


# one owner for neck-site refusals: `meshes.place_sites` and the mesher's own guard
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
