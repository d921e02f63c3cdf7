import importlib.util
import json
from pathlib import Path

import steklov as sk

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_disk_script_reports_failed_rows(tmp_path, monkeypatch, capsys):
    script = load_script("two_disk_degenerations")
    target = sk.disk_spectrum(6)

    def failed_sweep(components, k, rho_list, resolution):
        row = sk.SweepRow(rho_list[0], None, None, None, None,
                          failure="SolverError: injected failure")
        return sk.SweepResult("injected", k, (rho_list[0],), target, (row,))

    monkeypatch.setattr(script, "glue_sweep", failed_sweep)
    monkeypatch.setattr(script, "interior_glue_sweep", failed_sweep)
    script.main(["--rho", "0.1", "--out", str(tmp_path)])
    assert capsys.readouterr().out.count("FAILED SolverError: injected failure") == 2
    reports = sorted(tmp_path.glob("*.json"))
    assert [p.name.split("-")[2] for p in reports] == ["boundary", "interior"]
    for report in reports:
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "fail"
        assert [row["failure"] for row in payload["rows"]] == ["SolverError: injected failure"]
