"""The benchmark's trace mode wraps library functions by module attribute.

`bench/tracer.py` names each binding it wraps; a refactor that drops one
makes a traced benchmark run fail with AttributeError, so every named binding
must resolve, and uninstalling must put every original object back.
"""

import importlib.util
import os
import sys

import pytest

from steklov import cli, closed_form, dtn, experiments, gluing, meshes

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
                      "tracer.py")
MODULES = {"meshes": meshes, "gluing": gluing, "dtn": dtn, "closed_form": closed_form,
           "experiments": experiments, "cli": cli}


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files under bench/
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves_and_is_restored(tracer_module):
    sites = [site for group in tracer_module.SPAN_SITES.values() for site in group]
    assert {mod for mod, _ in sites} <= set(MODULES)
    missing = [f"{mod}.{attr}" for mod, attr in sites if not hasattr(MODULES[mod], attr)]
    assert missing == []
    originals = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr in sites}
    spectrum = dtn.DtnOperator.spectrum

    tracer = tracer_module.Tracer()
    tracer.install(MODULES)
    try:
        for (mod, attr), original in originals.items():
            wrapped = getattr(MODULES[mod], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
        assert dtn.DtnOperator.spectrum.__wrapped__ is spectrum
    finally:
        tracer.uninstall()

    for (mod, attr), original in originals.items():
        assert getattr(MODULES[mod], attr) is original, f"{mod}.{attr} not restored"
    assert dtn.DtnOperator.spectrum is spectrum
