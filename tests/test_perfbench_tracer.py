"""The benchmark's tracer must still find every name it patches in koopgram."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("balance", "certify", "gsvd", "harness", "koopman", "pipeline")


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_instrument_enters_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    modules = [importlib.import_module(f"koopgram.{name}") for name in MODULES]
    before = [dict(vars(m)) for m in modules]
    harness = importlib.import_module("koopgram.harness")
    original = harness.integrate_ode
    with tracer.instrument(tracer.Tracer()):
        assert harness.integrate_ode is not original
    for module, names in zip(modules, before):
        changed = [k for k, v in names.items() if vars(module).get(k) is not v]
        assert not changed, f"{module.__name__} left patched: {changed}"
