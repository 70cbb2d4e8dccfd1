import importlib

import pytest

MODULES = [
    "koopgram",
    "koopgram.balance",
    "koopgram.certify",
    "koopgram.expr",
    "koopgram.gsvd",
    "koopgram.harness",
    "koopgram.koopman",
    "koopgram.linalg",
    "koopgram.pipeline",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
