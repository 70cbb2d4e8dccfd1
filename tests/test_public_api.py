import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_library_imports_resolve():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    tree = ast.parse(block)
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, "README's Library block has no import statement"
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
