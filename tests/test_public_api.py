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


def _referenced_names(path: Path) -> set:
    """Names a module reads, as bare names or attributes; imports, definitions
    and ``__all__`` strings are not references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_user():
    import koopgram

    package = Path(koopgram.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(path)
    library = README.read_text().split("## Library", 1)[1]
    unused = [
        name for name in koopgram.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", library)
    ]
    assert not unused, f"koopgram.__all__ names nothing uses or documents: {unused}"


def test_readme_config_documents_every_declared_key():
    from koopgram import expr, pipeline

    config = README.read_text().split("### Config", 1)[1].split("\n### ", 1)[0]
    tables = {
        "config": pipeline._CONFIG_FIELDS, "data": pipeline._DATA_FIELDS,
        "system": expr._SPEC_FIELDS, "dictionary": expr._DICTIONARY_FIELDS,
    }
    undocumented = [
        f"{where}.{key}" for where, table in tables.items() for key in table
        if f"`{key}`" not in config
    ]
    assert not undocumented, f"README's Config section does not name: {undocumented}"
