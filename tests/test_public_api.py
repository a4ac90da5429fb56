"""Every name the package root exports is read by the program itself."""

import ast
from pathlib import Path

import ltvobs

# exported with no reader in the program, each for its one reason
ALLOWED = {
    "scalar_bibs_certificate": "the paper's scalar BIBS condition, one diagonal on its own",
    "error_system_so_test": "gate 7: strong observability of the gain-corrected error system",
    "__version__": "package metadata",
}


def _names_read(path):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in one source file."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_root_export_has_a_program_reader():
    read = set()
    for path in Path(ltvobs.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(path)
    assert ALLOWED.keys() <= set(ltvobs.__all__)
    assert sorted(set(ltvobs.__all__) - read - ALLOWED.keys()) == []
