"""Every name the package and its modules export is read by the program itself."""

import ast
import importlib
from pathlib import Path

import ltvobs

# exported with no reader in the program, each for its one reason
ALLOWED = {
    "scalar_bibs_certificate": "the paper's scalar BIBS condition, one diagonal on its own",
    "error_system_so_test": "gate 7: strong observability of the gain-corrected error system",
    "__version__": "package metadata",
}
# listed in a module's __all__ with no reader in the program, each for its one reason
MODULE_ALLOWED = {
    "scalar_bibs_certificate": ALLOWED["scalar_bibs_certificate"],
    "error_system_so_test": ALLOWED["error_system_so_test"],
    "projected_rk4_step": "perfbench/tracer.py still wraps it",
    "joint_rk4_step": "perfbench/tracer.py still wraps it",
}
MODULES = sorted(p for p in Path(ltvobs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _names_read(path):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in one source file."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _program_reads():
    """The names read by the modules of the package, ``__init__.py`` aside."""
    return set().union(*map(_names_read, MODULES))


def test_every_root_export_has_a_program_reader():
    assert ALLOWED.keys() <= set(ltvobs.__all__)
    assert sorted(set(ltvobs.__all__) - _program_reads() - ALLOWED.keys()) == []


def test_every_module_export_has_a_program_reader():
    listed = set()
    for path in MODULES:
        listed |= set(getattr(importlib.import_module(f"ltvobs.{path.stem}"), "__all__", ()))
    assert MODULE_ALLOWED.keys() <= listed
    assert sorted(listed - _program_reads() - MODULE_ALLOWED.keys()) == []
