"""Module boundaries inside the ``rkesim`` package.

A module reaches a sibling only through the sibling's public names: no
``from .codebook import _name`` and no ``codebook._name`` on an imported
sibling module.  Tests may still read private names.
"""

import ast
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "rkesim")


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "rkesim"


def _private_sibling_reads(tree: ast.Module) -> list[str]:
    siblings, leaks = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sibling(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    leaks.append("line %d imports %s" % (node.lineno, alias.name))
                if not node.module or node.module == "rkesim":
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            leaks.append("line %d reads %s.%s" % (node.lineno, node.value.id, node.attr))
    return leaks


def test_modules_read_no_private_sibling_name():
    names = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert "receiver.py" in names
    leaks = {}
    for name in names:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            found = _private_sibling_reads(ast.parse(handle.read(), name))
        if found:
            leaks[name] = found
    assert leaks == {}


def test_private_sibling_reads_are_detected():
    tree = ast.parse(
        "from .codebook import _decode_cached\n"
        "from . import codebook as cb\n"
        "cb._permute\n"
        "codebook._permute\n"   # not imported here: a local name
    )
    assert _private_sibling_reads(tree) == [
        "line 1 imports _decode_cached",
        "line 3 reads cb._permute",
    ]


def test_package_root_loads_no_submodule():
    code = "import rkesim, sys; print(sorted(m for m in sys.modules if m.startswith('rkesim.')))"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
