"""Lint guard: the exact modules hold no float or complex arithmetic.

evensearch, pairs and gaussint promise integer arithmetic end to end, and
the first two use numpy.  The guard fails on a float or complex literal,
the builtins float and complex, or a numpy float or complex dtype, as an
attribute (np.float64) or a dtype string ('f8').  The one exemption is
the body of GaussInt.__complex__, Python's conversion hook, which the
float DFT of `sequences` relies on; no code in these modules calls it.
"""
import ast
from pathlib import Path

import pytest

import qlegendre

PACKAGE = Path(qlegendre.__file__).parent
EXACT_MODULES = ("evensearch.py", "pairs.py", "gaussint.py")

FLOAT_NAMES = {
    "float", "complex", "float_", "complex_", "half", "single", "double",
    "longdouble", "csingle", "cdouble", "clongdouble", "longfloat",
    "float16", "float32", "float64", "float96", "float128",
    "complex64", "complex128", "complex192", "complex256",
    "floating", "complexfloating", "inexact",
}
# dtype strings: the unambiguous names and the type codes
FLOAT_STRINGS = {n for n in FLOAT_NAMES if "float" in n or "complex" in n} | {
    "e", "f", "d", "g", "F", "D", "G", "f2", "f4", "f8", "f16", "c8", "c16", "c32",
}


def float_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__complex__":
            exempt |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (float, complex)):
                found.append((node.lineno, f"literal {node.value!r}"))
            elif isinstance(node.value, str) and (
                node.value.lstrip("<>=|") in FLOAT_STRINGS
            ):
                found.append((node.lineno, f"dtype string {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            found.append((node.lineno, f"attribute .{node.attr}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_module_has_no_float(name):
    assert float_uses((PACKAGE / name).read_text()) == []


def test_guard_catches_floats():
    src = (
        "import numpy as np\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = np.zeros(3, dtype=np.float64)\n"
        "w = np.ones(2, dtype='f8')\n"
        "v = 2j\n"
        "class G:\n"
        "    def __complex__(self):\n"
        "        return complex(1, 0)\n"
    )
    assert float_uses(src) == [
        "literal 0.5 (line 2)",
        "name float (line 3)",
        "attribute .float64 (line 4)",
        "dtype string 'f8' (line 5)",
        "literal 2j (line 6)",
    ]
