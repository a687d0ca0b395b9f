"""Lint guard: the package has one parallel path, seeds.search_tree."""
import ast
from pathlib import Path

import qlegendre

PACKAGE = Path(qlegendre.__file__).parent
POOL = "ProcessPoolExecutor"


def pool_users(source: str, module: str) -> list[str]:
    """module.function for each function that references the process pool
    (imports aside); a reference outside any function reads <module>."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    users = set()
    for node in ast.walk(tree):
        if getattr(node, "id", None) == POOL or getattr(node, "attr", None) == POOL:
            scope = node
            while scope in parents and not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scope = parents[scope]
            users.add(f"{module}.{getattr(scope, 'name', '<module>')}")
    return sorted(users)


def test_one_parallel_path():
    users = [
        user
        for path in sorted(PACKAGE.glob("*.py"))
        for user in pool_users(path.read_text(), path.stem)
    ]
    assert users == ["seeds.search_tree"]


def test_guard_catches_a_second_pool():
    src = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import concurrent.futures as cf\n"
        "def f():\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pass\n"
        "def g():\n"
        "    return cf.ProcessPoolExecutor(2)\n"
    )
    assert pool_users(src, "m") == ["m.f", "m.g"]
