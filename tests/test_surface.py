"""Every public top-level name in the package has a caller in the package.

A def, class or constant that only tests reach is library code without a
library use: it belongs in the tests, or gets a caller, or goes.
"""

import ast
from pathlib import Path

import chaosimg

SRC = Path(chaosimg.__file__).resolve().parent


def public_definitions(tree: ast.Module):
    """(name, node) of each top-level def, class and constant not named _*."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def references(tree: ast.AST, skip: ast.AST | None = None):
    """Names loaded, read as attributes or imported (as `__init__` re-exports
    its API) in `tree`, outside the `skip` subtree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def unreferenced(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            used = any(name in references(other, skip=node) for other in trees.values())
            if not used:
                unused.append(f"{module[:-3]}.{name}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    unused = unreferenced(SRC)
    assert not unused, (
        f"public names that nothing in {SRC.name}/ uses: {', '.join(unused)}; "
        "give each a caller in the package, move it into the tests, or delete it"
    )
