"""Every public top-level name in the package has a caller in the package,
every test that README cites exists, so does every `module.name` that the
package's source or README cites, and conftest's `path` is the one switch
between the kernel and the fallback.

A def, class or constant that only tests reach is library code without a
library use: it belongs in the tests, or gets a caller, or goes. A figure
that README says a test bounds is only as good as that test's name, and a
comment that names another module's function as its oracle only as good as
that name.
"""

import ast
import importlib
import re
from pathlib import Path

import chaosimg

SRC = Path(chaosimg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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


def defined_tests(tests: Path) -> set[str]:
    """Each `test_*` function and `Test*` class defined under `tests`."""
    return {
        node.name
        for path in tests.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith(("test_", "Test"))
    }


def stale_citations(readme: Path, tests: Path) -> list[str]:
    """Each `tests/*.py` path, `Test*` class and `test_*` name in `readme`
    that `tests` does not hold; a name that ends in `*` cites every test it
    begins."""
    text = readme.read_text()
    stale = [p for p in re.findall(r"\btests/\w+\.py\b", text)
             if not (tests.parent / p).is_file()]
    defined = defined_tests(tests)
    for name, star in re.findall(r"\b((?:test_|Test[A-Z])\w*)\b(?!\.py)(\*?)", text):
        if not (any(d.startswith(name) for d in defined) if star else name in defined):
            stale.append(name + star)
    return stale


def test_readme_cites_only_tests_that_exist():
    stale = stale_citations(README, TESTS)
    assert not stale, f"README cites tests that do not exist: {', '.join(stale)}"


MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
CITATION = re.compile(rf"`({'|'.join(MODULES)})\.(?!py\b)(\w+)")


def stale_attribute_citations(paths) -> list[str]:
    """Each backticked `module.name` in the files at `paths`, with module
    one of the package's modules, whose module has no attribute `name`. A
    file name such as `cipher.py` is not a citation."""
    return [f"{path.name}: {module}.{name}"
            for path in paths
            for module, name in CITATION.findall(path.read_text())
            if not hasattr(importlib.import_module(f"chaosimg.{module}"), name)]


def test_source_cites_only_names_that_exist(tmp_path):
    probe = tmp_path / "probe.c"
    probe.write_text("`analysis._no_such_name`'s expression, `cipher.py`, `maps.fill`")
    assert stale_attribute_citations([probe]) == ["probe.c: analysis._no_such_name"]
    stale = stale_attribute_citations([*sorted(SRC.glob("*.py")), SRC / "_kernel.c", README])
    assert not stale, f"citations of names that do not exist: {', '.join(stale)}"


FALLBACK = "python_only"
SERIAL_FALLBACK = "serial-" + FALLBACK  # the fallback starts no thread to refuse


def path_switches(source: str) -> list[int]:
    """The lines of `source` that switch between the kernel and the
    fallback apart from conftest's `path` and `on_the_fallback`: a
    `getfixturevalue` of either fixture or of a name, which may hold either;
    a fixture that names the fallback; a patch of `kernel.library`; and a
    serial fallback, which reruns the fallback's code."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        called = getattr(getattr(node, "func", None), "attr", None)
        strings = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)} if called else ()
        args = node.args[:2] if called else []
        target = [getattr(arg, "id", getattr(arg, "value", None)) for arg in args]
        if (called == "getfixturevalue" and (not strings or {"compiled", FALLBACK} & strings)
                or called == "fixture" and FALLBACK in strings
                or called in ("setattr", "object") and target == ["kernel", "library"]
                or isinstance(node, ast.Constant) and SERIAL_FALLBACK in str(node.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_one_switch_between_the_kernel_and_the_fallback():
    probe = f"""\
@pytest.fixture(params=["compiled", "{FALLBACK}"])
def loops(request):
    request.getfixturevalue(request.param)
@pytest.mark.parametrize("path", ["serial-compiled", "{SERIAL_FALLBACK}"], indirect=True)
def test_probe(path, compiled, {FALLBACK}, request):
    request.getfixturevalue("compiled"), request.getfixturevalue("monkeypatch")
    monkeypatch.setattr(kernel, "library", lambda: None)
    mock.patch.object(kernel, "library"), monkeypatch.setattr(kernel, "_compiler", None)
"""
    assert path_switches(probe) == [1, 3, 4, 6, 7, 8]
    switches = {path.name: lines for path in sorted(TESTS.glob("*.py"))
                if path.name != "conftest.py" and (lines := path_switches(path.read_text()))}
    assert not switches, (
        f"switches other than conftest's `path` and `on_the_fallback`, by line: {switches}")
