"""The package depends on the standard library only, reads no
environment variable, defines no module-level name that nothing uses,
and keeps ``@dataclass`` for types that validate their fields."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "citequery"


def absolute_imports(path):
    """Module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = [
        f"{path.name}: {name}"
        for path in paths
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb", "putenv"}


def test_src_reads_no_environment():
    # Behaviour is set by command-line options alone, never by the environment.
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                reads.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in ENVIRONMENT_READERS]
    assert reads == []


def module_level_names(tree):
    """(name, first line, last line) of each function, class and constant
    a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def test_every_module_level_name_is_used_or_exported():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in ast.parse(sources[SRC / "__init__.py"]).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for path, text in sources.items():
        for name, first, last in module_level_names(ast.parse(text, str(path))):
            if name.startswith("__") or name in exported:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = [
                line
                for other, other_text in sources.items()
                for number, line in enumerate(other_text.splitlines(), 1)
                if not (other == path and first <= number <= last)
            ]
            if not any(word.search(line) for line in outside):
                unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_dataclass_validates_its_fields():
    # A plain value is a NamedTuple; a dataclass earns its machinery by
    # checking its fields in __post_init__.
    unchecked = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
            ) and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                          for item in node.body):
                unchecked.append(f"{path.name}:{node.lineno}: {node.name}")
    assert unchecked == []
