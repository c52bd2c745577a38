"""The package depends on the standard library only, reads no
environment variable, defines no module-level name that nothing uses,
starts without ``dataclasses`` or ``inspect``, and its five validating
types refuse each bad field when built."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from citequery.catalog import ExclusionRule, Pattern, QuerySpec
from citequery.validation import AnnotationRecord, ValidationStats

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


def test_the_cli_starts_without_dataclasses_or_inspect():
    # Every command pays its imports. dataclasses pulls in inspect, ast, dis
    # and tokenize, and builds each class's methods anew in every process.
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import citequery.cli; "
            "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent), *heavy],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


WORD = Pattern(("word",))

BAD_FIELDS = {
    "pattern_empty": (Pattern, ((),), "pattern has no tokens"),
    "pattern_empty_token": (Pattern, (("",),), "pattern token must be non-empty lowercase: ''"),
    "pattern_upper": (Pattern, (("Word",),), "pattern token must be non-empty lowercase: 'Word'"),
    "pattern_lone_star": (Pattern, (("*",),), "wildcard only allowed trailing a stem: '*'"),
    "pattern_inner_star": (Pattern, (("a*b",),), "wildcard only allowed trailing a stem: 'a*b'"),
    "rule_kind": (ExclusionRule, ("sometimes", (WORD,)), "unknown exclusion kind: 'sometimes'"),
    "rule_no_patterns": (ExclusionRule, ("citance_phrase", ()), "exclusion rule has no patterns"),
    "rule_carveout_phrase": (ExclusionRule, ("token_carveout", (Pattern(("a", "b")),)),
                             "token_carveout patterns must be single-token"),
    "rule_no_window": (ExclusionRule, ("cooccurrence_window", (WORD, WORD)),
                       "cooccurrence_window requires window >= 1"),
    "rule_zero_window": (ExclusionRule, ("cooccurrence_window", (WORD, WORD), 0),
                         "cooccurrence_window requires window >= 1"),
    "rule_one_group": (ExclusionRule, ("cooccurrence_window", (WORD,), 3),
                       "cooccurrence_window requires exactly 2 pattern groups"),
    "rule_window_not_allowed": (ExclusionRule, ("citance_phrase", (WORD,), 3),
                                "window not allowed for citance_phrase"),
    "query_no_signal": (QuerySpec, ("q", (), "standalone"), "query has no signal patterns"),
    "query_filter_set": (QuerySpec, ("q", (WORD,), "opinions"), "unknown filter set: 'opinions'"),
    "query_negative_gap": (QuerySpec, ("q", (WORD,), "studies", (), -1),
                           "max_gap must be >= 0"),
    "annotation_label": (AnnotationRecord, ("d", 0, "q", "alice", "maybe"),
                         "label must be 'valid' or 'invalid': 'maybe'"),
    "stats_no_n": (ValidationStats, ("q", 0, 1.0, 1.0, None), "n must be positive"),
    "stats_negative_valid": (ValidationStats, ("q", 2, 0.5, -0.5, None),
                             "requires 0 <= pct_valid <= pct_agree <= 1"),
    "stats_valid_over_agree": (ValidationStats, ("q", 2, 0.5, 1.0, None),
                               "requires 0 <= pct_valid <= pct_agree <= 1"),
    "stats_agree_over_one": (ValidationStats, ("q", 2, 1.5, 1.0, None),
                             "requires 0 <= pct_valid <= pct_agree <= 1"),
}


@pytest.mark.parametrize("cls, args, message", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_each_validating_type_refuses_each_bad_field(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)
