"""Each shared input rule is raised from one function in ``src/spdmix``.

A rule written out twice drifts: one copy changes and the other does not, and
two entry points then accept different inputs. This test parses every module
and finds each ``raise`` whose message states one of the rules below; every
rule must be raised from exactly its one home.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spdmix"

# rule message pattern -> the one function that may raise it
HOMES = {
    r"dimension mismatch": "metrics._check_pair",
    r"must be square matrices": "metrics._check_pair",
    r"mix ratio must lie in \[0, 1\]": "metrics._check_ratio",
    r"sigma must be positive": "regress.KernelConfig.__post_init__",
    r"no usable bandwidth": "regress._default_sigma",
    # the second spelling is the one the command line used to carry
    r"labels must be non-negative|non-negative labels": "regress._check_labels",
}


def _message(node: ast.Raise) -> str:
    """Every string literal in the raised expression, f-string parts included."""
    return "".join(
        sub.value
        for sub in ast.walk(node.exc)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def raisers(source: str, module: str) -> dict[str, set[str]]:
    """For each rule pattern, the qualified names of the functions in
    ``source`` that raise a message matching it."""
    found: dict[str, set[str]] = {pattern: set() for pattern in HOMES}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                text = _message(child)
                for pattern in HOMES:
                    if re.search(pattern, text):
                        found[pattern].add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def all_raisers(src: Path = SRC) -> dict[str, set[str]]:
    found: dict[str, set[str]] = {pattern: set() for pattern in HOMES}
    for path in sorted(src.glob("*.py")):
        for pattern, names in raisers(path.read_text(encoding="utf-8"), path.stem).items():
            found[pattern] |= names
    return found


@pytest.mark.parametrize("pattern", list(HOMES))
def test_rule_has_one_home(pattern):
    assert all_raisers()[pattern] == {HOMES[pattern]}


@pytest.mark.parametrize(
    "copy, pattern",
    [
        ('def _check_same_shape(a, b):\n'
         '    if a.shape != b.shape:\n'
         '        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")\n',
         r"dimension mismatch"),
        ('def cmd_regress(args):\n'
         '    if labels.min() < 0.0:\n'
         '        raise ValueError("the comparison requires non-negative labels")\n',
         r"labels must be non-negative|non-negative labels"),
        ('def heat_kernel(s_i, s_hat, sigma):\n'
         '    if not sigma > 0.0:\n'
         '        raise ValueError(f"sigma must be positive, got {sigma}")\n',
         r"sigma must be positive"),
    ],
    ids=["shape", "labels", "sigma"],
)
def test_guard_sees_a_second_copy(copy, pattern):
    assert raisers(copy, "extra")[pattern] == {f"extra.{copy[4:copy.index('(')]}"}
