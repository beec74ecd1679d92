"""Each shared rule is written in one function in ``src/spdmix``.

A rule written out twice drifts: one copy changes and the other does not, and
two entry points then accept different inputs. This test parses every module
and finds each ``raise`` whose message states one of the input rules below;
every rule must be raised from exactly its one home. Two more rules have one
home each: the per-sample mix result is built only by ``augment._sample``,
a matrix's stack position is written only by ``linalg._StackError``, and a
rejected sample is named by its id only by ``augment._name_samples``. The
pool is driven from ``linalg`` alone: only its functions open a session. A
binary file is written by ``data_io.SpdbWriter`` alone: only it calls
``os.open`` or opens a file in mode ``"wb"``.
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
    r"alpha must be positive": "augment._check_alpha",
    r"keep_prob must lie in": "augment._check_keep_prob",
    r"bandwidth must be positive": "augment._check_bandwidth",
    r"too wide|overflows float64": "augment._check_width",
    r"too narrow|underflows float64": "augment._check_width",
    r"seed must be an unsigned 64-bit integer": "augment._check_seed",
    r"noise must be": "data_io._check_noise",
    r"series length must be at least 2": "spdness._check_series_length",
    r"expected a square matrix": "linalg._square",
    r"kernel normalizer": "regress._gaussian",
}


def _message(node: ast.Raise) -> str:
    """Every string literal in the raised expression, f-string parts included."""
    return "".join(
        sub.value
        for sub in ast.walk(node.exc)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def _scoped(tree: ast.AST, module: str):
    """Every node of ``tree`` with the qualified name of its enclosing
    function or class."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            yield child, ".".join([module, *inner])
            yield from visit(child, inner)

    return visit(tree, [])


def raisers(source: str, module: str) -> dict[str, set[str]]:
    """For each rule pattern, the qualified names of the functions in
    ``source`` that raise a message matching it."""
    found: dict[str, set[str]] = {pattern: set() for pattern in HOMES}
    for node, where in _scoped(ast.parse(source), module):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = _message(node)
            for pattern in HOMES:
                if re.search(pattern, text):
                    found[pattern].add(where)
    return found


def writers(source: str, module: str, calls: str | None = None, text: str | None = None):
    """The qualified names of the functions or classes in ``source`` that
    call ``calls`` (bare, as an attribute, or by its dotted name such as
    ``os.open``), or that hold a string literal containing ``text``."""
    found = set()
    for node, where in _scoped(ast.parse(source), module):
        if calls and isinstance(node, ast.Call):
            names = (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            if calls in (*names, ast.unparse(node.func)):
                found.add(where)
        if text and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if text in node.value:
                found.add(where)
    return found


def all_writers(**what) -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= writers(path.read_text(encoding="utf-8"), path.stem, **what)
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


def test_mixed_sample_built_in_one_place():
    assert all_writers(calls="MixedSample") == {"augment._sample"}


def test_stack_position_written_in_one_place():
    found = {".".join(where.split(".")[:2]) for where in all_writers(text="of the stack")}
    assert found == {"linalg._StackError"}


@pytest.mark.parametrize("text", ["is rejected (", "is not SPD; clamp"])
def test_sample_named_in_one_place(text):
    # every entry point that takes a dataset names a rejected sample the same
    # way: the cache, the regression harness and the fits share one helper
    assert all_writers(text=text) == {"augment._name_samples"}


@pytest.mark.parametrize("call", ["_session", "_pinned"])
def test_pool_protocol_driven_only_in_linalg(call):
    # a module that opens sessions itself keeps a second copy of the
    # chunk-ahead loop and its error order; it iterates linalg._chunked
    found = all_writers(calls=call)
    assert found and {where.split(".")[0] for where in found} == {"linalg"}


@pytest.mark.parametrize("what", [{"calls": "os.open"}, {"text": "wb"}], ids=["os.open", "wb"])
def test_spdb_written_only_by_its_writer(what):
    # a second binary writer would bring back a truncate-then-write path,
    # whose killed runs leave files that read as valid
    found = {".".join(where.split(".")[:2]) for where in all_writers(**what)}
    assert found == {"data_io.SpdbWriter"}


def test_writer_guard_sees_a_second_copy():
    copy = (
        'def _log(arr):\n'
        '    raise ValueError(f"matrix {k} of the stack: bad")\n'
        'def _fill(self, k, exc):\n'
        '    raise ValueError(f"sample {ids[k]} is rejected ({exc.detail})")\n'
        '    raise ValueError(f"sample {ids[k]} is not SPD; clamp it ({exc.detail})")\n'
        'def v_mixup(a, b):\n'
        '    return MixedSample(a, 0.0, None, True)\n'
        'class Cache:\n'
        '    def mix(self):\n'
        '        return augment.MixedSample(a, 0.0, None, True)\n'
        'def save(path, out):\n'
        '    out.open(path)\n'
        '    with open(path, "wb") as fh:\n'
        '        os.write(os.open(path, os.O_WRONLY), b"")\n'
    )
    assert writers(copy, "extra", text="of the stack") == {"extra._log"}
    assert writers(copy, "extra", text="is rejected (") == {"extra._fill"}
    assert writers(copy, "extra", text="is not SPD; clamp") == {"extra._fill"}
    assert writers(copy, "extra", calls="MixedSample") == {"extra.v_mixup", "extra.Cache.mix"}
    assert writers(copy, "extra", calls="os.open") == {"extra.save"}
    assert writers(copy, "extra", text="wb") == {"extra.save"}
    assert writers(copy.replace("os.open", "open"), "extra", calls="os.open") == set()


def test_config_values_take_the_flags_path():
    """A config value is parsed as its flag is: no module rewrites a parser's
    defaults or reads argparse's private action list."""
    assert all_writers(calls="set_defaults") == set()
    readers = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_actions"
    }
    assert readers == set()
