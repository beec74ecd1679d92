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
``os.open`` or opens a file in mode ``"wb"``. The mixing rule
``(1 - lam) * x + lam * y`` is written only in ``metrics._blend``,
one-hot label rows are built only by ``augment._one_hot``, and PCG64's
multiplier and step, and every write of a bit generator's state, live only in
the stream block ``augment._Streams``.
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


def everywhere(find) -> set[str]:
    """Every function of ``src/spdmix`` that ``find(source, module)`` reports."""
    return set().union(*(find(path.read_text(encoding="utf-8"), path.stem)
                         for path in sorted(SRC.glob("*.py"))))


def _call_name(node) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _weight(node) -> str | None:
    """The source of ``lam`` when ``node`` is ``1 - lam`` (or ``1.0 - lam``)."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1):
        return ast.unparse(node.right)
    return None


def _factors(node) -> list:
    """The factors of a product, nested products flattened; ``[node]`` otherwise."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return [*_factors(node.left), *_factors(node.right)]
    return [node]


def blenders(source: str, module: str) -> set[str]:
    """The functions in ``source`` that write the mixing rule: a sum (``+`` or
    an ``add`` call) of a product by ``1 - lam`` and a product by ``lam``, or
    a product by ``1 - lam`` written into a buffer (``*=`` or ``multiply``)."""
    found = set()
    for node, where in _scoped(ast.parse(source), module):
        terms = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            terms = node.left, node.right
        elif _call_name(node) == "add" and len(node.args) >= 2:
            terms = node.args[:2]
        if terms:
            left, right = map(_factors, terms)
            for one, other in ((left, right), (right, left)):
                if {_weight(f) for f in one} & {ast.unparse(f) for f in other}:
                    found.add(where)
        in_place = isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
        if (in_place and _weight(node.value)) or (
            _call_name(node) == "multiply" and any(map(_weight, node.args))
        ):
            found.add(where)
    return found


def one_hot_builders(source: str, module: str) -> set[str]:
    """The functions in ``source`` that build one-hot rows: they index an
    identity matrix (``eye(k)[ids]``, or a name bound to one), or set a
    number 1 at ``[rows, ids]`` of a buffer."""
    nodes = list(_scoped(ast.parse(source), module))
    eyes = {
        (where, target.id)
        for node, where in nodes
        if isinstance(node, ast.Assign) and _call_name(node.value) in ("eye", "identity")
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = set()
    for node, where in nodes:
        if isinstance(node, ast.Subscript) and (
            _call_name(node.value) in ("eye", "identity")
            or (where, getattr(node.value, "id", None)) in eyes
        ):
            found.add(where)
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) in (int, float) and node.value.value == 1
            and any(isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Tuple)
                    and len(t.slice.elts) == 2 for t in node.targets)
        ):
            found.add(where)
    return found


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_writers(source: str, module: str) -> set[str]:
    """The functions in ``source`` that hold PCG64's multiplier (whole or
    either 64-bit half) or assign a ``bit_generator.state``."""
    halves = {_PCG64_MULT, _PCG64_MULT >> 64, _PCG64_MULT & (2**64 - 1)}
    found = set()
    for node, where in _scoped(ast.parse(source), module):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in halves:
            found.add(where)
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if isinstance(node, (ast.Assign, ast.AugAssign)) and any(
            isinstance(t, ast.Attribute) and t.attr == "state"
            and getattr(t.value, "attr", None) == "bit_generator"
            for t in targets
        ):
            found.add(where)
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


def test_mixing_rule_has_one_home():
    # five paths (r_mixup, the cache, mix, the harness, the probe) agree bit
    # for bit because they share one blend; a second copy could drift
    assert everywhere(blenders) == {"metrics._blend"}


def test_one_hot_rows_have_one_home():
    # an identity matrix as wide as the largest class id does not fit memory
    assert everywhere(one_hot_builders) == {"augment._one_hot"}


def test_blend_guard_sees_a_second_copy():
    copy = (
        'def mix(a, b, lam):\n'
        '    return (1.0 - lam) * a + lam * b\n'
        'def probe(w, m):\n'
        '    return abs(w * m[1] + (1.0 - w) * m[3] - m[2]).sum()\n'
        'class Cache:\n'
        '    def mixes(self, w, a, b, out):\n'
        '        np.add((1.0 - w) * a, w * b, out=out)\n'
        'def harness(point, other, w):\n'
        '    point *= 1.0 - w\n'
        'def row(out, a, lam):\n'
        '    np.multiply(a, 1 - lam, out=out)\n'
        'def bures(a, b, t, c):\n'
        '    return (1.0 - t) ** 2 * a + t**2 * b + t * (1.0 - t) * (c + c.T)\n'
        'def kernel(y_i, y_j, k, k_i, k_j):\n'
        '    return ((y_i - k * y_j) * k_i + (y_j - k * y_i) * k_j) / (1.0 - k**2)\n'
        'def ratio(w):\n'
        '    return 1.0 - w\n'
    )
    assert blenders(copy, "extra") == {
        "extra.mix", "extra.probe", "extra.Cache.mixes", "extra.harness", "extra.row"
    }


def test_one_hot_guard_sees_a_second_copy():
    copy = (
        'def finish(labels, k):\n'
        '    return np.eye(k)[labels]\n'
        'def sample(c_i, c_j, k):\n'
        '    one_hot = np.eye(k)\n'
        '    return one_hot[c_i], one_hot[c_j]\n'
        'def rows(classes, k):\n'
        '    out = np.zeros((len(classes), k))\n'
        '    out[np.arange(len(classes)), classes] = 1.0\n'
        'def ridge(gram, r):\n'
        '    return gram + r * np.eye(len(gram))\n'
        'def mask(m, i, j):\n'
        '    m[i, j] = True\n'
    )
    assert one_hot_builders(copy, "extra") == {"extra.finish", "extra.sample", "extra.rows"}


def test_pcg64_streams_have_one_home():
    # a second seeding or stepping path could drift from numpy's bits while
    # the first keeps matching them
    found = {".".join(where.split(".")[:2]) for where in everywhere(pcg64_writers)}
    assert found == {"augment._Streams"}


def test_pcg64_guard_sees_a_second_copy():
    copy = (
        'def _streams(seed, words):\n'
        '    state = ((inc + seed) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128\n'
        'def load(rng, state):\n'
        '    rng.bit_generator.state = state\n'
        'class Block:\n'
        '    MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)\n'
        '    def step(self):\n'
        '        self.lo *= 0x4385DF649FCCF645\n'
        'def jump(rng):\n'
        '    rng.bit_generator.advance(3)\n'
        '    rng.state = 0x2360ED051FC65DA5\n'
    )
    assert pcg64_writers(copy, "extra") == {
        "extra._streams", "extra.load", "extra.Block", "extra.Block.step"
    }
