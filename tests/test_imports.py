"""Every name a module imports is used in it (a stand-in for a linter's
unused-import rule).  A name counts as used when it appears as an
`ast.Name`, which covers the base of an attribute access (`np.zeros`);
`__init__.py` is skipped, since it imports to re-export.  Only `engine.py`
imports `random`, for the random planes of its codimension-two test: every
other search for a point walks the moment curve, with no seed to keep.

Every module-level function, class or constant, and every function in a
class body (methods, properties and static methods), private (`_name`) or
public, is referenced somewhere in the package, so that a helper whose last
caller is gone does not stay behind; a public name the package only
re-exports from `__init__.py` counts as referenced.  Dunders are exempt:
the language calls them.

Every field of a `@dataclass` in the package is read, as an attribute
load, somewhere in the package or its tests, so that state nothing needs
does not stay behind.  Likewise every option a `cli` subparser declares is
read as `args.<dest>` in `cli.py`, so that an option does not outlive its
reader.

Every parameter of a function or lambda in the package is read in its
body (`self`, `cls` and `_name` are exempt), so that an argument no code
needs is not passed along.

No module writes into a polynomial's term view `.t`: it is built from the
integer form on first read, so a write there would leave the two out of
step."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "coxsaito"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def unused_parameters(tree):
    """(function, parameter, line) for every parameter of a function or
    lambda that its body never loads, nested functions included.  `self`,
    `cls` and names starting with `_` are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for arg in params:
            if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                continue
            if arg.arg not in read:
                yield name, arg.arg, arg.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [f"{fn}({arg}) (line {line})" for fn, arg, line in unused_parameters(tree)]
    assert not unused, f"{path.name} has parameters it never reads: {', '.join(unused)}"


def test_parameter_lint_sees_every_kind_of_parameter():
    tree = ast.parse(
        "def f(a, b, /, c, d=1, *args, e, g=2, **kwargs):\n"
        "    return b, d, g\n"
        "class C:\n"
        "    def m(self, x, _y):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def k(cls, z):\n"
        "        z = 1\n"
        "        return cls\n"
        "h = lambda u, v, *w, t, **q: v\n"
    )
    # a store into z before any read is no read of the parameter
    assert sorted((fn, arg) for fn, arg, _line in unused_parameters(tree)) == [
        ("<lambda>", "q"),
        ("<lambda>", "t"),
        ("<lambda>", "u"),
        ("<lambda>", "w"),
        ("f", "a"),
        ("f", "args"),
        ("f", "c"),
        ("f", "e"),
        ("f", "kwargs"),
        ("k", "z"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_engine_imports_random(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert path.name == "engine.py" or "random" not in modules, f"{path.name} imports random"


def defined_names(tree):
    """(name, line) for every module-level function, class and constant (an
    assignment to a plain name) and every function in a module-level class
    body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def unreferenced_definitions(private):
    """Module-level functions, classes and constants and class-body
    functions of the package, private ones (`_name`) or public ones, other
    than dunders, whose name the package never loads as an `ast.Name`,
    references as an `ast.Attribute` or imports (so a re-export from
    `__init__.py` counts).  A constant's own definition stores to its name,
    so a stored name is no reference."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in defined_names(tree)
        if name.startswith("_") == private
        and not name.startswith("__")
        and name not in referenced
    ]


def test_no_unreferenced_private_definitions():
    unreferenced = unreferenced_definitions(private=True)
    assert not unreferenced, f"private definitions referenced nowhere: {', '.join(unreferenced)}"


def test_no_unreferenced_public_definitions():
    unreferenced = unreferenced_definitions(private=False)
    assert not unreferenced, f"public definitions referenced nowhere: {', '.join(unreferenced)}"


def is_dataclass(node):
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)

    return any(name(d) == "dataclass" for d in node.decorator_list)


def dataclass_fields(tree):
    """(class, field, line) for every annotated field of a module-level
    `@dataclass`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def test_every_dataclass_field_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}: {cls}.{name} (line {line})"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls, name, line in dataclass_fields(tree)
        if name not in read
    ]
    assert not unread, f"dataclass fields never read: {', '.join(unread)}"


def option_dests(tree):
    """(dest, line) for every `add_argument` call: its `dest` keyword, or
    else its first long option (its first name if it has none) without the
    leading dashes and with `-` read as `_`, as argparse derives it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr != "add_argument":
                continue
            dest = next((k.value.value for k in node.keywords if k.arg == "dest"), None)
            if dest is None:
                names = [a.value for a in node.args]
                name = next((n for n in names if n.startswith("--")), names[0])
                dest = name.lstrip("-").replace("-", "_")
            yield dest, node.lineno


def args_reads(tree):
    """Every attribute loaded from a name `args`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_cli_option_is_read():
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    read = args_reads(tree)
    unread = [f"{dest} (line {line})" for dest, line in option_dests(tree) if dest not in read]
    assert not unread, f"cli options never read: {', '.join(unread)}"


def test_option_lint_sees_every_kind_of_declaration():
    tree = ast.parse(
        "p.add_argument('--type')\n"
        "p.add_argument('--cache-dir', help='directory')\n"
        "p.add_argument('report')\n"
        "p.add_argument('-o', '--out-file')\n"
        "p.add_argument('-s', dest='seed')\n"
        "def cmd(args):\n"
        "    args.type = args.out_file\n"
        "    return args.report, args.seed\n"
    )
    read = args_reads(tree)
    # a store into args.type is no read
    assert sorted(d for d, _line in option_dests(tree) if d not in read) == ["cache_dir", "type"]


# methods that change a dict in place
DICT_MUTATORS = {"pop", "popitem", "update", "setdefault", "clear", "__setitem__", "__delitem__"}


def term_view_writes(tree):
    """Lines that store into, delete from, mutate or rebind an attribute
    named `t`: `p.t[e] = c`, `p.t[e] += c`, `del p.t[e]`, `p.t.pop(e)`,
    `p.t.update(...)`, `p.t.setdefault(...)`, `p.t = ...`."""

    def is_view(node):
        return isinstance(node, ast.Attribute) and node.attr == "t"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if is_view(node.value):
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in DICT_MUTATORS and is_view(node.func.value):
                yield node.lineno
        elif is_view(node) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_writes_into_the_term_view(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(set(term_view_writes(tree)))
    assert not lines, f"{path.name} writes into a polynomial's term view on lines {lines}"


def test_term_view_lint_sees_every_kind_of_write():
    writes = [
        "p.t[e] = c",
        "p.t[e] += c",
        "del p.t[e]",
        "p.t.pop(e)",
        "p.t.update(other)",
        "p.t.setdefault(e, c)",
        "p.t = {}",
        "f(x).t[e] = c",
    ]
    for src in writes:
        assert list(term_view_writes(ast.parse(src))) == [1], src
    reads = ["c = p.t[e]", "c = p.t.get(e)", "n = len(p.t)", "d = dict(p.t)", "q.num[e] = c"]
    for src in reads:
        assert not list(term_view_writes(ast.parse(src))), src
