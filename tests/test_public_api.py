"""The public API serves the program: every name in ``homring.__all__``,
apart from the error classes of the exit-code table, every public method
of a class among them, and every attribute that a class of ``src/homring``
stores in its ``__init__`` is used somewhere other than the tests.

A name counts as used when ``src/homring`` refers to it outside its own
definition and the package's ``__init__``, or when a file in ``bench/``
refers to it, as code or as a string (the benchmark pins the functions it
wraps by name).  Docstrings and comments do not count.

README's exit-code table lists every error class under its exit code, and
no retired code has a class."""

import ast
import importlib
from pathlib import Path

import homring
from homring import errors
from homring.errors import HomringError

ROOT = Path(__file__).resolve().parent.parent


def _references(tree, skip=None) -> set:
    """The identifiers and string constants in ``tree``, outside the
    function or class named ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
                continue
            if isinstance(child, ast.Name):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            elif isinstance(child, ast.alias):
                found.add(child.name)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                found.add(child.value)
            stack.append(child)
    return found


def _parse(path):
    """The module's tree without its docstrings, which are strings too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            node.body = node.body[1:] or [ast.Pass()]
    return tree


def _usage():
    """The parsed modules of ``src/homring`` but its ``__init__``, and the
    references of ``bench/``."""
    src = [_parse(p) for p in sorted((ROOT / "src" / "homring").glob("*.py"))
           if p.name != "__init__.py"]
    users = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        users |= _references(_parse(path))
    return src, users


def _unused(names, src, users) -> list:
    return [name for name in names
            if name not in users and not any(name in _references(tree, skip=name)
                                             for tree in src)]


def _is_error(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, HomringError)


def test_every_public_name_is_used_outside_the_tests():
    names = [name for name in homring.__all__ if not _is_error(getattr(homring, name))]
    assert _unused(names, *_usage()) == []


def test_every_public_method_of_a_public_class_is_used_outside_the_tests():
    # a method counts as used when other code names it: by its name alone,
    # since the parse does not know the class of the object it is called on
    src, users = _usage()
    unused = []
    for name in homring.__all__:
        cls = getattr(homring, name)
        if not isinstance(cls, type) or _is_error(cls):
            continue
        methods = [attr for attr, member in vars(cls).items()
                   if not attr.startswith("_")
                   and (callable(getattr(cls, attr)) or isinstance(member, property))]
        unused += [f"{name}.{attr}" for attr in _unused(methods, src, users)]
    assert unused == []


def _stored_in_init(tree):
    """(class name, attribute) for each attribute that a class's
    ``__init__`` stores on ``self``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                yield from ((cls.name, node.attr) for node in ast.walk(init)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self")


def test_every_attribute_stored_in_init_is_read_outside_the_tests():
    # an attribute counts as read when src loads it, by name alone since
    # the parse does not know the class of the object, or names it as a
    # string, or when bench/ refers to it; an error's payload, such as
    # ParseError.line, is for the caller that catches it
    src, users = _usage()
    reads = set(users)
    for tree in src:
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        reads |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = []
    for path in sorted((ROOT / "src" / "homring").glob("*.py")):
        module = importlib.import_module(f"homring.{path.stem}")
        unread += [f"{name}.{attr}" for name, attr in _stored_in_init(_parse(path))
                   if attr not in reads and not _is_error(getattr(module, name))]
    assert unread == []


def _exit_code_table() -> dict:
    """README's exit-code table: each code and what it names, read off the
    table's rows, two codes a row."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = text.split("Every error class has its own exit code:", 1)[1].split("\n\n")[1]
    table = {}
    for row in rows.splitlines()[2:]:
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        table.update(zip(map(int, cells[::2]), cells[1::2]))
    return table


def test_readme_lists_every_error_class_under_its_exit_code():
    table = _exit_code_table()
    classes = {cls.exit_code: cls.__name__ for cls in vars(errors).values()
               if _is_error(cls) and cls is not HomringError}
    retired = {code for code, name in table.items() if name == "(retired)"}
    assert table[HomringError.exit_code] == "generic failure"
    assert not retired & set(classes), "a retired exit code has a class"
    assert classes == {code: name for code, name in table.items()
                       if code != HomringError.exit_code and code not in retired}


def _calls_of(name, tree) -> list:
    """The function around each call of ``name`` in ``tree`` (None at the
    top level), whether the call names it bare or as an attribute."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, around = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(around)
        stack.extend((child, around) for child in ast.iter_child_nodes(node))
    return found


def test_every_code_is_built_by_one_builder():
    # the CLI and verify paper build their codes from specs through
    # codes.code_from_specs, which alone calls build_code
    calls = {}
    for path in sorted((ROOT / "src" / "homring").glob("*.py")):
        for around in _calls_of("build_code", ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(f"{path.parent.name}/{path.name}", []).append(around)
    assert calls == {"homring/codes.py": ["code_from_specs"]}
