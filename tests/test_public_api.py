"""The public API serves the program: every name in ``homring.__all__``,
apart from the error classes of the exit-code table, and every public method
of a class among them is used somewhere other than the tests.

A name counts as used when ``src/homring`` refers to it outside its own
definition and the package's ``__init__``, or when a file in ``scripts/`` or
``bench/`` refers to it, as code or as a string (the benchmark pins the
functions it wraps by name).  Docstrings and comments do not count."""

import ast
from pathlib import Path

import homring
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
    references of ``scripts/`` and ``bench/``."""
    src = [_parse(p) for p in sorted((ROOT / "src" / "homring").glob("*.py"))
           if p.name != "__init__.py"]
    users = set()
    for folder in ("scripts", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
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
