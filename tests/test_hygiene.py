"""Static checks over the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mtpretrain"


def _annotation_names(node: ast.AST):
    """Names read by an annotation, including one written as a string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(source: str) -> "list[str]":
    """Each name the module imports and never reads, as 'line: name'."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used.update(_annotation_names(node.returns))
    return [f"{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = ('from typing import Optional, Sequence\nimport os, numpy as np\n'
              'def f(x: "Optional[int]") -> None:\n    return np.zeros(x)\n')
    assert unused_imports(source) == ["1: Sequence", "2: os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


# ------------------------------------------------------- dead parameters

ROOT = PACKAGE.parent.parent
CALLER_DIRS = ("src", "tests", "perfbench")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else \
            target.attr if isinstance(target, ast.Attribute) else None
        if name == "dataclass":
            return True
    return False


def _defaulted_parameters(tree: ast.Module):
    """(call name, function name, parameter, positional index or None) for
    every defaulted parameter; a method's index skips self, and a class's
    __init__ is called by the class name. A dataclass's annotated fields
    are its constructor's parameters, in order."""
    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [f for f in node.body
                              if isinstance(f, ast.AnnAssign)
                              and isinstance(f.target, ast.Name)]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            yield (node.name, f"{node.name}.__init__",
                                   f.target.id, i)
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                call = cls if node.name == "__init__" and cls else node.name
                where = f"{cls}.{node.name}" if cls else node.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield call, where, arg.arg, i - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield call, where, arg.arg, None
    yield from visit(tree.body, None)


def _calls(tree: ast.AST):
    """(called name, positional count, keyword names, uses * or **)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            yield name, len(node.args), {k.arg for k in node.keywords}, \
                starred


def dead_parameters(package_sources, caller_sources) -> "list[str]":
    """Each defaulted parameter that no call passes, as 'module: f(p)'.

    Calls are matched by function name. A call passes a parameter when it
    names it, has enough positional arguments to reach it, or uses *args
    or **kwargs."""
    calls = {}
    for source in caller_sources:
        for name, n_pos, keywords, starred in _calls(ast.parse(source)):
            calls.setdefault(name, []).append((n_pos, keywords, starred))
    dead = []
    for module, source in package_sources:
        for call, where, param, index in _defaulted_parameters(
                ast.parse(source)):
            if not any(starred or param in keywords
                       or (index is not None and n_pos > index)
                       for n_pos, keywords, starred in calls.get(call, [])):
                dead.append(f"{module}: {where}({param})")
    return dead


def test_dead_parameters_are_found():
    package = [("m", "class A:\n    def __init__(self, x, y=1, *, z=2): pass\n"
                     "    def f(self, a=0, b=0): pass\n"
                     "def g(p=1, q=2): pass\ndef h(r=1): pass\n"
                     "@dataclass(frozen=True)\nclass D:\n    u: int\n"
                     "    v: int = 0\n    w: int = 1\n    x: int = 2\n")]
    callers = ["A(1, 2)\nA(0).f(5)\ng(q=3)\nh(*[1])\nD(0, 1)\nD(0, x=3)\n"]
    assert dead_parameters(package, callers) == [
        "m: A.__init__(z)", "m: A.f(b)", "m: g(p)", "m: D.__init__(w)"]


def test_no_defaulted_parameter_goes_unpassed():
    package = [(p.name, p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py"))]
    callers = [p.read_text(encoding="utf-8") for d in CALLER_DIRS
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_parameters(package, callers) == []


# ------------------------------------------------------ dead definitions

# definitions that nothing in src/ references, each kept for a reason
DEAD_DEFINITIONS_ALLOWED = {
    # perfbench/spans.py's OP_SPANS binds them; they go when the benchmark
    # drops those bindings
    "tensor.softmax",
    "tensor.concat",
    # the held-out split of the planned checkpoint evaluation command
    "corpus.CorpusReader.subset",
}


def dead_definitions(sources) -> "list[str]":
    """Each top-level function or class, and each method of a top-level
    class, whose name no Name or Attribute node of any source reads, as
    'module.name' or 'module.Class.method'. Dunder methods are called by
    the language and are never listed."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, used = [], set()
    for module, source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, funcs + (ast.ClassDef,)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{sub.name}", sub.name)
                            for sub in node.body if isinstance(sub, funcs)
                            and not sub.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [where for where, name in defined if name not in used]


def test_dead_definitions_are_found():
    sources = [("m", "def f(): pass\ndef g(): return f()\ndef h(): pass\n"
                     "class A:\n    def __init__(self): pass\n"
                     "    def used(self): pass\n    def unused(self): pass\n"
                     "class B: pass\n"),
               ("n", "from m import A, g, h\nA().used()\ng()\n")]
    assert dead_definitions(sources) == ["m.h", "m.A.unused", "m.B"]


def test_every_definition_is_referenced_in_the_package():
    sources = [(p.stem, p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py"))]
    assert sorted(dead_definitions(sources)) == sorted(DEAD_DEFINITIONS_ALLOWED)
