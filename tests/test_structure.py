"""Source-level guards on the package's design.

No module may write a private attribute onto an object it does not own:
`obj._name = ...` (or setattr with a constant "_name", or a store at the
constant key "_name" of `obj.__dict__` or `vars(obj)`) where obj is not
`self` is allowed only when a class of the same module declares `_name`
(in __slots__, in its body, or as `self._name` in a method).  Caches written
into another module's objects are how derived data got out of step before.

The monomial encoding is private to polyring: no other module may import its
monomial helpers (`mono_*`, `_grlex_key`), so a change of encoding stays
inside one module.

No public function or class may exist only for the tests: each must be used
somewhere in the package outside its own definition, or be listed in
LIBRARY_API with the reason it is kept.

No module but the package's __init__ imports a name it never reads, so a
deletion leaves no import behind.

The index and the regularity verdict never read a wedge power of the
bivector in full: only the readers in CHAIN_READERS may read the memoised
top power (`.top_power`) or call `wedge_power`, and they need wedge^k pi
in full.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liecontract"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def declared_names(tree):
    """Private attribute names the classes of one module declare."""
    names = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                names.update(c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return {n for n in names if _is_private(n)}


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _private_constant(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _is_private(node.value))


def _dict_owner(node):
    """obj when node reads obj.__dict__ or vars(obj), else None."""
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return node.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars" and len(node.args) == 1):
        return node.args[0]
    return None


def foreign_writes(tree):
    """(line, name, text) of private attribute writes onto objects other than self."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and _is_private(node.attr) and not _is_self(node.value)):
            out.append((node.lineno, node.attr, ast.unparse(node)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and _private_constant(node.args[1]) and not _is_self(node.args[0])):
            out.append((node.lineno, node.args[1].value, ast.unparse(node)))
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and _private_constant(node.slice)
              and (owner := _dict_owner(node.value)) is not None and not _is_self(owner)):
            out.append((node.lineno, node.slice.value, ast.unparse(node)))
    return out


def violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    own = declared_names(tree)
    return [f"{path.name}:{line}: {text}"
            for line, attr, text in foreign_writes(tree) if attr not in own]


def test_no_private_attributes_written_from_outside():
    found = [v for path in sorted(SRC.glob("*.py")) for v in violations(path)]
    assert not found, "private attributes written onto foreign objects:\n" + "\n".join(found)


def test_guard_sees_foreign_and_allows_own_writes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class A:\n"
        "    __slots__ = ('_s',)\n"
        "    def __init__(self):\n"
        "        self._own = 1\n"
        "def f(a, b):\n"
        "    a._s = 1\n"
        "    a._own = 2\n"
        "    b._cache = 3\n"
        "    setattr(b, '_other', 4)\n"
        "    b.__dict__['_memo'] = 5\n"
        "    vars(b)['_verdict'] = 6\n"
        "    a.__dict__['_own'] = 7\n"
        "    vars(a)['_s'] = 8\n"
        "    b.__dict__['public'] = 9\n"
        "    b.__dict__[name] = 10\n"
        "    b.cache['_key'] = 11\n"
        "class B:\n"
        "    def set(self):\n"
        "        self.__dict__['_mine'] = 1\n"
        "        vars(self)['_mine'] = 2\n")
    assert violations(path) == ["mod.py:8: b._cache", "mod.py:9: setattr(b, '_other', 4)",
                                "mod.py:10: b.__dict__['_memo']",
                                "mod.py:11: vars(b)['_verdict']"]


def _is_encoding_helper(name):
    return name.startswith("mono_") or name == "_grlex_key"


def encoding_imports(path):
    """(line, name) of polyring's monomial helpers a module imports or reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "polyring":
            out.extend((node.lineno, a.name) for a in node.names if _is_encoding_helper(a.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "polyring" and _is_encoding_helper(node.attr)):
            out.append((node.lineno, node.attr))
    return out


def test_monomial_encoding_is_private_to_polyring():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "polyring.py" for line, name in encoding_imports(path)]
    assert not found, "monomial helpers used outside polyring:\n" + "\n".join(found)


def test_encoding_guard_sees_imports_and_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .polyring import Polynomial, mono_mul\n"
        "from liecontract import polyring\n"
        "key = polyring._grlex_key\n"
        "from .exterior import mono_mul as other\n")
    assert encoding_imports(path) == [(1, "mono_mul"), (3, "_grlex_key")]


def unused_imports(path):
    """(line, name) of each name one module imports and never reads; `import
    a.b` binds a, and `from __future__` binds nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((node.lineno, (a.asname or a.name).split(".")[0])
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, a.asname or a.name) for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" for line, name in unused_imports(path)]
    assert not found, "imported names never read:\n" + "\n".join(found)


def test_import_guard_sees_unread_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys, json as js\n"
        "from .polyring import Polynomial, _div, _coeff as coeff\n"
        "def f(p: Polynomial) -> int:\n"
        "    return os.path.sep, coeff(p), sys.argv\n")
    assert unused_imports(path) == [(3, "js"), (4, "_div")]


# public names kept with no caller in the package, and why
LIBRARY_API = {
    "wedge_power": "wedge^k pi for any k, by repeated wedge; the benchmark harness's "
                   "own tests time it as two nested calls of exterior.wedge",
}


def unreferenced_public(paths):
    """(module, name) of public top-level functions and classes that no
    module references outside the name's own definition.  Imports are not
    references, so re-exporting a name from __init__ does not count."""
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not owner.startswith("_") and path.name != "cli.py"):
                defined.append((path.name, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return [(module, name) for module, name in defined if name not in used]


def test_every_public_name_has_a_caller_or_a_reason():
    found = unreferenced_public(sorted(SRC.glob("*.py")))
    stray = [f"{module}: {name}" for module, name in found if name not in LIBRARY_API]
    assert not stray, "public names only the tests use:\n" + "\n".join(stray)
    # a listed name that gains a caller leaves the list
    assert sorted(name for _, name in found) == sorted(LIBRARY_API)


def test_caller_guard_sees_unused_and_self_references(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "def loop(n):\n"
        "    return loop(n - 1) if n else used(n)\n"
        "class Shape:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n")
    (tmp_path / "b.py").write_text(
        "def used(x):\n"
        "    return x\n"
        "def via_attribute():\n"
        "    pass\n"
        "def call(mod):\n"
        "    return mod.via_attribute()\n")
    (tmp_path / "cli.py").write_text(
        "from .b import call\n"
        "def main():\n"
        "    return call(None)\n")
    (tmp_path / "__init__.py").write_text("from .a import Shape, loop\n")
    found = unreferenced_public(sorted(tmp_path.glob("*.py")))
    assert found == [("a.py", "loop"), ("a.py", "Shape")]


# every read of a wedge power in full in the package, and why it is not regularity's
CHAIN_READERS = {
    ("analysis.py", "fundamental_semiinvariant", "pi.top_power"):
        "the fsi verb, and feigin when A == B does not give it: the content of wedge^k pi",
}
WEDGE_POWERS = {"top_power", "wedge_power"}


def chain_reads(path):
    """(qualified name of the enclosing def, expression) of every read of
    `.top_power` or `wedge_power` in one module."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if ((isinstance(child, ast.Attribute) and child.attr in WEDGE_POWERS)
                    or (isinstance(child, ast.Name) and child.id in WEDGE_POWERS)):
                out.append((".".join(scope), ast.unparse(child)))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return out


def test_only_the_listed_readers_read_a_wedge_chain():
    found = sorted((path.name, where, expr) for path in SRC.glob("*.py")
                   for where, expr in chain_reads(path))
    assert found == sorted(CHAIN_READERS)


def test_chain_guard_sees_reads_in_functions_and_methods(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(pi):\n"
        "    return pi.n - 2 * pi.top_power[0] + len(pi.top_power[1].terms)\n"
        "class R:\n"
        "    def g(self):\n"
        "        return self.pi.top_power, self.pi.top, self.top_power_k\n"
        "top = L.bivector.top_power\n"
        "from .exterior import wedge_power\n"
        "def h(pi, mod):\n"
        "    return wedge_power(pi, 2), mod.wedge_power(pi, 1), wedge_powers\n")
    assert chain_reads(path) == [("f", "pi.top_power"), ("f", "pi.top_power"),
                                 ("R.g", "self.pi.top_power"), ("", "L.bivector.top_power"),
                                 ("h", "wedge_power"), ("h", "mod.wedge_power")]


# analysis contracts and grades in one place: the pipeline that ggs, feigin
# and z2 share
PIPELINE_CALLEES = {"contract_algebra", "t_degree"}


def pipeline_calls(path):
    """(enclosing top-level def, callee) of each call of contract_algebra or
    t_degree in one module."""
    out = []
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in PIPELINE_CALLEES):
                out.append((getattr(stmt, "name", ""), node.func.id))
    return out


def test_only_the_pipeline_contracts_and_grades_in_analysis():
    assert sorted(pipeline_calls(SRC / "analysis.py")) == [
        ("_contraction", "contract_algebra"), ("_contraction", "t_degree")]


def test_pipeline_guard_sees_calls_in_functions_and_at_module_level(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def _contraction(L, w):\n"
        "    return contract_algebra(L, w), [t_degree(g, w) for g in L]\n"
        "def report(L, w):\n"
        "    return t_degree(L, w), contract(L, w), mod.t_degree(L, w)\n"
        "res = contract_algebra(None, None)\n")
    assert pipeline_calls(path) == [("_contraction", "contract_algebra"),
                                    ("_contraction", "t_degree"), ("report", "t_degree"),
                                    ("", "contract_algebra")]
