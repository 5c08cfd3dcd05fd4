"""Source scans of the package.

No module imports a name it never uses.  The package re-exports its API
from __init__.py, so that file is exempt.  A name counts as used when it
appears as a bare name anywhere in the module, annotations included.

No function takes a `cap` parameter and no object keeps a `.cap`: the
enumeration cap is the one enumeration_cap setting.  cli.build_ring and
cli.build_quotient keep theirs, as the benchmark calls them with a cap.

No module rebuilds a ring's basis by calling .basis(i) over a range:
FiniteRing.basis_elements is the one basis list.

Only the functions in ELEMENT_SCANS_KEPT call .elements() or
enumerate_module: kernels and bijections are decided by linear_kernel
and _packed_orthogonal, both on znmod._packed_kernel, and element scans live on as oracles in the tests.  Likewise only the
functions in FORM_SCANS_KEPT call enumerate_forms, and there are none:
the form search decodes each form it decides off its index in the form
space (znmod._form_at), every other question about forms is read off a
gram, and the walk of every form lives on as the tests' oracle.

No function has a parameter with a boolean default: objects are verified
on construction, with no check= switch, and one setting per concept
leaves no flag to thread.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frobring"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        "gcd (line 2)", "os (line 1)"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name


CAP_PARAMETERS_KEPT = ["cli.build_quotient", "cli.build_ring"]


def cap_threading(source: str, module: str) -> list[str]:
    """Functions (module.name) with a parameter named cap, and lines that
    set an attribute named cap."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == "cap" for p in params):
                found.append(f"{module}.{getattr(node, 'name', '<lambda>')}")
        elif isinstance(node, ast.Attribute) and node.attr == "cap" and isinstance(
                node.ctx, ast.Store):
            found.append(f"{module} line {node.lineno}: .cap")
    return sorted(found)


def test_cap_scanner_flags_a_threaded_cap():
    source = "def f(x, cap=4):\n    y.cap = cap\n    return g(lambda *, cap: 0, y.cap)\n"
    assert cap_threading(source, "m") == ["m line 2: .cap", "m.<lambda>", "m.f"]


def test_no_cap_is_threaded_through_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += cap_threading(path.read_text(), path.stem)
    assert sorted(found) == CAP_PARAMETERS_KEPT


def basis_rebuilds(source: str, module: str) -> list[str]:
    """Lines that call .basis(i) with i bound by a loop or comprehension
    over range(...), directly or through product(range(...), ...)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For):
            loops = [(node.target, node.iter)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops = [(gen.target, gen.iter) for gen in node.generators]
        else:
            continue
        names = {t.id for target, it in loops
                 if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "range"
                        for c in ast.walk(it))
                 for t in ast.walk(target) if isinstance(t, ast.Name)}
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "basis"
                    and any(isinstance(a, ast.Name) and a.id in names for a in call.args)):
                found.add(f"{module} line {call.lineno}")
    return sorted(found)


def test_basis_scanner_flags_a_rebuilt_basis():
    source = (
        "b = [r.basis(i) for i in range(r.rank)]\n"
        "for i, j in product(range(k), repeat=2):\n"
        "    x = r.basis(j)\n"
        "y = {r.basis(0)} | set(r.basis_elements)\n"
        "for e in r.basis_elements:\n"
        "    z = r.basis(e)\n"
    )
    assert basis_rebuilds(source, "m") == ["m line 1", "m line 3"]


def test_no_module_rebuilds_a_basis():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += basis_rebuilds(path.read_text(), path.stem)
    assert found == []


ELEMENT_SCANS_KEPT = [
    "codes.submodule_codes",
    "finring.FiniteRing.elements",
    "finring.FiniteRing.units",
    "finring.cyclic_left_ideals",
    "finring.left_ideals",
    "frobenius.AmbientForm.vectors",
    "skewpoly.SkewQuotient.elements",
    "znmod.kernel_elements",
]


def callers(source: str, module: str, called) -> list[str]:
    """Functions (module.Class.name) that make a call whose func node
    satisfies called; a call in a lambda counts for its function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and called(child.func):
                found.add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def called_name(func) -> str | None:
    return getattr(func, "id", getattr(func, "attr", None))


def element_scans(source: str, module: str) -> list[str]:
    """Functions (module.Class.name) that call .elements() or
    enumerate_module; a call in a lambda counts for its function."""
    return callers(source, module, lambda f: isinstance(f, ast.Attribute) and f.attr == "elements"
                   or called_name(f) == "enumerate_module")


def test_element_scanner_flags_a_planted_scan():
    source = (
        "def f(ring):\n"
        "    return {g(a) for a in ring.elements()}\n"
        "class C:\n"
        "    def m(self):\n"
        "        return max(map(len, znmod.enumerate_module(self.shape)))\n"
        "    def n(self):\n"
        "        return sorted(self.socle.elements), lambda: enumerate_module(s)\n"
        "x = ring.elements\n"
    )
    assert element_scans(source, "m") == ["m.C.m", "m.C.n", "m.f"]


def test_only_the_kept_functions_scan_elements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += element_scans(path.read_text(), path.stem)
    assert found == ELEMENT_SCANS_KEPT


FORM_SCANS_KEPT = []


def form_scans(source: str, module: str) -> list[str]:
    """Functions (module.Class.name) that call enumerate_forms; a call in
    a lambda counts for its function."""
    return callers(source, module, lambda f: called_name(f) == "enumerate_forms")


def test_form_scanner_flags_a_planted_scan():
    source = (
        "def f(ring):\n"
        "    return {g.weights for g in enumerate_forms(ring.shape)}\n"
        "class C:\n"
        "    def m(self):\n"
        "        return lambda: znmod.enumerate_forms(self.shape)\n"
        "x = enumerate_forms\n"
    )
    assert form_scans(source, "m") == ["m.C.m", "m.f"]


def test_only_the_form_search_enumerates_forms():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += form_scans(path.read_text(), path.stem)
    assert found == FORM_SCANS_KEPT


def boolean_defaults(source: str, module: str) -> list[str]:
    """Functions (module.name) with a parameter whose default is True or False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            if any(isinstance(d, ast.Constant) and isinstance(d.value, bool) for d in defaults):
                found.append(f"{module}.{getattr(node, 'name', '<lambda>')}")
    return sorted(found)


def test_boolean_default_scanner_flags_a_planted_knob():
    source = (
        "def f(x, check=False):\n"
        "    return x\n"
        "class C:\n"
        "    def g(self, *, strict=True, n=1):\n"
        "        return lambda v=True: v\n"
        "def h(x=None, y=0, z='', *, w):\n"
        "    return g(flag=True)\n"
    )
    assert boolean_defaults(source, "m") == ["m.<lambda>", "m.f", "m.g"]


def test_no_function_has_a_boolean_default():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += boolean_defaults(path.read_text(), path.stem)
    assert found == []
