"""Every function and method in ``src/obsnode`` has a caller in ``src/``,
and every function there reads each of its parameters.

A name counts as referenced when a module other than its own body uses it:
a module-level function by its bare name (in its own module, or in a module
that imports it) or as an attribute (``ad.tanh``); a method as an attribute
(``tape.backward``). Code that only the tests or the benchmark call belongs
with them, not in the package; so does a parameter that nothing reads.
"""

import ast
from pathlib import Path

import obsnode

SRC = Path(obsnode.__file__).parent

# Names kept without a caller in src/, each for the reason given. cli.main,
# the console script, needs no entry: the module's __main__ guard calls it.
ALLOWED = {
    "autodiff.sigmoid": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.leaky_relu": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.tanh": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.tmean": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "model.triangular_rhs": "perfbench/probes.py's model.rhs_* probes call it on Tensors",
    "odeint._rk4_step": "perfbench/probes.py's odeint.rk4_probe_n25 calls it with a Tensor field",
}


def definitions(tree):
    """(name, kind, node) of each module-level function ('function') and of
    each method of a module-level class ('method')."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, "function", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, "method", item


def references(tree):
    """(kind, name, line) of each bare-name use ('name') and attribute use
    ('attr'), and the names the module imports from its package. An
    attribute of numpy (``np.tanh``) names numpy's function, not the
    package's."""
    uses, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append(("name", node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "np":
            uses.append(("attr", node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update(alias.name for alias in node.names)
    return uses, imported


def unreferenced(allowed=ALLOWED):
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {mod: references(tree) for mod, tree in trees.items()}
    missing = []
    for mod, tree in trees.items():
        for name, kind, node in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            found = any(
                n == name and not (other == mod and line in own)
                and (k == "attr" or kind == "function" and (other == mod or name in imported))
                for other, (uses, imported) in refs.items() for k, n, line in uses)
            if not found and f"{mod}.{name}" not in allowed:
                missing.append(f"{mod}.{name}")
    return missing


def test_every_function_has_a_caller_in_src():
    assert unreferenced() == []


def test_allowlist_is_current():
    # a name that src/ reaches, or that is gone, leaves the allowlist
    assert sorted(unreferenced(allowed={})) == sorted(ALLOWED)


def unread_parameters():
    """'module.function(parameter)' for each parameter of a function, method
    or lambda in src/ that its body (nested functions included) never reads.
    Dunder methods are exempt, and so are the ACTIVATIONS lambdas, which
    share one (g, x, y) signature whether or not they need x."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(fn) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "ACTIVATIONS" for t in node.targets)
                  for fn in ast.walk(node.value) if isinstance(fn, ast.Lambda)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", f"<lambda>@{fn.lineno}")
            if id(fn) in exempt or name.startswith("__") and name.endswith("__"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}({p})" for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == []
