"""Every function and method in ``src/obsnode`` has a caller in ``src/``,
every function there reads each of its parameters, every field of a
config dataclass is read outside the checks of its own ``__post_init__``,
and ``requires_grad`` is read only where the gradient rule lives.

A name counts as referenced when a module other than its own body uses it:
a module-level function by its bare name (in its own module, or in a module
that imports it) or as an attribute (``ad.tanh``); a method as an attribute
(``tape.backward``). Code that only the tests or the benchmark call belongs
with them, not in the package; so does a parameter that nothing reads.
"""

import ast
import dataclasses
from pathlib import Path

import obsnode
from obsnode.model import ObsNodeConfig
from obsnode.odeint import IntegrationConfig
from obsnode.simulate import CancerSimConfig, SemiSynthConfig
from obsnode.train import TrainConfig

SRC = Path(obsnode.__file__).parent

# Names kept without a caller in src/, each for the reason given. cli.main,
# the console script, needs no entry: the module's __main__ guard calls it.
ALLOWED = {
    "autodiff.sigmoid": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.leaky_relu": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.tanh": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "autodiff.tmean": "perfbench/tracer.OPS lists it; its op counter wraps it",
    "model.encode": "perfbench/probes.py's encode probe and workloads.query call it; src/ "
                    "encodes through encode_prefixes",
    "model.triangular_rhs": "perfbench/probes.py's model.rhs_* probes call it on Tensors",
    "odeint._rk4_step": "perfbench/probes.py's odeint.rk4_probe_n25 calls it with a Tensor field",
    "train.evaluate_loss": "perfbench/workloads.py's validation-pass request calls it; train() "
                           "scores the validation record it has already stacked",
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
    share one keep(x) and one vjp(g, kept, y) signature whether or not they
    read x or kept."""
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


CONFIGS = (ObsNodeConfig, TrainConfig, IntegrationConfig, CancerSimConfig, SemiSynthConfig)

# Config fields kept although src/ reads them only in their own checks.
ALLOWED_FIELDS = {
    "TrainConfig.t_f": "redundant since train() checks each decision time against the "
                       "records; it stays only because perfbench/configs.py passes it",
}


def unread_config_fields(allowed=ALLOWED_FIELDS):
    """'Class.field' for each field of a config dataclass that src/ reads
    (as an attribute, ``cfg.field``) only inside the class's own
    ``__post_init__``, or nowhere. A setting nothing reads does nothing."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    reads = [(mod, node.attr, node.lineno) for mod, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for cls in CONFIGS:
        mod = cls.__module__.rsplit(".", 1)[-1]
        body = next(node.body for node in trees[mod].body
                    if isinstance(node, ast.ClassDef) and node.name == cls.__name__)
        post = next(fn for fn in body if getattr(fn, "name", None) == "__post_init__")
        own = range(post.lineno, post.end_lineno + 1)
        for f in dataclasses.fields(cls):
            name = f"{cls.__name__}.{f.name}"
            if name not in allowed and not any(
                    attr == f.name and not (other == mod and line in own)
                    for other, attr, line in reads):
                unread.append(name)
    return unread


def test_every_config_field_is_read():
    assert unread_config_fields() == []


def test_field_allowlist_is_current():
    # a field that src/ reads, or that is gone, leaves the allowlist
    assert sorted(unread_config_fields(allowed={})) == sorted(ALLOWED_FIELDS)


# The functions of src/ that touch ``Tensor.requires_grad``. ``_accum`` alone
# decides which tensors take a gradient; a backward pass hands every input
# its gradient and tests no flag, so a guard there fails the scan.
REQUIRES_GRAD_READERS = {
    "autodiff.Tensor.__init__": "sets the flag",
    "autodiff.Param.__init__": "sets the flag",
    "autodiff.Tensor.__repr__": "shows the flag",
    "autodiff._accum": "the gradient rule",
    "autodiff._record": "a node is recorded when an input requires grad",
    "autodiff.grad_check": "sets the flag of the tensor it checks, then restores it",
    "model._gru_states": "the taped test: keep the gates for a backward pass",
    "model.triangular_rhs": "refuses a control that requires grad",
}


def requires_grad_readers():
    """'module.qualname' of the innermost function around each use of
    ``.requires_grad`` in src/; a nested function or lambda is named by
    its path, so a backward closure is not its maker."""
    found = set()

    def walk(node, mod, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
                walk(child, mod, path + [getattr(child, "name", "<lambda>")])
            else:
                if isinstance(child, ast.Attribute) and child.attr == "requires_grad":
                    found.add(".".join([mod] + path))
                walk(child, mod, path)

    for p in sorted(SRC.glob("*.py")):
        walk(ast.parse(p.read_text()), p.stem, [])
    return found


def test_requires_grad_is_read_only_by_the_gradient_rule():
    assert sorted(requires_grad_readers()) == sorted(REQUIRES_GRAD_READERS)
