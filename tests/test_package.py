import ast
import inspect
import io
import os
import re
import subprocess
import sys
import textwrap
import tokenize
import types

import pytest

import matched_transforms

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_matches_public_names():
    # a name dropped from the package must also leave __all__, and vice versa
    public = {
        name for name, value in vars(matched_transforms).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(matched_transforms.__all__) == len(set(matched_transforms.__all__))
    assert set(matched_transforms.__all__) == public
    assert all(hasattr(matched_transforms, name) for name in matched_transforms.__all__)


def _collect_loads(node, names: set, attributes: set, enclosing=frozenset()) -> None:
    """Add to names every identifier the tree reads, as a name or as an
    attribute (x.name), outside a def or class of that name, so a recursive
    call does not count; attributes gets the attribute reads alone."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        ident = None
    if ident is not None and ident not in enclosing:
        names.add(ident)
        if isinstance(node, ast.Attribute):
            attributes.add(ident)
    for child in ast.iter_child_nodes(node):
        _collect_loads(child, names, attributes, enclosing)


# the paper's direct and wreath composition rules and the README's
# fixed-polarity search are public for their own sake
_STANDALONE = {"compose_direct", "wreath_matrix", "best_polarity"}


def test_every_public_name_has_a_caller():
    # every name in __all__, and every public method of a class in __all__,
    # is used outside its own definition and outside __init__.py, by the
    # package or the benchmark harness; a name counts as an identifier, a
    # method only as an attribute (x.method), so an alias in the class body
    # does not; docstrings and comments do not count
    used, attributes = set(), set()
    for top in ("src", "perfbench"):
        for folder, _, names in os.walk(os.path.join(_ROOT, top)):
            for name in names:
                if name.endswith(".py") and name != "__init__.py":
                    with open(os.path.join(folder, name), encoding="utf-8") as fh:
                        _collect_loads(ast.parse(fh.read()), used, attributes)
    unused = set(matched_transforms.__all__) - used - _STANDALONE
    unused |= {qualname for qualname, func, _ in _public_callables()
               if "." in qualname and func.__name__ not in attributes}
    assert not unused, sorted(unused)


def test_every_private_helper_has_a_caller():
    # every module-level private function, class and constant of the
    # package is loaded somewhere in src/ outside its own definition; an
    # import, a test or a recursive call alone does not keep it
    package = os.path.dirname(matched_transforms.__file__)
    defined, loaded = set(), set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined |= {(name, ident) for ident in names
                        if ident.startswith("_") and not ident.startswith("__")}
        _collect_loads(tree, loaded, set())
    assert defined
    unused = sorted(f"{module}:{ident}" for module, ident in defined if ident not in loaded)
    assert not unused, unused


def test_documents_name_only_defined_helpers():
    # a backticked private name (`_name`, or `module._name`) in a src/
    # docstring or comment, or in README, names a function, class, method or
    # constant the package defines, so no document outlives a deleted helper
    package = os.path.dirname(matched_transforms.__file__)
    defined, texts = set(), []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                texts.append(ast.get_docstring(node) or "")
        texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                  if tok.type == tokenize.COMMENT]
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        texts.append(fh.read())
    named = {m.group(1) for text in texts for m in re.finditer(r"`(?:\w+\.)*(_\w+)`", text)}
    stale = sorted(named - defined)
    assert named and not stale, stale


def test_every_module_level_import_is_used():
    # a name a module imports at its top level is read in that module
    # (as a name or as x.attr's x), or, in __init__.py, listed in __all__;
    # `from __future__` imports are directives, not names
    package = os.path.dirname(matched_transforms.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if name == "__init__.py":
            read |= set(matched_transforms.__all__)
        unused += [f"{name}:{ident}" for ident in sorted(imported - read)]
    assert not unused, unused


def _public_callables():
    """(qualified name, function, leading parameters to skip) for every
    function in __all__ and every public method of a class in __all__."""
    for name in matched_transforms.__all__:
        value = getattr(matched_transforms, name)
        if inspect.isfunction(value):
            yield name, value, 0
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    yield f"{name}.{attr}", member.__func__, 0
                elif isinstance(member, classmethod):
                    yield f"{name}.{attr}", member.__func__, 1
                elif inspect.isfunction(member):
                    yield f"{name}.{attr}", member, 1


def test_every_default_parameter_has_a_caller():
    # a parameter with a default that no call in the package or the
    # benchmark harness passes, by keyword or by position, is a knob only
    # the tests turn
    keywords, positions = {}, {}
    for top in ("src", "perfbench"):
        for folder, _, names in os.walk(os.path.join(_ROOT, top)):
            for name in names:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    ident = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if ident is None:
                        continue
                    starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                    count = float("inf") if starred else len(node.args)
                    positions[ident] = max(positions.get(ident, 0), count)
                    used = keywords.setdefault(ident, set())
                    for kw in node.keywords:
                        used.add(kw.arg)  # None for a ** splat
    unpassed = []
    for qualname, func, skip in _public_callables():
        ident = func.__name__
        params = list(inspect.signature(func).parameters.values())[skip:]
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            by_keyword = {param.name, None} & keywords.get(ident, set())
            by_position = (param.kind is not inspect.Parameter.KEYWORD_ONLY
                           and positions.get(ident, 0) > index)
            if not (by_keyword or by_position):
                unpassed.append(f"{qualname}.{param.name}")
    assert not unpassed, sorted(unpassed)


def test_module_imports_form_no_cycle():
    # every relative import, deferred ones inside functions included; a
    # cycle would force one of its modules to import the other lazily
    package = os.path.dirname(matched_transforms.__file__)
    graph = {}
    for name in os.listdir(package):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module)
                else:
                    deps.update(alias.name for alias in node.names)
        graph[name[:-3]] = deps
    assert "diagnostics" not in graph["transforms"]
    done, active = set(), []

    def visit(module):
        assert module not in active, " -> ".join(active + [module])
        if module in done:
            return
        active.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_package_never_imports_scipy():
    # numpy is the only runtime dependency: every module imports, and the
    # commands that reach every layer run, with no scipy module loaded
    probe = textwrap.dedent("""
        import importlib
        import os
        import pkgutil
        import sys
        import tempfile

        import matched_transforms
        from matched_transforms import cli, diagnostics, groups, matrixio

        for info in pkgutil.iter_modules(matched_transforms.__path__):
            importlib.import_module("matched_transforms." + info.name)
        with tempfile.TemporaryDirectory() as tmp:
            cov = os.path.join(tmp, "cov.mtx")
            r = diagnostics.sample_invariant_cov(groups.make_cyclic(8), 1)
            matrixio.write_matrix_file(cov, r)
            for argv in (
                ["verify", "--case", "all"],
                ["discover", cov],
                ["match-library", "--in", cov, "--library", "trivial:8,cyclic:8"],
                ["synthesize", "--group", "dyadic-wreath:3", "--out",
                 os.path.join(tmp, "u.mtx")],
            ):
                assert cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(matched_transforms.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    for folder, _, names in os.walk(os.path.join(_ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    text = fh.read()
                assert "import scipy" not in text and "from scipy" not in text, name


def test_discovery_and_synthesis_never_import_numpy_ma():
    # np.unique(x) with no return flags imports numpy.ma (numpy >= 2.3 asks
    # np.ma.is_masked), 12-18 ms that the first call of a process would pay
    probe = textwrap.dedent("""
        import sys

        from matched_transforms import diagnostics, discovery, groups, transforms

        for spec in ("cyclic:8", "dihedralM:8", "dyadic-wreath:3", "hybrid:2,4", "boolean:4"):
            r = diagnostics.sample_invariant_cov(groups.parse_group_spec(spec), 1)
            discovery.discover_sequential(r)
        # exact routes, and a paired action on the orbital route
        for spec in ("dyadic-wreath:4", "hybrid:4,3", "product:(hybrid:4,3,cyclic:3)"):
            transforms.synthesize_matched(groups.parse_group_spec(spec), 3)
        assert "numpy.ma" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(matched_transforms.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_test_extra_lists_every_skippable_import():
    # a test that importorskips a module outside the standard library skips
    # silently on a `.[test]` install unless the test extra lists it
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in extra}
    skipped = set()
    folder = os.path.join(_ROOT, "tests")
    for name in os.listdir(folder):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip"
                    and isinstance(node.args[0], ast.Constant)):
                skipped.add(node.args[0].value.split(".")[0])
    assert {"scipy", "sympy"} <= skipped
    assert not skipped - set(sys.stdlib_module_names) - listed
