import ast
import os
import subprocess
import sys
import textwrap
import types

import matched_transforms


def test_all_matches_public_names():
    # a name dropped from the package must also leave __all__, and vice versa
    public = {
        name for name, value in vars(matched_transforms).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(matched_transforms.__all__) == len(set(matched_transforms.__all__))
    assert set(matched_transforms.__all__) == public
    assert all(hasattr(matched_transforms, name) for name in matched_transforms.__all__)


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


def test_cli_import_loads_no_scipy():
    # scipy.optimize is imported on the first assignment only; an eager
    # scipy import would add its load time to every `mtf` call, and
    # discovery makes no assignment
    probe = textwrap.dedent("""
        import sys
        import matched_transforms.cli
        from matched_transforms import discover_sequential, make_cyclic, sample_invariant_cov

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not scipy_modules(), scipy_modules()
        result = discover_sequential(sample_invariant_cov(make_cyclic(8), 1))
        assert not scipy_modules(), scipy_modules()
        assert result.group_order == 8, result
        from matched_transforms.numkernel import hungarian_max
        perm, score = hungarian_max([[0.0, 3.0, 1.0], [2.0, 0.0, 5.0], [4.0, 1.0, 0.0]])
        assert perm.images == (2, 0, 1), perm.images
        assert score == 12.0, score
        assert "scipy.optimize" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(matched_transforms.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
