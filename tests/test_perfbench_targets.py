"""Every package name the benchmark uses must exist.

``perfbench/spans.py`` names package functions by module and attribute,
and ``Tracer.install`` raises AttributeError on a missing one, so a
renamed or deleted function would break ``perfbench/run.py --trace 1``.
The benchmark scripts also import package names directly (``verify.py``
checks every report with ``tensor_obj``, ``tensor_mor`` and internal
names), and a missing one fails every benchmark operation.  The files are
loaded or parsed by path and only read.
"""

import ast
import glob
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    for modname, attr, _ in spans.TARGETS:
        importlib.import_module(modname)
        assert callable(getattr(spans._resolve(modname), attr, None)), \
            "%s.%s" % (modname, attr)


def _package_imports():
    """(file, module, name) for every ``from fusionaudit... import name``
    in perfbench/*.py, function-level imports included, and (file,
    module, None) for every ``import fusionaudit...``."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        name = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "fusionaudit":
                out += [(name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(name, a.name, None) for a in node.names
                        if a.name.split(".")[0] == "fusionaudit"]
    return out


def test_every_benchmark_import_resolves():
    found = _package_imports()
    assert {f for f, _, _ in found} >= {"child.py", "run.py", "verify.py"}
    assert ("verify.py", "fusionaudit.gvec", "tensor_mor") in found
    for path, modname, attr in found:
        module = importlib.import_module(modname)
        if attr is not None:
            assert hasattr(module, attr), "%s: %s.%s" % (path, modname, attr)
