"""Every function the benchmark's traced runs wrap must exist.

``perfbench/spans.py`` names package functions by module and attribute,
and ``Tracer.install`` raises AttributeError on a missing one, so a
renamed or deleted function would break ``perfbench/run.py --trace 1``.
The file is loaded by path and only read.
"""

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
