"""Each module's __all__ is its public surface, exactly.

For every fusionaudit module that declares __all__, each listed name must
resolve, and each public function or class the module defines at top level
must be listed.  A helper that no caller outside the module needs takes a
leading underscore instead.
"""

import importlib
import inspect
import pkgutil

import fusionaudit


def _modules_with_all():
    out = []
    for info in pkgutil.walk_packages(fusionaudit.__path__, "fusionaudit."):
        if info.name.endswith(".__main__"):
            continue  # running it is the CLI, not an import
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            out.append(module)
    return out


def test_all_lists_exactly_the_public_definitions():
    modules = _modules_with_all()
    assert {m.__name__ for m in modules} >= {
        "fusionaudit.gvec", "fusionaudit.internal", "fusionaudit.functors",
        "fusionaudit.morphcalc", "fusionaudit.corpus"}
    for module in modules:
        listed = module.__all__
        assert len(set(listed)) == len(listed), module.__name__
        for name in listed:
            assert hasattr(module, name), "%s.%s" % (module.__name__, name)
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}
        assert defined <= set(listed), \
            (module.__name__, sorted(defined - set(listed)))
