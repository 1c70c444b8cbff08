"""The traceability table must stay mechanically honest.

Labels match the manifest, every cited test exists in this repository,
every cited operation resolves inside the package, and each entry's
reached flag says whether the reports call its operations.
"""

import importlib
import os
import re

from fusionaudit.trace import MANIFEST, trace_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_manifest_matches_table():
    table = trace_table()
    assert tuple(e.label for e in table) == MANIFEST
    assert len(set(MANIFEST)) == len(MANIFEST)
    assert len(table) >= 20


def test_labels_are_kebab_slugs():
    for label in MANIFEST:
        assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", label), label


def test_cited_tests_exist():
    for entry in trace_table():
        assert entry.tests, entry.label
        for test_id in entry.tests:
            path, _, name = test_id.partition("::")
            assert name, test_id
            full = os.path.join(ROOT, path)
            assert os.path.isfile(full), test_id
            with open(full) as fh:
                source = fh.read()
            assert re.search(r"^def %s\(" % re.escape(name), source,
                             re.MULTILINE), test_id


def _operations(entry):
    for dotted in entry.operation.split(" / "):
        mod_name, _, attr = dotted.strip().rpartition(".")
        mod = importlib.import_module("fusionaudit." + mod_name)
        yield dotted, getattr(mod, attr)


def test_cited_operations_resolve():
    for entry in trace_table():
        for dotted, obj in _operations(entry):
            assert callable(obj) or isinstance(obj, type), dotted


def test_statements_are_trimmed():
    for entry in trace_table():
        assert entry.statement == entry.statement.strip(), entry.label
        assert entry.reached in (True, False), entry.label


def test_reached_flags_match_the_census(census):
    """An entry marked reached has every operation called by the reports
    of the census run (conftest.census); one marked reached=False has
    none called, so only its cited tests verify the statement."""
    unreached = []
    for entry in trace_table():
        for dotted, obj in _operations(entry):
            assert (obj.__code__ in census) == entry.reached, \
                (entry.label, dotted)
        if not entry.reached:
            unreached.append(entry.label)
    assert unreached == ["dualization-contravariant-involutive",
                         "every-morphism-regular",
                         "section-identity-is-natural-retraction"]
