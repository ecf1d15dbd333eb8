"""The public names: both star imports work and every exported name exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["entityqa", "entityqa.qtype"])
def test_star_import_resolves_every_export(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exports = importlib.import_module(module).__all__
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if name not in namespace] == []
