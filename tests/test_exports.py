"""The public names: `entityqa.qtype`'s star import resolves every export,
and the package root re-exports nothing."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entityqa


@pytest.mark.parametrize("module", ["entityqa.qtype"])
def test_star_import_resolves_every_export(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exports = importlib.import_module(module).__all__
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if name not in namespace] == []


def test_package_root_exports_nothing_and_corpus_loads_no_numerics():
    # A fresh interpreter: this one has numpy loaded by other tests.
    code = ("import json, sys, entityqa, entityqa.corpus; "
            "print(json.dumps([hasattr(entityqa, '__all__'), "
            "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)]))")
    src = str(Path(entityqa.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [False, []]
