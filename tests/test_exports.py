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


def _fresh_python(code: str, *args: str):
    """The JSON that `code` prints last in a fresh interpreter, which has
    loaded nothing that other tests loaded into this one."""
    src = str(Path(entityqa.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_package_root_exports_nothing_and_corpus_loads_no_numerics():
    code = ("import json, sys, entityqa, entityqa.corpus; "
            "print(json.dumps([hasattr(entityqa, '__all__'), "
            "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)]))")
    assert _fresh_python(code) == [False, []]


def test_no_command_loads_scipy(tmp_path, planted, config_file):
    """`run`, `ablate` and a two-run `evaluate`, whose paired t-tests reach
    the t distribution, all succeed in a fresh interpreter where importing
    scipy fails."""
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "from entityqa.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    cfg, system, worse = str(config_file()), tmp_path / "system.jsonl", tmp_path / "worse.jsonl"
    assert _fresh_python(code, json.dumps([
        ["run", "--config", cfg, "--out", str(system)],
        ["ablate", "--config", cfg, "--qrels", planted.qrels_path,
         "--out-prefix", str(tmp_path / "ablation")],
    ])) == [0, 0]
    # Every other question loses its first group, so the per-question
    # differences vary and the t-tests reach the t distribution.
    records = [json.loads(line) for line in system.read_text().splitlines()]
    for record in records[::2]:
        record["groups"], record["scores"] = record["groups"][1:], record["scores"][1:]
    worse.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert _fresh_python(code, json.dumps([
        ["evaluate", str(system), str(worse), "--qrels", planted.qrels_path,
         "--out-prefix", str(tmp_path / "eval")],
    ])) == [0]
    [pair] = json.loads((tmp_path / "eval.significance.json").read_text())
    assert any(0.0 < test["p_value"] < 1.0 for test in pair["tests"])
