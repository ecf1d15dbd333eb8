"""Mutants of the source that the tests must kill.

    PYTHONPATH=src python tests/mutants.py

Each mutant is one edit to a file under src/: a text that must occur there
exactly once, the text that replaces it, and the tests that must each fail
once it is applied. A fast path and the test that guards it are often
written together; a mutant here keeps that test guarding the path through
later refactors.

For each mutant, src/ is copied into a temporary directory, the edit is
applied to the copy, and only the named tests run, against the copy. The
named tests first run once on an unedited copy, where they must pass. The
exit status is 1 when a named test fails without a mutant, when a mutant's
text is not found exactly once, or when a mutant survives: a named test
still passes, or pytest stops before running the tests.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("scipy imported with the module, so that `run` and `ablate` load it",
           "entityqa/evaluation.py",
           "from typing import Iterable, Mapping, Sequence\n\n",
           "from typing import Iterable, Mapping, Sequence\n\nfrom scipy.special import stdtr\n\n",
           ("tests/test_exports.py::test_only_the_t_tests_of_evaluate_load_scipy",)),
    Mutant("builtin max for np.maximum.reduce, which keeps -0.0 on (-0.0, 0.0)",
           "entityqa/scoring.py",
           "value = float(np.maximum.reduce(evidence.scores))",
           "value = float(max(evidence.scores))",
           ("tests/test_scoring.py::test_aggregate_avg_and_max_are_np_mean_and_np_max_to_the_bit",)),
    Mutant("question tokens without `$` and `%`",
           "entityqa/qtype/annotate.py",
           """_TOKEN = re.compile(r"\\w+(?:'\\w+)?|[$%]")""",
           """_TOKEN = re.compile(r"\\w+(?:'\\w+)?")""",
           ("tests/test_qtype.py::test_dollar_and_percent_are_symbol_tokens",)),
    Mutant("gazetteer scan that tries only the longest entry length that fits",
           "entityqa/entities.py",
           "                lengths ^= 1 << length\n",
           "                lengths = 0\n",
           ("tests/test_entities.py::test_gazetteer_scan_tries_each_entry_length_that_fits",
            "tests/test_entities.py::test_gazetteer_scan_matches_reference_on_random_corpora")),
    Mutant("gazetteer key given two tags keeps the last",
           "entityqa/entities.py",
           "            if key and self.entries.setdefault(key, tag) != tag:\n"
           "                first = next(s for s in lexicon if tuple(canonicalize(s).split()) == key)\n"
           "                raise _KeyConflict(first, self.entries[key], surface, tag)\n",
           "            if key:\n"
           "                self.entries[key] = tag\n",
           ("tests/test_entities.py::test_gazetteer_key_given_two_tags_is_a_data_error_naming_both_lines",)),
)


def failed_tests(src: Path, tests: tuple[str, ...]) -> set[str] | None:
    """The named tests that fail with `src` first on the import path, or
    None when pytest ends without running them all (a collection error or
    an unknown test)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout + proc.stderr)
        return None
    return set(re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)) & set(tests)


def copy_of_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        failed = failed_tests(copy_of_src(tmp), every_test)
    if failed != set():
        print(f"FAILED without a mutant: {sorted(failed) if failed else 'pytest error'}")
        return 1
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_of_src(tmp) / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"STALE     {mutant.name}: its text occurs {count} times in {mutant.file}")
                bad += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            failed = failed_tests(Path(tmp) / "src", mutant.tests)
        survivors = [t for t in mutant.tests if failed is None or t not in failed]
        if survivors:
            print(f"SURVIVED  {mutant.name}: passes {', '.join(survivors)}")
            bad += 1
        else:
            print(f"killed    {mutant.name}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
