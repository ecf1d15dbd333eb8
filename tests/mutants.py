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
    Mutant("stage loader that reads each data file once per config",
           "entityqa/pipeline.py",
           "        return read(variant, getattr(config, STAGE_FILES[stage][variant]))\n",
           "        return read.__wrapped__(variant, getattr(config, STAGE_FILES[stage][variant]))\n",
           ("tests/test_experiments.py::test_ablation_reads_each_data_file_once",)),
    Mutant("gazetteer mention span that ends one token short",
           "entityqa/entities.py",
           "last = first if length == 1 else next(islice(tokens, length - 2, None))",
           "last = first if length <= 2 else next(islice(tokens, length - 3, None))",
           ("tests/test_entities.py::test_gazetteer_scan_matches_reference_on_random_corpora",
            "tests/test_pipeline.py::test_answer_matches_reference_answer_on_random_cases")),
    Mutant("ASCII tokenizer table without the digit 2",
           "entityqa/corpus.py",
           "if ch.isascii() and WORD.fullmatch(ch) else 32",
           "if ch.isascii() and WORD.fullmatch(ch) and ch != '2' else 32",
           ("tests/test_corpus.py::test_ascii_lower_words_matches_findall_on_random_ascii",
            "tests/test_pipeline.py::test_answer_matches_reference_answer_on_random_cases")),
    Mutant("splitter that joins after a flagged abbreviation ended by ! or ?, as 'Dr!'",
           "entityqa/corpus.py",
           'if "." in terminators and run and run.lower().rstrip(".") in abbreviations:',
           'if run and run.lower().rstrip(".") in abbreviations:',
           ("tests/test_corpus.py::test_split_sentences_matches_reference_on_random_texts",
            "tests/test_pipeline.py::test_answer_matches_reference_answer_on_random_cases")),
    Mutant("ranking that keeps six score groups",
           "entityqa/ranking.py",
           "            if len(groups) == MAX_RANK_GROUPS:\n",
           "            if len(groups) == MAX_RANK_GROUPS + 1:\n",
           ("tests/test_pipeline.py::test_answer_matches_reference_rank",
            "tests/test_pipeline.py::test_answer_matches_reference_answer_on_random_cases")),
    Mutant("run file lines stamped with an empty config id",
           "entityqa/ranking.py",
           '"config_id": config_id} for run in runs))',
           '"config_id": ""} for run in runs))',
           ("tests/test_ranking.py::test_run_file_roundtrip",
            "tests/test_pipeline.py::test_run_file_sidecar_records_config",
            "tests/test_cli.py::test_run_writes_run_file_and_sidecar")),
    Mutant("run_pipeline that answers with the stages of another config",
           "entityqa/pipeline.py",
           "    elif stages.config != config:\n",
           "    elif False:\n",
           ("tests/test_pipeline.py::test_run_pipeline_refuses_the_stages_of_another_config",)),
    Mutant("embedding cache that keeps the last of two vectors for one digest",
           "entityqa/scoring.py",
           "            kept = self.entries.setdefault(digest, vec)\n",
           "            kept = self.entries[digest] = vec\n",
           ("tests/test_scoring.py::test_cache_digest_given_two_vectors_is_a_data_error_naming_both_lines",)),
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
