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
mutants then run up to `os.cpu_count()` at a time, each pytest in its own
temporary directory, so each builds its own fixtures from its own copy;
results are printed in table order. The exit status is 1 when a named test
fails without a mutant, when a mutant's text is not found exactly once, or
when a mutant survives: a named test still passes, or pytest stops before
running the tests.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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
    Mutant("scipy imported with the module, so that no command runs without it",
           "entityqa/evaluation.py",
           "from typing import Iterable, Mapping, NamedTuple, Sequence\n\n",
           "from typing import Iterable, Mapping, NamedTuple, Sequence\n\n"
           "from scipy.special import stdtr\n\n",
           ("tests/test_exports.py::test_no_command_loads_scipy",)),
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
           "                first = next(s for s in lexicon if canonicalize(s) == key)\n"
           "                raise _KeyConflict(first, self.entries[key], surface, tag)\n",
           "            if key:\n"
           "                self.entries[key] = tag\n",
           ("tests/test_entities.py::test_gazetteer_key_given_two_tags_is_a_data_error_naming_both_lines",)),
    Mutant("gazetteer start index that counts an entry's characters, not its tokens",
           "entityqa/entities.py",
           'lengths_from.get(start, 0) | 1 << (key.count(" ") + 1)',
           'lengths_from.get(start, 0) | 1 << len(key)',
           ("tests/test_entities.py::test_gazetteer_index_is_keyed_by_canonical_strings_on_random_lexicons",
            "tests/test_entities.py::test_gazetteer_scan_matches_reference_on_random_corpora")),
    Mutant("gazetteer start index keyed by a whole entry, not its first token",
           "entityqa/entities.py",
           '            start = key.partition(" ")[0]\n',
           "            start = key\n",
           ("tests/test_entities.py::test_gazetteer_index_is_keyed_by_canonical_strings_on_random_lexicons",
            "tests/test_entities.py::test_gazetteer_longest_match_wins",
            "tests/test_entities.py::test_gazetteer_scan_matches_reference_on_random_corpora")),
    Mutant("gazetteer span looked up with its token keys joined by no space",
           "entityqa/entities.py",
           'tag = entries.get(" ".join(keys[i:i + length]))',
           'tag = entries.get("".join(keys[i:i + length]))',
           ("tests/test_entities.py::test_gazetteer_longest_match_wins",
            "tests/test_entities.py::test_gazetteer_scan_matches_reference_on_random_corpora",
            "tests/test_pipeline.py::test_answer_matches_reference_answer_on_random_cases")),
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
    Mutant("splitter that scans for periods alone in a text that holds one",
           "entityqa/corpus.py",
           '    held = ("." in text, "!" in text, "?" in text)\n',
           '    held = ("." in text, "!" in text, "?" in text)\n'
           '    held = (True, False, False) if held[0] else held\n',
           ("tests/test_corpus.py::test_split_sentences_matches_reference_on_random_texts",
            "tests/test_corpus.py::test_split_sentences_matches_reference_on_long_and_unicode_texts")),
    Mutant("splitter that returns a text without terminators unstripped",
           "entityqa/corpus.py",
           "        text = text.strip()\n        return [text] if text else []\n",
           "        return [text] if text.strip() else []\n",
           ("tests/test_corpus.py::test_split_sentences_matches_reference_on_long_and_unicode_texts",)),
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
    Mutant("run_pipeline that records a time for a question that raises",
           "entityqa/pipeline.py",
           '                log.exception("question %s failed", question.id)\n',
           "                seconds.append(perf_counter() - started)\n"
           '                log.exception("question %s failed", question.id)\n',
           ("tests/test_pipeline.py::test_run_pipeline_times_each_run_and_no_failed_question",)),
    Mutant("bench that asks a failed question again in each iteration",
           "entityqa/experiments.py",
           "[q for q in questions if q.id not in errors]",
           "list(questions)",
           ("tests/test_experiments.py::test_latency_bench_leaves_a_failing_question_out_of_the_means",)),
    Mutant("embedding cache that keeps the last of two vectors for one digest",
           "entityqa/scoring.py",
           "            kept = self.entries.setdefault(digest, vec)\n",
           "            kept = self.entries[digest] = vec\n",
           ("tests/test_scoring.py::test_cache_digest_given_two_vectors_is_a_data_error_naming_both_lines",)),
    Mutant("gazetteer line map that keeps a surface's last line",
           "entityqa/entities.py",
           "            line_of.setdefault(surface, line_no)\n",
           "            line_of[surface] = line_no\n",
           ("tests/test_entities.py::test_gazetteer_names_the_first_line_of_a_repeated_surface",)),
    Mutant("embedding cache line map that keeps a digest's last line",
           "entityqa/scoring.py",
           "            line_of.setdefault(digest, line_no)\n",
           "            line_of[digest] = line_no\n",
           ("tests/test_scoring.py::test_cache_digest_given_two_vectors_is_a_data_error_naming_both_lines",)),
    Mutant("word vectors that keep the last row of a repeated word",
           "entityqa/scoring.py",
           "            kept = vectors.setdefault(word, vec)\n",
           "            kept = vectors[word] = vec\n",
           ("tests/test_scoring.py::test_vectors_word_given_two_vectors_is_a_data_error_naming_both_lines",)),
    Mutant("t-test complement formed as 1 - x, which loses the digits of a small t",
           "entityqa/evaluation.py",
           "        x, y = df / (df + q), q / (df + q)\n",
           "        x, y = df / (df + q), 1.0 - df / (df + q)\n",
           ("tests/test_evaluation.py::test_t_p_value_matches_scipy_within_1e_8",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[1]",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[2]")),
    Mutant("t-test continued fraction taken on the side of x only",
           "entityqa/evaluation.py",
           "    if x < (a + 1.0) / (a + 2.5):\n",
           "    if True:\n",
           ("tests/test_evaluation.py::test_t_p_value_matches_scipy_within_1e_8",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[1]",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[2]")),
    Mutant("t-test continued fraction taken on the side of 1 - x only",
           "entityqa/evaluation.py",
           "    if x < (a + 1.0) / (a + 2.5):\n",
           "    if False:\n",
           ("tests/test_evaluation.py::test_t_p_value_matches_scipy_within_1e_8",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[1]",
            "tests/test_evaluation.py::test_t_p_value_matches_closed_forms_within_1e_12[2]")),
    Mutant("containment match whose first search finds only a gold equal to the candidate",
           "entityqa/evaluation.py",
           "    if padded in judgment.joined_golds:\n",
           "    if padded in judgment.padded_golds:\n",
           ("tests/test_evaluation.py::test_match_answer_length_guard_boundaries[inside-gold]",
            "tests/test_evaluation.py::test_match_answer_length_guard_boundaries[inside-longer-gold]",
            "tests/test_evaluation.py::test_match_answer_equals_reference_randomized[containment]")),
    Mutant("containment match that looks for a gold inside the candidate only when it is "
           "2 characters longer than the shortest gold",
           "entityqa/evaluation.py",
           "    return len(padded) > judgment.shortest_gold and \\\n",
           "    return len(padded) > judgment.shortest_gold + 2 and \\\n",
           ("tests/test_evaluation.py::test_match_answer_length_guard_boundaries[shortest-first]",
            "tests/test_evaluation.py::test_match_answer_length_guard_boundaries[shortest-last]",
            "tests/test_evaluation.py::test_match_answer_length_guard_boundaries[shortest-of-two]")),
    Mutant("run file reader whose one-pass check skips the type of each member",
           "entityqa/ranking.py",
           "                {str}.issuperset(map(type, chain.from_iterable(groups))):\n",
           "                True:\n",
           ("tests/test_ranking.py::test_load_runs_rejects_a_string_for_a_list[member-null]",)),
    Mutant("run file reader whose one-pass check takes a string for a group",
           "entityqa/ranking.py",
           "        if {list}.issuperset(map(type, groups)) and \\\n",
           "        if {list, str}.issuperset(map(type, groups)) and \\\n",
           ("tests/test_ranking.py::test_load_runs_rejects_a_string_for_a_list[a group-groups1-scores1]",)),
    Mutant("JSON writer whose one-call containers separate values without the indent",
           "entityqa/corpus.py",
           'separators=("," + inner, ": ")',
           'separators=(",\\n", ": ")',
           ("tests/test_corpus.py::test_write_json_equals_indented_json_dumps_on_random_payloads",
            "tests/test_golden.py::test_planted_evaluate_outputs_match_golden_digests",
            "tests/test_golden.py::test_planted_ablation_outputs_match_golden_digests")),
    Mutant("JSON writer that takes a tuple of values for a scalar",
           "entityqa/corpus.py",
           "_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})",
           "_JSON_SCALARS = frozenset({str, int, float, bool, type(None), tuple})",
           ("tests/test_corpus.py::test_write_json_equals_indented_json_dumps_on_random_payloads",)),
    Mutant("JSON writer that leaves a non-string key of a nested container unquoted",
           "entityqa/corpus.py",
           """        return f'"{json.dumps(key)}"'\n""",
           """        return json.dumps(key)\n""",
           ("tests/test_corpus.py::test_write_json_equals_indented_json_dumps_on_random_payloads",)),
    Mutant("question-id reader that lets a repeated id through",
           "entityqa/corpus.py",
           "        if qid in seen:\n",
           "        if False:\n",
           ("tests/test_corpus.py::test_a_repeated_question_id_is_a_parse_error_naming_both_lines"
            "[questions]",
            "tests/test_corpus.py::test_a_repeated_question_id_is_a_parse_error_naming_both_lines"
            "[qrels]",
            "tests/test_corpus.py::test_a_repeated_question_id_is_a_parse_error_naming_both_lines"
            "[runs]",
            "tests/test_cli.py::test_evaluate_run_file_with_a_question_twice_names_file_and_line")),
    Mutant("prepare that maps a non-entity type to no tags, so its document step runs",
           "entityqa/pipeline.py",
           "        if accepted is None:\n"
           "            # Non-entity question types (definition/abbreviation style)\n"
           "            # cannot be answered by entity ranking: empty run.\n"
           "            return None\n",
           "        if accepted is None:\n"
           "            accepted = frozenset()\n",
           ("tests/test_experiments.py::test_ablation_reads_each_question_documents_once",
            "tests/test_pipeline.py::test_prepare_skips_segmentation_for_unmapped_type")),
    Mutant("qrels reader that reads gold_answers without naming the question",
           "entityqa/evaluation.py",
           'golds = read_field(raw, "gold_answers", ["string"], path, line_no, qid)',
           'golds = read_field(raw, "gold_answers", ["string"], path, line_no)',
           ("tests/test_evaluation.py::test_load_qrels_rejects_a_string_for_the_gold_list",)),
    Mutant("run file reader whose invalid run record names no question",
           "entityqa/ranking.py",
           'f"question {qid!r}: invalid run record: {exc}"',
           'f"invalid run record: {exc}"',
           ("tests/test_ranking.py::test_load_runs_names_the_line_of_overlapping_groups",)),
    Mutant("evaluate that names two runs alike when their files share a stem",
           "entityqa/experiments.py",
           "        if stem in path_of:\n",
           "        if False:\n",
           ("tests/test_cli.py::test_evaluate_two_run_files_with_one_stem_is_a_data_error",)),
    Mutant("line reader that opens its file strict, so a byte that is not UTF-8 is a traceback",
           "entityqa/corpus.py",
           'open(path, encoding="utf-8", errors="surrogateescape")',
           'open(path, encoding="utf-8")',
           ("tests/test_cli.py::test_evaluate_qrels_with_a_byte_that_is_not_utf8_is_a_data_error"
            "_naming_its_line",)),
    Mutant("line reader without its UTF-8 check, so a bad byte loads as a lone surrogate",
           "entityqa/corpus.py",
           "            if not line.isascii():\n",
           "            if False:\n",
           ("tests/test_cli.py::test_evaluate_qrels_with_a_byte_that_is_not_utf8_is_a_data_error"
            "_naming_its_line",)),
)


def failed_tests(src: Path, tests: tuple[str, ...]) -> set[str] | str:
    """The named tests that fail with `src` first on the import path, or
    pytest's output when it ends without running them all (a collection
    error or an unknown test). Pytest's temporary files go next to `src`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         f"--basetemp={src.parent / 'pytest'}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return proc.stdout + proc.stderr
    # A summary line is "FAILED <node id>[ - <message>]"; a node id may hold a space.
    return set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)) & set(tests)


def copy_of_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def verdict(mutant: Mutant) -> str:
    """Whether `mutant` was killed, survived or is stale, in one line, and
    pytest's output after it when pytest stopped before the tests."""
    with tempfile.TemporaryDirectory() as tmp:
        path = copy_of_src(tmp) / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"STALE     {mutant.name}: its text occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        failed = failed_tests(Path(tmp) / "src", mutant.tests)
    if isinstance(failed, str):
        return f"SURVIVED  {mutant.name}: pytest stopped before the tests\n{failed}"
    survivors = [t for t in mutant.tests if t not in failed]
    if survivors:
        return f"SURVIVED  {mutant.name}: passes {', '.join(survivors)}"
    return f"killed    {mutant.name}"


def main() -> int:
    every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        failed = failed_tests(copy_of_src(tmp), every_test)
    if failed != set():
        print(f"FAILED without a mutant: {sorted(failed) if isinstance(failed, set) else failed}")
        return 1
    bad = 0
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for line in pool.map(verdict, MUTANTS):
            print(line, flush=True)
            bad += not line.startswith("killed")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
