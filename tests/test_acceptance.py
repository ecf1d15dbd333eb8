"""Acceptance gate: the ten published behaviours this package must show.

Each test is one criterion, self-contained and oracle-checked, with its
runtime budget asserted where one is stated. The terminal summary prints
one PASS/FAIL line per criterion (see conftest).
"""

import json
import math
import random
import time
from itertools import chain

import pytest

from datagen import random_mention_corpus
from oracles import brute_force_aggregate, brute_force_df, mc_tie_metrics

from entityqa.cli import main
from entityqa.corpus import (
    Document,
    DocumentSet,
    collection_spec,
    load_documents,
    load_questions,
    sample_strata,
    segment_sentences,
)
from entityqa.entities import GazetteerExtractor, build_pool
from entityqa.evaluation import (
    Judgment,
    evaluate_run,
    load_qrels,
    matching_surfaces,
    paired_t_test,
    run_metrics,
)
from entityqa.experiments import run_ablation
from entityqa.pipeline import PipelineConfig, load_stages, run_pipeline
from entityqa.qtype import classifier_accuracy, majority_baseline
from entityqa.ranking import TiedRun
from entityqa.scoring import aggregate
from entityqa.entities import CandidateEntity
from entityqa.scoring import EvidenceSet


def _labeled_run(group_sizes, group_relevant, qid="q1"):
    """A tie-grouped run over synthetic members plus its exact judgment."""
    groups, gold = [], []
    k = 0
    for n, r in zip(group_sizes, group_relevant):
        members = []
        for j in range(n):
            name = f"m{k}"
            k += 1
            members.append(name)
            if j < r:
                gold.append(name)
        groups.append(frozenset(members))
    run = TiedRun(
        question_id=qid, groups=tuple(groups),
        scores=tuple(1.0 - i / (len(groups) + 1) for i in range(len(groups))))
    judgment = Judgment(question_id=qid,
                        gold_answers=frozenset(gold) or frozenset({"zz"}),
                        match_policy="exact")
    return run, judgment


def _metrics(run, judgment):
    """run_metrics of a run scored against a judgment, in METRICS order."""
    relevant = matching_surfaces(chain.from_iterable(run.groups), judgment)
    return run_metrics(run.groups, relevant, "expected_reciprocal")


def test_criterion_01_table5_worked_example():
    """Group sizes [2,20,1,1,2], both answers in the last group:
    classical MRR = 0.2 and Hit@5 = 1; tie-aware tMRR = 0.04,
    tP@1 = 0, tHit@5 = 0. Runtime < 1 s."""
    t0 = time.perf_counter()
    run, judgment = _labeled_run([2, 20, 1, 1, 2], [0, 0, 0, 0, 2])
    mrr, p1, hit, tmrr, tp1, thit = _metrics(run, judgment)
    elapsed = time.perf_counter() - t0
    assert mrr == 0.2
    assert p1 == 0.0
    assert hit == 1.0
    assert tmrr == pytest.approx(0.04, abs=1e-12)
    assert tp1 == 0.0
    assert thit == 0.0
    assert elapsed < 1.0


def test_criterion_02_tie_aware_against_monte_carlo():
    """500 random runs (<=6 groups, sizes <=25): closed forms agree with a
    10^6-sample Monte-Carlo tie-breaking oracle within 0.005. < 5 min."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for i in range(500):
        k = rng.randint(1, 6)
        sizes = [rng.randint(1, 25) for _ in range(k)]
        rel = [rng.randint(0, n) if rng.random() < 0.6 else 0 for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        got = _metrics(run, judgment)[3:]
        want = mc_tie_metrics(sizes, rel, n_samples=10 ** 6, seed=i)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w))
            assert abs(g - w) <= 0.005, (sizes, rel, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 2: worst |closed - MC| = {worst:.5f}, {elapsed:.1f}s")


def test_criterion_03_singleton_runs_match_classical_bitwise():
    """200 random all-singleton runs: tie-aware == classical bit-for-bit."""
    rng = random.Random(33)
    for _ in range(200):
        k = rng.randint(1, 5)
        rel = [1 if rng.random() < 0.35 else 0 for _ in range(k)]
        run, judgment = _labeled_run([1] * k, rel)
        values = _metrics(run, judgment)
        assert values[3:] == values[:3]


def test_criterion_04_aggregation_matches_brute_force():
    """1000 random evidence sets: avg/avg_max/max within 1e-12 of direct
    formula evaluation; avg <= max and avg_max <= max throughout."""
    rng = random.Random(44)

    def evidence(scores_by_doc):
        keys, values = [], []
        for doc_id, scores in scores_by_doc.items():
            for i, s in enumerate(scores):
                keys.append((doc_id, i))
                values.append(s)
        entity = CandidateEntity(canonical_surface="x", df=len(scores_by_doc),
                                 sentence_keys=tuple(keys))
        return EvidenceSet(entity=entity, scores=tuple(values))

    for _ in range(1000):
        scores_by_doc = {
            f"d{d}": [rng.uniform(-1, 1) for _ in range(rng.randint(1, 6))]
            for d in range(rng.randint(1, 8))
        }
        ev = evidence(scores_by_doc)
        results = {}
        for mode in ("avg", "avg_max", "max"):
            got = aggregate(ev, mode)
            want = brute_force_aggregate(scores_by_doc, mode)
            assert math.isclose(got, want, abs_tol=1e-12)
            results[mode] = got
        assert results["avg"] <= results["max"] + 1e-12
        assert results["avg_max"] <= results["max"] + 1e-12


def test_criterion_05_df_matches_document_scan():
    """50 random 10-doc corpora: pool df == brute-force scan; the top-100
    cap keeps a df-descending prefix of the full pool."""
    rng = random.Random(55)
    for trial in range(50):
        texts, lexicon, truth = random_mention_corpus(rng, n_docs=10)
        docs = tuple(segment_sentences(Document(question_id="q",
                                                original_rank=i + 1, text=t))
                     for i, t in enumerate(texts))
        docset = DocumentSet(question_id="q", documents=docs)
        mentions = GazetteerExtractor(lexicon).extract(docset)
        pool = build_pool(mentions, cap=100)
        got = {c.canonical_surface: c.df for c in pool.candidates}
        assert got == brute_force_df(truth, str.lower)

        dfs = [c.df for c in pool.candidates]
        assert dfs == sorted(dfs, reverse=True)
        capped = build_pool(mentions, cap=3)
        assert [c.canonical_surface for c in capped.candidates] == \
            [c.canonical_surface for c in pool.candidates][:3]


def test_criterion_06_strata_band_counts():
    """Strata-1..5 draw exactly (6,3,1), (5,4,1), (5,3,2), (4,4,2), (4,3,3)
    documents from the rank bands over 100 seeded draws each."""
    expected = {
        "Strata-1": (6, 3, 1),
        "Strata-2": (5, 4, 1),
        "Strata-3": (5, 3, 2),
        "Strata-4": (4, 4, 2),
        "Strata-5": (4, 3, 3),
    }
    docs = [Document(question_id="q", original_rank=r, text=f"doc {r}.")
            for r in range(1, 51)]

    def band(rank):
        return 0 if rank <= 10 else (1 if rank <= 25 else 2)

    for name, want in expected.items():
        for seed in range(100):
            sampled = sample_strata(docs, collection_spec(name, seed=seed))
            got = [0, 0, 0]
            for d in sampled.documents:
                got[band(d.original_rank)] += 1
            assert tuple(got) == want, (name, seed, got)


def test_criterion_07_planted_answers_rank_first(planted, planted_config):
    """12-question planted corpus under the default config (SVM, word-avg,
    max-score, multiplicative): P@1 = 1.0 and tP@1 = 1.0. Runtime < 1 min."""
    t0 = time.perf_counter()
    config = PipelineConfig(**planted_config)
    assert config.classifier == "svm"
    assert config.embedding_provider == "word-avg"
    assert config.aggregation == "max"
    assert config.combine == "multiplicative"

    questions = load_questions(planted.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(planted.documents_path).items()}
    result = run_pipeline(config, questions, docsets)
    assert not result.errors
    report = evaluate_run(result.runs, load_qrels(planted.qrels_path),
                          run_id="planted")
    elapsed = time.perf_counter() - t0
    assert report.mean("P@1") == 1.0
    assert report.mean("tP@1") == 1.0
    assert elapsed < 60.0


def test_criterion_08_classifier_beats_majority_by_15_points(svm_classifier,
                                                             svm_split):
    """Seeded 90/10 split of the 5500-question file: held-out coarse
    accuracy >= majority baseline + 0.15."""
    train, heldout = svm_split
    assert len(train) + len(heldout) == 5500
    assert len(heldout) == 550
    coarse_acc, _fine_acc = classifier_accuracy(svm_classifier, heldout)
    baseline = majority_baseline(heldout)
    assert coarse_acc >= baseline + 0.15, (coarse_acc, baseline)
    print(f"criterion 8: coarse accuracy {coarse_acc:.4f} "
          f"vs majority {baseline:.4f}")


def test_criterion_09_t_test_critical_value():
    """t = 2.045 at 29 degrees of freedom gives p = 0.050 +/- 0.001."""
    c = 2.045 / math.sqrt(29)
    diffs = [c + (1 if i % 2 == 0 else -1) for i in range(30)]
    result = paired_t_test(diffs, [0.0] * 30)
    assert result.t_statistic == pytest.approx(2.045, abs=1e-9)
    assert abs(result.p_value - 0.050) <= 0.001


def test_criterion_10_determinism_and_ablation_budget(tmp_path, planted,
                                                      planted_config):
    """Identical config+seed -> byte-identical run files; the 24-row
    ablation grid finishes in < 10 min on the fixture corpus."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(planted_config))
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    config = PipelineConfig(**planted_config)
    questions = load_questions(planted.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(planted.documents_path).items()}
    judgments = load_qrels(planted.qrels_path)
    t0 = time.perf_counter()
    rows = run_ablation(config, questions, docsets, judgments)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 24
    assert len({(r.classifier, r.embedding_provider, r.aggregation,
                 r.combine) for r in rows}) == 24
    assert elapsed < 600.0
    print(f"criterion 10: ablation grid in {elapsed:.1f}s")
