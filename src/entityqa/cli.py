"""Command-line driver.

Subcommands: run, ablate, evaluate, bench, sample-strata, train-qc.
Exit codes: 0 success, 1 data error, 2 configuration error. `run` also
exits 1 when any question failed, after writing the run file and a
sidecar that lists the failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .corpus import (COLLECTION_SPECS, DocumentSet, collection_spec,
                     derive_question_seed, load_documents, load_questions,
                     load_strata_spec, sample_strata, write_documents)
from .errors import ConfigError, DataError
from .evaluation import (MATCH_POLICIES, METRICS, TMRR_MODES, load_qrels,
                         per_query_diff, write_diff_csv, write_report_csv,
                         write_report_json)
from .experiments import (evaluate_run_files, run_ablation, run_latency_bench,
                          write_ablation_csv, write_ablation_json,
                          write_latency_json, write_significance_json)
from .pipeline import PipelineConfig, load_config, run_pipeline, write_run_file
from .qtype import (classifier_accuracy, load_labeled_questions,
                    majority_baseline, split_labeled, train_classifier)

log = logging.getLogger(__name__)


def _parse_overrides(pairs: Sequence[str] | None) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer too long for int()
            value = raw
        overrides[key.strip()] = value
    return overrides


def _load_inputs(config: PipelineConfig):
    questions = load_questions(config.questions_path, config.source_set)
    by_question = load_documents(config.documents_path)
    docsets = {
        qid: DocumentSet(question_id=qid, documents=tuple(docs))
        for qid, docs in by_question.items()
    }
    return questions, docsets


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, _parse_overrides(args.set))
    questions, docsets = _load_inputs(config)
    result = run_pipeline(config, questions, docsets)
    write_run_file(args.out, result, config)
    print(f"wrote {len(result.runs)} runs to {args.out} "
          f"(config {config.config_id})")
    if result.errors:
        print(f"{len(result.errors)} question(s) failed:", file=sys.stderr)
        for qid, message in result.errors:
            print(f"  {qid}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = load_config(args.config, _parse_overrides(args.set))
    questions, docsets = _load_inputs(config)
    judgments = load_qrels(args.qrels, args.match_policy)
    rows = run_ablation(config, questions, docsets, judgments,
                        tmrr_mode=args.tmrr_mode)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_ablation_csv(f"{prefix}.csv", rows)
    write_ablation_json(f"{prefix}.json", rows)
    print(f"wrote {len(rows)} ablation rows to {prefix}.csv / {prefix}.json")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.diff_metric:
        if len(args.runs) != 2:
            raise ConfigError("--diff-metric needs exactly two run files")
        if args.diff_metric not in METRICS:
            raise ConfigError(f"--diff-metric must be one of {METRICS}")
    judgments = load_qrels(args.qrels, args.match_policy)
    reports, significance = evaluate_run_files(args.runs, judgments,
                                               tmrr_mode=args.tmrr_mode)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(f"{prefix}.csv", reports)
    write_report_json(f"{prefix}.json", reports)
    if significance:
        write_significance_json(f"{prefix}.significance.json", significance)
    if args.diff_metric:
        table = per_query_diff(reports[0], reports[1], args.diff_metric)
        write_diff_csv(f"{prefix}.diff.csv", table)
        print(f"per-query diff ({args.diff_metric}): "
              f"+{table.positives} / -{table.negatives} / ={table.zeros}")
    for report in reports:
        means = report.means()
        cells = "  ".join(f"{m}={means[m]:.4f}" for m in METRICS)
        print(f"{report.run_id}: {cells}")
    return 0


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, not {value}")


def _cmd_bench(args: argparse.Namespace) -> int:
    _at_least_one("--iterations", args.iterations)
    config = load_config(args.config, _parse_overrides(args.set))
    questions, docsets = _load_inputs(config)
    report = run_latency_bench(config, questions, docsets,
                               iterations=args.iterations,
                               comparison_path=args.comparison,
                               label=args.label)
    write_latency_json(args.out, report)
    print(f"load: {report.load_seconds:.3f}s  "
          f"mean/question: {report.mean_seconds['overall'] * 1000:.1f}ms "
          f"over {report.iterations} iteration(s)")
    if report.low_confidence:
        print("warning: single iteration, timings are low-confidence",
              file=sys.stderr)
    if report.speedup:
        for key, value in sorted(report.speedup.items()):
            print(f"speedup[{key}] = {value:.2f}x")
    return 0


def _cmd_sample_strata(args: argparse.Namespace) -> int:
    if args.spec in COLLECTION_SPECS:
        spec = collection_spec(args.spec)
    elif Path(args.spec).is_file():
        spec = load_strata_spec(args.spec)
    else:
        raise ConfigError(
            f"--spec must name one of {sorted(COLLECTION_SPECS)} or a spec file"
        )
    global_seed = spec.seed if args.seed is None else args.seed
    by_question = load_documents(args.documents)
    docsets = []
    for qid in sorted(by_question):
        question_spec = replace(
            spec, seed=derive_question_seed(global_seed, qid))
        docsets.append(sample_strata(by_question[qid], question_spec))
    write_documents(args.out, docsets)
    print(f"sampled {spec.sample_size} documents for {len(docsets)} "
          f"question(s) with spec {spec.name} (seed {global_seed})")
    return 0


def _cmd_train_qc(args: argparse.Namespace) -> int:
    _at_least_one("--epochs", args.epochs)
    if not (0.0 <= args.heldout_fraction < 1.0):
        raise ConfigError("--heldout-fraction must be in [0, 1)")
    labeled = load_labeled_questions(args.labeled)
    train_set, heldout = split_labeled(
        labeled, train_fraction=1.0 - args.heldout_fraction,
        seed=args.split_seed)
    classifier = train_classifier(
        train_set, epochs=args.epochs, learning_rate=args.learning_rate,
        l2=args.l2, seed=args.seed)
    classifier = replace(classifier, hyperparams={
        **classifier.hyperparams,
        "heldout_fraction": args.heldout_fraction,
        "split_seed": args.split_seed,
    })
    classifier.save(args.model_out)
    eval_set = heldout or train_set
    where = "held-out" if heldout else "training"
    coarse_acc, fine_acc = classifier_accuracy(classifier, eval_set)
    baseline = majority_baseline(eval_set)
    print(f"trained on {len(train_set)} questions -> {args.model_out}")
    print(f"{where} coarse accuracy: {coarse_acc:.4f} "
          f"(majority baseline {baseline:.4f})")
    print(f"{where} fine accuracy:   {fine_acc:.4f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entityqa",
        description="Entity-centric question answering over retrieved "
                    "documents, with tie-aware evaluation.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="answer questions, write a run file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_ablate = sub.add_parser("ablate", help="evaluate all stage combinations")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--qrels", required=True)
    p_ablate.add_argument("--out-prefix", required=True)
    p_ablate.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_ablate.add_argument("--match-policy", default="containment",
                          choices=MATCH_POLICIES)
    p_ablate.add_argument("--tmrr-mode", default="expected_reciprocal",
                          choices=TMRR_MODES)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_eval = sub.add_parser("evaluate", help="score run files against qrels")
    p_eval.add_argument("runs", nargs="+", help="run files (JSONL)")
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--out-prefix", required=True)
    p_eval.add_argument("--match-policy", default="containment",
                        choices=MATCH_POLICIES)
    p_eval.add_argument("--tmrr-mode", default="expected_reciprocal",
                        choices=TMRR_MODES)
    p_eval.add_argument("--diff-metric", default=None,
                        help="write per-query diff CSV for this metric "
                             "(requires exactly two runs)")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser("bench", help="per-question latency benchmark")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--iterations", type=int, default=5)
    p_bench.add_argument("--comparison", default=None,
                         help="timings JSON of another system, for speedups")
    p_bench.add_argument("--label", default="this-work")
    p_bench.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_bench.set_defaults(func=_cmd_bench)

    p_strata = sub.add_parser("sample-strata",
                              help="draw per-question stratified document samples")
    p_strata.add_argument("--documents", required=True,
                          help="full-depth ranked documents (JSONL)")
    p_strata.add_argument("--spec", required=True,
                          help=f"one of {sorted(COLLECTION_SPECS)} or a JSON spec file")
    p_strata.add_argument("--out", required=True)
    p_strata.add_argument("--seed", type=int, default=None,
                          help="override the spec's base seed")
    p_strata.set_defaults(func=_cmd_sample_strata)

    p_train = sub.add_parser("train-qc", help="train the question classifier")
    p_train.add_argument("--labeled", required=True,
                         help="labeled questions (LABEL:fine<TAB>text)")
    p_train.add_argument("--model-out", required=True)
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--learning-rate", type=float, default=0.5)
    p_train.add_argument("--l2", type=float, default=1e-4)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--heldout-fraction", type=float, default=0.1)
    p_train.add_argument("--split-seed", type=int, default=0)
    p_train.set_defaults(func=_cmd_train_qc)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
