import builtins
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from datagen import (  # noqa: E402
    base_config_dict,
    generate_labeled_file,
    generate_planted_fixture,
)

from entityqa.qtype import (  # noqa: E402
    load_labeled_questions,
    split_labeled,
    train_classifier,
)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("data")


@pytest.fixture(scope="session")
def labeled_file(data_dir) -> Path:
    path = data_dir / "labeled_questions.txt"
    generate_labeled_file(path, n=5500, seed=11)
    return path


@pytest.fixture(scope="session")
def labeled_questions(labeled_file):
    return load_labeled_questions(labeled_file)


@pytest.fixture(scope="session")
def svm_split(labeled_questions):
    return split_labeled(labeled_questions, train_fraction=0.9, seed=0)


@pytest.fixture(scope="session")
def svm_classifier(svm_split):
    train, _ = svm_split
    return train_classifier(train, epochs=10, learning_rate=0.5,
                            l2=1e-4, seed=0)


@pytest.fixture(scope="session")
def svm_model_path(data_dir, svm_classifier) -> Path:
    path = data_dir / "question_model.npz"
    svm_classifier.save(path)
    return path


@pytest.fixture(scope="session")
def planted(data_dir, labeled_questions):
    root = data_dir / "planted"
    texts = [lq.text for lq in labeled_questions]
    return generate_planted_fixture(root, seed=23, labeled_texts=texts)


@pytest.fixture(scope="session")
def planted_config(planted, svm_model_path, labeled_file) -> dict:
    return base_config_dict(planted, str(svm_model_path), str(labeled_file))


def pytest_terminal_summary(terminalreporter):
    """One explicit PASS/FAIL line per acceptance criterion."""
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and status == "passed":
                continue
            name = nodeid.split("::")[-1]
            rows.append((name, "PASS" if status == "passed" else "FAIL"))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in sorted(set(rows)):
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture()
def config_file(tmp_path, planted_config):
    import json

    def _write(overrides: dict | None = None, name: str = "config.json"):
        merged = dict(planted_config)
        merged.update(overrides or {})
        path = tmp_path / name
        path.write_text(json.dumps(merged), encoding="utf-8")
        return path

    return _write


@pytest.fixture()
def opens_of(monkeypatch):
    """opens_of(path) is a list that gains an item each time `open` is
    called on `path` from then on."""
    real_open, opened = builtins.open, {}

    def counting_open(file, *args, **kwargs):
        opened.get(str(file), []).append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return lambda path: opened.setdefault(str(path), [])
