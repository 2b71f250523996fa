import os
from pathlib import Path

import pytest

# child processes (the CLI and demo runs) do not see pytest's pythonpath setting
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

_acceptance = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance.append((report.nodeid.split("::")[-1], report.outcome))
    elif report.when == "setup" and report.skipped and "test_acceptance" in report.nodeid:
        _acceptance.append((report.nodeid.split("::")[-1], "skipped"))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for name, outcome in _acceptance:
        terminalreporter.write_line(f"{status.get(outcome, outcome.upper()):4s}  {name}")


@pytest.fixture(scope="session")
def synth_files(tmp_path_factory):
    """Embedding + corpus files for the 3-class synthetic benchmark."""
    from _synth import build_corpus_files

    tmp = tmp_path_factory.mktemp("synth")
    return build_corpus_files(tmp)
