"""The CLI's front-end texts, pinned: the exit code, stdout and stderr of help
requests, usage errors and configuration errors, for every command and for
the top level.

`tests/data/frontend_texts.json` maps each case, its arguments joined by
`shlex.join`, to the three.  Each case runs twice: through `main(argv)` in
process, and through `python -m ocfield`, which takes its arguments from
sys.argv.  Help is formatted at COLUMNS = 80.  The cases run in a directory
that holds UNKNOWN_KEY, a config file with one key the CLI does not know.
When a change moves a text on purpose, regenerate the file in the same
commit with

    PYTHONPATH=src python tests/test_frontend.py

and say in CHANGES.md which texts moved and why.
"""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ocfield
from ocfield.cli import main

TEXTS = Path(__file__).parent / "data" / "frontend_texts.json"
UNKNOWN_KEY = "unknown-key.json"
SRC = str(Path(ocfield.__file__).resolve().parent.parent)


def _cases() -> list[list[str]]:
    scenario = ("analytic", "simulate", "optimize")
    cases = [
        [],
        ["-h"],
        ["--help"],
        ["bogus"],
        ["--bogus"],
        ["--alpha"],
        ["--alpha", "3", "analytic"],
        ["--", "analytic", "--L", "2"],
        ["--config", UNKNOWN_KEY],
        ["figure", "1", "--alpha", "3"],
    ]
    for name in scenario:
        cases += [
            [name, "-h"],
            [name, "--L", "2", "--he"],
            [name, "--bogus"],
            [name, "--alpha"],
            [name, "extra"],
            [name, "--L", "2", "--", "extra"],
            [name, "--config", UNKNOWN_KEY],
            [name, "--L", "x"],
            [name, "--lambda-min", "x"],
            [name, "--alpha", "2"],
        ]
    cases += [
        ["figure", "-h"],
        ["figure"],
        ["figure", "x"],
        ["figure", "1", "--bogus"],
        ["figure", "1", "--n-trials"],
        ["figure", "1", "extra"],
        ["figure", "1", "--config", UNKNOWN_KEY],
        ["figure", "5"],
        # runs that succeed, so that the dispatched parse is seen to reach the rows
        ["analytic", "--L", "2", "--lambda-grid", "1e-3"],
        ["analytic", "--L=1,3", "--lambda-min=1e-4", "--lambda-max", "1e-3", "--lambda-points=3"],
        ["optimize", "--L", "1,2", "--sigma2", "0"],
        ["simulate", "--L", "2", "--lambda-grid", "1e-3", "--n-trials", "100", "--seed", "3"],
        ["figure", "4"],
    ]
    return cases


CASES = _cases()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / UNKNOWN_KEY).write_text('{"bogus": 1}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("OC_FIELD_THREADS", raising=False)
    return tmp_path


def _in_process(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: help, or a usage error
            code = exc.code
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _module(argv: list[str], cwd: Path) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    env.pop("OC_FIELD_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-m", "ocfield", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


@pytest.fixture(scope="module")
def texts() -> dict:
    return json.loads(TEXTS.read_text())


def test_every_case_is_pinned(texts):
    assert sorted(texts) == sorted(shlex.join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=shlex.join)
def test_main_prints_the_pinned_texts(texts, workdir, argv):
    assert _in_process(argv) == texts[shlex.join(argv)]


@pytest.mark.parametrize("argv", CASES, ids=shlex.join)
def test_module_prints_the_pinned_texts(texts, workdir, argv):
    assert _module(argv, workdir) == texts[shlex.join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("OC_FIELD_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / UNKNOWN_KEY).write_text('{"bogus": 1}')
        os.chdir(tmp)
        recorded = {}
        for argv in CASES:
            recorded[shlex.join(argv)] = _in_process(argv)
            if _module(argv, Path(tmp)) != recorded[shlex.join(argv)]:
                sys.exit(f"main and python -m ocfield disagree on {shlex.join(argv)}")
    TEXTS.write_text(json.dumps(recorded, indent=1) + "\n")
