"""Test-session setup: the interpreters that tests start (`python -m
ocfield`) find the checkout's package, as pytest's own process does through
its `pythonpath` setting, whatever PYTHONPATH the session was given."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
