"""Shared fixtures."""
import os
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def src_env():
    """The environment for a subprocess that imports endotriv from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
