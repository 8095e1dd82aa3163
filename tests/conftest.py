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


@pytest.fixture(scope="session")
def k_report():
    """compute_K of a catalog group at p = 2 over its automatic field with
    seed 0, run once per group per session."""
    from endotriv.catalog import build_group
    from endotriv.cli import choose_field_degree
    from endotriv.etk import compute_K
    from endotriv.ffla import field_make

    cache = {}

    def get(name):
        if name not in cache:
            table = build_group(name)[0]
            f = field_make(2, choose_field_degree(table, 2))
            cache[name] = compute_K(table, 2, f, seed=0)
        return cache[name]
    return get
