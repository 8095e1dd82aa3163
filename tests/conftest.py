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
    """compute_K of a catalog group at p (default 2) over its automatic
    field with seed 0, run once per group and prime per session."""
    from endotriv.catalog import build_group
    from endotriv.cli import choose_field_degree
    from endotriv.etk import compute_K
    from endotriv.ffla import field_make

    cache = {}

    def get(name, p=2):
        if (name, p) not in cache:
            table = build_group(name)[0]
            f = field_make(p, choose_field_degree(table, p))
            cache[name, p] = compute_K(table, p, f, seed=0)
        return cache[name, p]
    return get
