"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
The determinism tests make two traced iterations of every workload, about
two minutes in all.
"""
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import diff  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_SUFFIXES = (".calls", ".field_ops", ".cells")
EXACT = ("split.idempotent_tries", "split.idempotent_yield",
         "cli.field_retries")


def test_span_self_time_excludes_children_and_incl_counts_outermost():
    t = Tracer()
    inner = t._span(lambda: sum(range(20000)), "inner", None)

    def outer_fn(depth):
        inner()
        if depth:
            outer(depth - 1)
    outer = t._span(outer_fn, "outer", None)
    outer(1)
    s = t.summary()
    assert s["outer.calls"] == 2 and s["inner.calls"] == 2
    first, second, third, fourth = t.spans
    assert [sp[0] for sp in t.spans] == ["outer", "inner", "outer", "inner"]
    assert second[3] == 0 and third[3] == 0 and fourth[3] == 2
    assert s["outer.incl_s"] == pytest.approx(first[2] - first[1])
    covered = (second[2] - second[1]) + (third[2] - third[1])
    own = (first[2] - first[1]) - covered
    own += (third[2] - third[1]) - (fourth[2] - fourth[1])
    assert s["outer.self_s"] == pytest.approx(own)


def test_install_rebinds_every_namespace():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import endotriv.cli\n"
        "from endotriv import etk, ffla, modrep, split\n"
        "from tracer import Tracer\n"
        "g, s = ffla.gauss, split.split_summands\n"
        "t = Tracer(); t.install()\n"
        "assert not t.missing, t.missing\n"
        "assert ffla.gauss is modrep.gauss is split.gauss is not g\n"
        "assert split.split_summands is etk.split_summands is not s\n"
        "assert etk.compute_K is endotriv.cli.compute_K\n"
    ) % (str(BENCH), str(run.ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def _traced_counts(workload):
    out = subprocess.run([sys.executable, str(run.CHILD), workload, "0", "1"],
                         capture_output=True, text=True, check=True,
                         timeout=170).stdout
    child = json.loads(out.splitlines()[-1])
    assert child["error"] is None and child["exit_code"] == 0
    assert child["trace"]["missing"] == []
    counters = child["trace"]["counters"]
    return {k: v for k, v in counters.items()
            if k.endswith(COUNT_SUFFIXES) or k in EXACT}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert first["etk.compute_K.calls"] >= 1


def _sample(output, exit_code=0):
    return {"status": 0, "child": {"error": None, "exit_code": exit_code,
                                   "output": output}}


def test_gate_ignores_only_the_seed():
    ref = run.load_reference("analyze_pgl2_13")
    seeded = ref.replace('"seed": 0,', '"seed": 7,')
    assert run.gate("analyze_pgl2_13", 7, _sample(seeded), ref) is None
    assert run.gate("analyze_pgl2_13", 8, _sample(seeded), ref) is not None
    changed = seeded.replace('"normalizer_order": 8', '"normalizer_order": 9')
    assert run.gate("analyze_pgl2_13", 7, _sample(changed), ref) is not None
    assert run.gate("analyze_pgl2_13", 7, _sample(seeded, 2), ref) is not None


def test_gate_audit():
    ref = run.load_reference("audit_3a6")
    assert run.gate("audit_3a6", 3, _sample(ref), ref) is None
    bad = json.loads(json.dumps(ref))
    bad["verdicts"][0][0] = [True, True]
    assert run.gate("audit_3a6", 3, _sample(bad), ref) is not None
    bad = json.loads(json.dumps(ref))
    bad["rejected_dims"][0].pop()
    assert run.gate("audit_3a6", 3, _sample(bad), ref) is not None


def _row(wall, calls, fail_ratio=0.0):
    return {"meta": {"seed": 0}, "fail_ratio": fail_ratio,
            "end_to_end": {"wall_s": {"value": wall}},
            "per_layer": {"split.charpoly.calls": {"value": calls},
                          "split.charpoly.self_s": {"value": wall / 2}}}


def test_diff_flags_counts_exactly_and_times_by_bound():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["wall_s"]
    out = io.StringIO()
    ok = diff.compare({"w": _row(10.0, 100)}, {"w": _row(10.0, 101)}, spec,
                      out)
    text = out.getvalue()
    assert ok and "DIFF" in text and "WORSE" not in text
    out = io.StringIO()
    slow = 10.0 * (1 + 2 * bound)
    assert not diff.compare({"w": _row(10.0, 100)}, {"w": _row(slow, 100)},
                            spec, out)
    assert "WORSE" in out.getvalue() and "slower" in out.getvalue()
    assert not diff.compare({"w": _row(10.0, 100)},
                            {"w": _row(10.0, 100, 0.5)}, spec, io.StringIO())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
