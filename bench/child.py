"""One benchmark iteration in a fresh process.

Usage: python3 bench/child.py WORKLOAD SEED TRACE

Imports numpy and ``endotriv.cli`` from the checkout's ``src``, records the
monotonic time at which the imports finished, runs one iteration of the
workload through public entry points only, and prints one JSON object on
standard output:

    {"imported": <CLOCK_MONOTONIC seconds>, "exit_code": <int>,
     "output": <report text or audit summary>, "trace": <counters or null>,
     "error": <message or null>}

WORKLOAD ``setup`` only imports; ``meta`` also reports library versions and
the effective BLAS thread count.  TRACE 1 installs the span tracer first.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import endotriv.cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

ANALYZE_GROUPS = {"analyze_pgl2_13": "PGL(2,13)", "analyze_c9_3a6": "C9*3A6"}


def analyze(group: str, seed: int):
    """``endotriv analyze`` exactly as the console script runs it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = endotriv.cli.main(["analyze", "--group", group,
                                  "--check-theorem", "--seed", str(seed)])
    return code, buf.getvalue()


def audit_3a6(seed: int):
    """Both endo-triviality tests on every rejected summand of 3A6, as the
    acceptance test ``test_both_tests_agree_on_every_summand`` runs them."""
    from endotriv import catalog, cli, etk, ffla
    table, _ = catalog.build_group("3A6")
    e = cli.choose_field_degree(table, 2)
    res = etk.compute_K(table, 2, ffla.field_make(2, e), seed=seed)
    sc = etk.SylowClasses(res.table, res.sylow)
    rejected, verdicts = [], []
    for r in res.records:
        rejected.append([rej.dim for rej in r.reject_reps])
        row = []
        for rej in r.reject_reps:
            ok_char, _ = etk.is_endotrivial_char(rej, sc, 2)
            ok_direct = etk.is_endotrivial_direct(rej, sc, 2, budget=625)
            row.append([bool(ok_char), bool(ok_direct)])
        verdicts.append(row)
    return 0, {
        "field_e": e,
        "checks_pass": all(res.checks.values()),
        "records_agree": all(r.endotrivial == r.endotrivial_direct
                             for r in res.records),
        "rejected_dims": rejected,
        "verdicts": verdicts,
    }


def meta() -> dict:
    """Library versions and the effective OpenBLAS thread count."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv) -> dict:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    out = {"imported": IMPORTED, "exit_code": 0, "output": None,
           "trace": None, "error": None}
    if workload == "setup":
        return out
    if workload == "meta":
        out["output"] = meta()
        return out
    tracer = None
    if traced:
        from tracer import Tracer  # the script's own directory is on sys.path
        tracer = Tracer()
        tracer.install()
    try:
        if workload in ANALYZE_GROUPS:
            code, output = analyze(ANALYZE_GROUPS[workload], seed)
        elif workload == "audit_3a6":
            code, output = audit_3a6(seed)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        out["exit_code"], out["output"] = code, output
    except Exception:
        out["exit_code"] = 1
        out["error"] = traceback.format_exc()
    if tracer is not None:
        out["trace"] = {"counters": tracer.summary(),
                        "missing": tracer.missing,
                        "spans": len(tracer.spans)}
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
