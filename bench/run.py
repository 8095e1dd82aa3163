"""Benchmark runner for endotriv.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--out RESULT.json]

Runs from the root of a source checkout; the package is imported from its
``src`` directory, nothing needs installing.  Every iteration of the
workload is a fresh child process (``bench/child.py``), timed from outside:
wall time from spawn to exit, CPU time and peak RSS from ``os.wait4``, and
set-up time from spawn until the child finished importing numpy and
``endotriv.cli``.  The load is a closed loop with one client: the next
iteration starts only after the previous one exited.  A run makes at least
two iterations, more while the next is expected to end within ``--seconds``,
and reports medians over them.

Every iteration's output is checked against ``bench/reference``.  A wrong
output, an exception or a nonzero exit counts as failed and is never
dropped from the timings.

``--trace 0`` also spawns a few import-only children and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the untraced
loop, then one traced iteration, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` merges this workload's
row, with samples and run metadata, into a result file that
``bench/diff.py`` compares.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference"

WORKLOADS = ("analyze_pgl2_13", "analyze_c9_3a6", "audit_3a6")
SETUP_PROBES = 9          # import-only children per untraced run
# Host contention on shared machines swings single iterations by up to 30%
# within minutes; the median of two back-to-back iterations roughly halves
# the run-to-run spread.
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0       # every child is killed past this point of the run
PERCENTILES = (99, 95, 90, 75)
SEED_LINE = re.compile(r'^  "seed": -?\d+,$', re.M)


# -- children ----------------------------------------------------------------

def spawn(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run one child to completion; return its timings and parsed output."""
    cmd = [sys.executable, str(CHILD), workload, str(seed),
           "1" if traced else "0"]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    chunks, killed = [], False
    fd = proc.stdout.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                if sel.select(left):
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
    finally:
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    sample = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
              "peak_rss_mb": ru.ru_maxrss / 1024.0, "setup_s": None,
              "status": proc.returncode, "child": None}
    if killed:
        sample["error"] = "killed at the run time limit"
        return sample
    try:
        child = json.loads(b"".join(chunks).decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        sample["error"] = "child printed no result"
        return sample
    sample["setup_s"] = child["imported"] - t0
    sample["child"] = child
    return sample


# -- output gate -------------------------------------------------------------

def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    text = path.read_text()
    return text if workload.startswith("analyze_") else json.loads(text)


def gate(workload: str, seed: int, sample: dict, reference) -> str | None:
    """None when the iteration's output is correct, else the reason."""
    if sample.get("error"):
        return sample["error"]
    child = sample["child"]
    if sample["status"] != 0:
        return f"child exit status {sample['status']}"
    if child["error"]:
        return child["error"].strip().splitlines()[-1]
    if child["exit_code"] != 0:
        return f"exit code {child['exit_code']}"
    out = child["output"]
    if workload.startswith("analyze_"):
        report = json.loads(out)
        if report.get("theorem_check", {}).get("pass") is not True:
            return "theorem_check.pass is not true"
        bad = [c for c in report["caveats"] if c.startswith("check_failed:")]
        if bad:
            return f"caveats {bad}"
        expected, n = SEED_LINE.subn(f'  "seed": {seed},', reference)
        if n != 1 or out != expected:
            return "report differs from the reference"
        return None
    if out["rejected_dims"] != reference["rejected_dims"]:
        return (f"rejected summand dims {out['rejected_dims']}, expected "
                f"{reference['rejected_dims']}")
    if any(any(v) for row in out["verdicts"] for v in row):
        return "a rejected summand passed an endo-triviality test"
    if [len(r) for r in out["verdicts"]] != [len(r) for r in
                                             out["rejected_dims"]]:
        return "verdict count differs from the summand count"
    if not (out["records_agree"] and out["checks_pass"]):
        return "compute_K consistency checks failed"
    return None


# -- statistics and metadata -------------------------------------------------

def summarize(values: list[float], unit: str) -> dict:
    """Median with the sample count, plus the highest percentile that has
    at least ten samples beyond it."""
    row = {"value": statistics.median(values), "unit": unit,
           "samples": len(values)}
    for p in PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            row[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return row


def git_commit() -> str | None:
    """HEAD of the checkout's own git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_metadata(args, libs: dict | None) -> dict:
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
    }
    meta.update(libs or {"python": sys.version.split()[0]})
    return meta


# -- one run -----------------------------------------------------------------

def closed_loop(workload: str, seed: int, seconds: float, deadline: float,
                reference) -> list[dict]:
    """Untraced iterations, one at a time: at least MIN_ITERATIONS, more
    while the next is expected to end within ``seconds``."""
    samples = []
    start = time.monotonic()
    while True:
        s = spawn(workload, seed, False, deadline)
        s["failure"] = gate(workload, seed, s, reference)
        samples.append(s)
        now = time.monotonic()
        longest = max(x["wall_s"] for x in samples)
        if now + longest > deadline or (len(samples) >= MIN_ITERATIONS
                                        and now - start + longest > seconds):
            return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="result file to merge this workload's row into")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "endotriv" / "cli.py").is_file():
        print(f"error: no endotriv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference(args.workload)
    deadline = time.monotonic() + RUN_LIMIT_S

    probes = [spawn("meta", 0, False, deadline)]
    if not args.trace:
        probes += [spawn("setup", 0, False, deadline)
                   for _ in range(SETUP_PROBES - 1)]
    libs = probes[0]["child"]["output"] if probes[0]["child"] else None

    samples = closed_loop(args.workload, args.seed, args.seconds, deadline,
                          reference)
    traced = None
    if args.trace:
        traced = spawn(args.workload, args.seed, True, deadline)
        traced["failure"] = gate(args.workload, args.seed, traced, reference)

    iterations = samples + ([traced] if traced else [])
    failures = [s["failure"] for s in iterations if s["failure"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    setups = [s["setup_s"] for s in probes + samples if s["setup_s"] is not None]
    if not setups:
        print(f"error: no child finished importing endotriv: {failures[0]}",
              file=sys.stderr)
        return 1
    end_to_end = {name: summarize([s[name] for s in samples], units[name])
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    end_to_end["setup_s"] = summarize(setups, units["setup_s"])

    per_layer = None
    if traced:
        counters = {}
        if traced["child"] and traced["child"]["trace"]:
            counters = traced["child"]["trace"]["counters"]
        counters["trace.overhead_s"] = (traced["wall_s"]
                                        - end_to_end["wall_s"]["value"])
        per_layer = {m["name"]: {"value": counters.get(m["name"], 0),
                                 "unit": m["unit"]}
                     for m in spec["per_layer"]}

    attempted = len(iterations)
    row = {
        "meta": run_metadata(args, libs),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": [{k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                       "setup_s")} for s in samples],
        "setup_samples": setups,
    }
    if traced and traced["child"] and traced["child"]["trace"]:
        row["trace_missing"] = traced["child"]["trace"]["missing"]

    for name, m in end_to_end.items():
        print(f"{args.workload:16s} {name:12s} {m['value']:12.4f} "
              f"{m['unit']:4s} (median of {m['samples']})")
    print(f"{args.workload:16s} fail_ratio   {row['fail_ratio']:12.4f}      "
          f"({len(failures)} of {attempted})")
    for reason in failures:
        print(f"{args.workload:16s} FAILED: {reason}")
    if args.out:
        write_row(args.out, args.workload, row)

    if args.trace:
        metrics = per_layer
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def write_row(path: Path, workload: str, row: dict) -> None:
    data = {"format": 1, "rows": {}}
    if path.is_file():
        data = json.loads(path.read_text())
    data["rows"][workload] = row
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
