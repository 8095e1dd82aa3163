"""Compare two benchmark result files layer by layer.

Usage: python3 bench/diff.py PARENT.json CHANGE.json

Result files come from ``bench/run.py --out``, one row per workload.  For
every workload in either file this prints the run metadata that differs,
then each end-to-end metric and each per-layer metric, parent value against
change value.  Flags:

  WORSE / better   end-to-end metric moved by more than its BENCHMARK.json
                   bound, in the metric's ``better`` direction
  slower / faster  per-layer time moved by more than the wall_s bound
  DIFF             per-layer count differs at all (counts are exact)

Exits 1 when any end-to-end metric is flagged WORSE or a workload has
failed iterations, else 0.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_UNITS = ("s", "ms")
MIN_TIME_S = 1e-3     # per-layer times below this on both sides are not flagged


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())["rows"]


def rel(base: float, new: float) -> float | None:
    return None if base == 0 else (new - base) / abs(base)


def flag_end_to_end(spec: dict, base: float, new: float) -> str:
    r = rel(base, new)
    if r is None:
        return "" if new == base else "DIFF"
    worse = r if spec["better"] == "lower" else -r
    if worse > spec["bound"]:
        return "WORSE"
    if worse < -spec["bound"]:
        return "better"
    return ""


def flag_layer(unit: str, base: float, new: float, bound: float) -> str:
    if unit not in TIME_UNITS:
        return "" if base == new else "DIFF"
    if max(abs(base), abs(new)) < MIN_TIME_S:
        return ""
    r = rel(base, new)
    if r is None or r > bound:
        return "slower"
    if r < -bound:
        return "faster"
    return ""


def fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4f}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def compare(parent: dict, change: dict, spec: dict, out) -> bool:
    """Print the comparison; return True when nothing regressed."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    wall_bound = e2e["wall_s"]["bound"]
    ok = True
    for wl in sorted(set(parent) | set(change)):
        a, b = parent.get(wl), change.get(wl)
        out.write(f"== {wl}\n")
        if a is None or b is None:
            out.write(f"   only in {'change' if a is None else 'parent'}\n")
            continue
        for k in sorted(set(a["meta"]) | set(b["meta"])):
            if a["meta"].get(k) != b["meta"].get(k):
                out.write(f"   meta {k}: {a['meta'].get(k)} -> "
                          f"{b['meta'].get(k)}\n")
        rows = [("fail_ratio", a["fail_ratio"], b["fail_ratio"],
                 "" if b["fail_ratio"] == 0 else "FAILED")]
        ok &= b["fail_ratio"] == 0
        for name, m in e2e.items():
            va = a["end_to_end"].get(name, {}).get("value")
            vb = b["end_to_end"].get(name, {}).get("value")
            flag = "" if va is None or vb is None else \
                flag_end_to_end(m, va, vb)
            ok &= flag != "WORSE"
            rows.append((name, va, vb, flag))
        la, lb = a.get("per_layer") or {}, b.get("per_layer") or {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in la or name not in lb:
                continue
            va, vb = la[name]["value"], lb[name]["value"]
            rows.append((name, va, vb,
                         flag_layer(m["unit"], va, vb, wall_bound)))
        for name, va, vb, flag in rows:
            r = None if va is None or vb is None else rel(va, vb)
            pct = "" if r is None else f"{100 * r:+.1f}%"
            out.write(f"   {name:42s} {fmt(va):>14s} {fmt(vb):>14s} "
                      f"{pct:>8s}  {flag}\n")
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 0 if compare(load(argv[0]), load(argv[1]), spec, sys.stdout) else 1


if __name__ == "__main__":
    sys.exit(main())
