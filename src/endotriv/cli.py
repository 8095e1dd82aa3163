"""Command line front end: catalog listing, analysis runs, report emission.

Exit codes: 0 success, 2 consistency-check discrepancy, 1 error.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .catalog import build_group, entries
from .etk import (TENSOR_LITERAL_CAP, KReport, compute_K,
                  minimal_field_degree, tensor_power_class, theorem_check)
from .ffla import field_make
from .modrep import subgroup_table
from .split import NeedSplittingField

SCHEMA = 1
MAX_FIELD_RETRIES = 3


def choose_field_degree(table, p: int) -> int:
    """Smallest degree whose field carries all character values: the
    p'-abelianization orders of both the group and the Sylow normalizer."""
    orders = set(table.abelianization_pprime(p).orders)
    P = table.sylow(p)
    nt = subgroup_table(table, table.normalizer(P))
    orders |= set(nt.abelianization_pprime(p).orders)
    return minimal_field_degree(p, sorted(orders) or [1])


def report_dict(res: KReport, group_name: str, seed: int,
                caveats: list[str]) -> dict:
    return {
        "schema": SCHEMA,
        "group": group_name,
        "prime": res.p,
        "field": {"p": res.field_p, "e": res.field_e},
        "sylow": {"order": res.sylow_order, "type": res.sylow_type},
        "normalizer_order": res.normalizer_order,
        "xn_structure": list(res.xn_orders),
        "lambdas": [
            {"order": r.order,
             "dim_correspondent": r.dim,
             "brauer_vector": list(r.brauer_vector),
             "endotrivial": r.endotrivial,
             "simple": r.simple,
             "factors": list(r.factors)}
            for r in res.records],
        "k_invariant_factors": list(res.k_invariants),
        "x_image_invariant_factors": list(res.x_image_invariants),
        "tt_over_x": list(res.tt_over_x),
        "caveats": caveats,
        "seed": seed,
    }


def run(group: str, prime: int = 2, field_degree: Optional[int] = None,
        seed: int = 0, tensor_power: Optional[int] = None,
        tensor_budget: int = TENSOR_LITERAL_CAP,
        check_theorem: bool = False) -> tuple[dict, int]:
    """Full analysis; returns the report and the process exit code."""
    p = prime
    # field_make rejects a non-prime p and a degree below 1; checked before
    # the group is built, where a non-prime p would stall the Sylow search
    field_make(p, 1 if field_degree is None else field_degree)
    table, entry = build_group(group)
    if table.order % p != 0:
        raise ValueError(f"prime {p} does not divide the group order "
                         f"{table.order}")
    e = field_degree or choose_field_degree(table, p)
    res = None
    for attempt in range(MAX_FIELD_RETRIES + 1):
        try:
            res = compute_K(table, p, field_make(p, e), seed=seed)
            break
        except NeedSplittingField:
            if attempt == MAX_FIELD_RETRIES:
                raise
            e *= 2
    caveats = []
    if not res.theorem_applies:
        caveats.append("K_only")
    failed_checks = [k for k, v in res.checks.items() if not v]
    for name in failed_checks:
        caveats.append(f"check_failed:{name}")

    name = entry.name if entry else group
    report = report_dict(res, name, seed, caveats)
    code = 1 if failed_checks else 0

    if check_theorem:
        if entry is not None and entry.expectation is not None:
            bad = theorem_check(res, entry.expectation)
            report["theorem_check"] = {
                "expectation_available": True,
                "discrepancies": bad,
                "pass": not bad,
            }
            if bad and code == 0:
                code = 2
        else:
            report["theorem_check"] = {
                "expectation_available": False,
                "discrepancies": [],
                "pass": None,
            }

    if tensor_power is not None:
        section = []
        for r in res.records:
            if not r.endotrivial:
                continue
            section.append(tensor_power_class(
                res, r.exps, tensor_power, budget=tensor_budget))
        report["tensor_power"] = section
    return report, code


def _format_text(report: dict) -> str:
    lines = []
    lines.append(f"group {report['group']}  prime {report['prime']}  "
                 f"field GF({report['field']['p']}^{report['field']['e']})")
    lines.append(f"sylow order {report['sylow']['order']} "
                 f"({report['sylow']['type']}), normalizer order "
                 f"{report['normalizer_order']}, X(N) {report['xn_structure']}")
    for lam in report["lambdas"]:
        mark = "ET" if lam["endotrivial"] else "--"
        lines.append(f"  order {lam['order']:3d}  dim "
                     f"{lam['dim_correspondent']:4d}  {mark}  brauer "
                     f"{lam['brauer_vector']}  factors {lam['factors']}")
    lines.append(f"K invariant factors: {report['k_invariant_factors']}")
    lines.append(f"X(G) image invariant factors: "
                 f"{report['x_image_invariant_factors']}")
    lines.append(f"torsion over X(G) image: {report['tt_over_x']}")
    if report["caveats"]:
        lines.append(f"caveats: {report['caveats']}")
    if "theorem_check" in report:
        tc = report["theorem_check"]
        if tc["pass"] is None:
            lines.append("consistency check: no expectation record")
        elif tc["pass"]:
            lines.append("consistency check: pass")
        else:
            lines.append("consistency check: FAIL")
            for d in tc["discrepancies"]:
                lines.append(f"  {d}")
    if "tensor_power" in report:
        for tp in report["tensor_power"]:
            lines.append(f"  power {tp['power']} of {tp['exps']}: "
                         f"{tp['predicted_exps']} ({tp['verdict']}, "
                         f"in X(G) image: {tp['in_x_image']})")
    return "\n".join(lines)


def emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        stream.write(_format_text(report) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="endotriv",
        description="classify trivial-source endo-trivial module classes")
    sub = ap.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="list builtin groups")
    lp.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("analyze", help="analyze one group")
    p.add_argument("--group", required=True,
                   help="builtin name (optionally builtin: prefixed) or a "
                        "generator file path")
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--field-degree", type=int, default=None,
                   help="override the automatic field degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-power", type=int, default=None,
                   help="also identify this tensor power of every "
                        "endo-trivial correspondent")
    p.add_argument("--tensor-budget", type=int, default=TENSOR_LITERAL_CAP,
                   help="largest literal tensor power dimension to verify")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--check-theorem", action="store_true",
                   help="compare against the builtin expectation record")

    args = ap.parse_args(argv)

    if args.command == "list":
        rows = [{"name": e.name, "order": e.order, "summary": e.summary}
                for e in entries()]
        if args.format == "json":
            json.dump(rows, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for r in rows:
                print(f"{r['name']:12s} order {r['order']:5d}  {r['summary']}")
        return 0

    try:
        report, code = run(
            args.group, prime=args.prime, field_degree=args.field_degree,
            seed=args.seed, tensor_power=args.tensor_power,
            tensor_budget=args.tensor_budget, check_theorem=args.check_theorem)
    except Exception as exc:  # surface anything as exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(report, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
