"""Check that two source trees give byte-identical ``endotriv analyze``
reports.

    python3 scripts/compare_reports.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository, run with its ``src`` first on
PYTHONPATH.  Every catalog group that NEW_TREE lists is analyzed at p = 2
with ``--check-theorem`` at seeds 0, 1 and 2, and at seed 0 with
``--tensor-power 2`` and ``--tensor-power 3``.  The groups of ODD_PRIMES
are analyzed at their odd primes at seeds 0 and 1, and at seed 0 with both
tensor powers, without ``--check-theorem``, whose expectations are p = 2
facts.  Each run is made once per tree, one process at a time.  The
report, the error output and the exit code of each run must agree.  At the
first difference the script prints the group, the arguments and the first
differing line of each tree, and exits 1; when every run agrees it prints
the number of runs and exits 0.

Every run is timed from spawn to exit.  When all runs agree the script ends
with one row per catalog group (and odd prime): the runs it made and their
total seconds on each tree, the wall time of ``endotriv analyze`` per group.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (0, 1, 2)
TENSOR_POWERS = (2, 3)
ODD_PRIMES = (("A4", 3), ("A5", 3), ("A6", 3), ("PSL(2,11)", 3), ("3A6", 3),
              ("A5", 5), ("PSL(2,11)", 5), ("PSL(2,7)", 7))
ODD_SEEDS = (0, 1)


def endotriv(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``endotriv ARGS`` with the tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "endotriv.cli", *args],
                          capture_output=True, text=True, env=env, check=False)


def timed(tree: Path, args: list[str]
          ) -> tuple[subprocess.CompletedProcess, float]:
    """``endotriv(tree, args)`` and its wall time in seconds."""
    start = time.perf_counter()
    proc = endotriv(tree, args)
    return proc, time.perf_counter() - start


def group_key(args: list[str]) -> str:
    """The table row of a run: its group, and its prime unless p = 2."""
    key = args[2]
    if "--prime" in args:
        key += f" p={args[args.index('--prime') + 1]}"
    return key


def time_table(seconds: dict[str, list]) -> str:
    """One row per group: runs, total old and new seconds, new/old."""
    width = max(len("group"), *map(len, seconds))
    rows = list(seconds.items())
    rows.append(("all", [sum(col) for col in zip(*seconds.values())]))
    lines = [f"{'group':<{width}}  runs   old s   new s  new/old"]
    for key, (runs, old, new) in rows:
        lines.append(f"{key:<{width}}  {runs:4d}  {old:6.2f}  {new:6.2f}"
                     f"  {new / old:7.2f}")
    return "\n".join(lines)


def cases(groups: list[str]) -> list[list[str]]:
    out = []
    for group in groups:
        base = ["analyze", "--group", group, "--check-theorem"]
        out += [base + ["--seed", str(s)] for s in SEEDS]
        out += [base + ["--seed", "0", "--tensor-power", str(m)]
                for m in TENSOR_POWERS]
    for group, p in ODD_PRIMES:
        base = ["analyze", "--group", group, "--prime", str(p)]
        out += [base + ["--seed", str(s)] for s in ODD_SEEDS]
        out += [base + ["--seed", "0", "--tensor-power", str(m)]
                for m in TENSOR_POWERS]
    return out


def first_difference(old: subprocess.CompletedProcess,
                     new: subprocess.CompletedProcess) -> str:
    """Empty when the runs agree, else where they first differ."""
    for name in ("stdout", "stderr"):
        a = getattr(old, name).splitlines()
        b = getattr(new, name).splitlines()
        for k in range(max(len(a), len(b))):
            la = a[k] if k < len(a) else "<end of output>"
            lb = b[k] if k < len(b) else "<end of output>"
            if la != lb:
                return f"{name} line {k + 1}:\n  old: {la}\n  new: {lb}"
    if old.returncode != new.returncode:
        return f"exit code: old {old.returncode}, new {new.returncode}"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(a).resolve() for a in argv)
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "endotriv" / "cli.py").is_file():
            print(f"error: {tree} has no src/endotriv/cli.py", file=sys.stderr)
            return 2
    listed = endotriv(new_tree, ["list", "--format", "json"])
    if listed.returncode != 0:
        print(f"error: endotriv list failed: {listed.stderr.strip()}",
              file=sys.stderr)
        return 2
    groups = [row["name"] for row in json.loads(listed.stdout)]
    runs = cases(groups)
    # group key -> [runs, old seconds, new seconds]
    seconds: dict[str, list] = {}
    for k, args in enumerate(runs, 1):
        old, old_s = timed(old_tree, args)
        new, new_s = timed(new_tree, args)
        diff = first_difference(old, new)
        if diff:
            print(f"DIFFERENT {args[2]}  ({' '.join(args)})\n{diff}")
            return 1
        row = seconds.setdefault(group_key(args), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += old_s
        row[2] += new_s
        print(f"[{k}/{len(runs)}] same  {old_s:6.2f} s {new_s:6.2f} s  "
              f"{' '.join(args)}", flush=True)
    print(f"all {len(runs)} runs identical on {len(groups)} groups")
    print(time_table(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
