"""Command line front end tests: schema shape, exit codes, determinism."""
import contextlib
import dataclasses
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from endotriv import catalog, cli, ffla
from endotriv.grp import (MAX_MAT_DIM, MAX_PERM_DEGREE, GroupTable, PermOps,
                          parse_group_file, serialize_group_file)
from endotriv.modrep import ModuleRep


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_text(capsys):
    code, out, err = run_main(capsys, "list")
    assert code == 0
    for name in ("A5", "3A6", "PSL(2,7)", "C9*3A6"):
        assert name in out


def test_list_json(capsys):
    code, out, err = run_main(capsys, "list", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    byname = {r["name"]: r for r in rows}
    assert byname["A5"]["order"] == 60
    assert byname["3A7"]["order"] == 7560
    assert set(rows[0]) == {"name", "order", "summary"}


TOP_KEYS = {"schema", "group", "prime", "field", "sylow", "normalizer_order",
            "xn_structure", "lambdas", "k_invariant_factors",
            "x_image_invariant_factors", "tt_over_x", "caveats", "seed"}


def test_analyze_a5_json_schema(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A5")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == TOP_KEYS
    assert rep["schema"] == 1
    assert rep["group"] == "A5"
    assert rep["prime"] == 2
    assert rep["field"] == {"p": 2, "e": 2}
    assert rep["sylow"] == {"order": 4, "type": "klein_four"}
    assert rep["normalizer_order"] == 12
    assert rep["xn_structure"] == [3]
    assert rep["k_invariant_factors"] == [3]
    assert rep["x_image_invariant_factors"] == []
    assert rep["tt_over_x"] == [3]
    assert rep["caveats"] == []
    assert rep["seed"] == 0
    assert len(rep["lambdas"]) == 3
    for lam in rep["lambdas"]:
        assert set(lam) == {"order", "dim_correspondent", "brauer_vector",
                            "endotrivial", "simple", "factors"}
        assert lam["endotrivial"] is True
    assert sorted(l["dim_correspondent"] for l in rep["lambdas"]) == [1, 5, 5]


def test_reports_identical_across_seeds(capsys):
    code0, out0, _ = run_main(capsys, "analyze", "--group", "A5",
                              "--seed", "0")
    code1, out1, _ = run_main(capsys, "analyze", "--group", "A5",
                              "--seed", "31337")
    assert code0 == code1 == 0
    assert out0.replace('"seed": 0', '"seed": 31337') == out1


def test_report_identical_under_python_O(src_env):
    """``python -O`` strips asserts: the report must not depend on them."""
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "endotriv.cli", "analyze",
             "--group", "A5", "--seed", "5"],
            capture_output=True, env=src_env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert json.loads(outs[0])["group"] == "A5"
    assert outs[0] == outs[1]


LYING_CHOP = """
import random
from endotriv import split
from endotriv.ffla import FMatrix, field_make

f = field_make(2, 1)
real = split.is_irreducible
lied = []


def lying(f, mats, rng):
    # the first call offers the line through (1, 0), which the swap moves
    if not lied:
        lied.append(True)
        return False, FMatrix(f, [[1, 0]])
    return real(f, mats, rng)


split.is_irreducible = lying
try:
    split.chop(f, [FMatrix(f, [[0, 1], [1, 0]])], random.Random(0))
except RuntimeError as exc:
    print(__debug__, exc)
else:
    print(__debug__, "returned factors")
"""


def test_corrupted_chop_fails_under_python_O(src_env):
    """An invariant check must not be an assert: chop fed a subspace that is
    not invariant still raises with asserts stripped."""
    proc = subprocess.run([sys.executable, "-O", "-c", LYING_CHOP],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "False invariant subspace not respected\n"


NOT_A_SUBGROUP = """
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import InducedContext

G = GroupTable(PermOps(4), [(1, 2, 3, 0), (1, 0, 2, 3)])
# the identity and a 3-cycle: two indices generating a subgroup of order 3
three = next(i for i in range(G.order) if G.order_of(i) == 3)
try:
    InducedContext(G, [0, three])
except RuntimeError as exc:
    print(__debug__, exc)
else:
    print(__debug__, "built a context")
"""


def test_induced_context_checks_subgroup_under_python_O(src_env):
    """The subgroup-order invariant is not an assert: it still fires with
    asserts stripped."""
    proc = subprocess.run([sys.executable, "-O", "-c", NOT_A_SUBGROUP],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == \
        "False the 2 indices generate a subgroup of order 3\n"


COLLIDING_CATALOG = """
from endotriv import catalog

try:
    catalog._index(catalog.entries() + catalog.entries()[:1])
except RuntimeError as exc:
    print(__debug__, exc)
else:
    print(__debug__, "indexed")
"""


def test_catalog_name_collision_under_python_O(src_env):
    """Two catalog names with one canonical form raise, asserts stripped."""
    proc = subprocess.run([sys.executable, "-O", "-c", COLLIDING_CATALOG],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "False catalog names 'A4' and 'A4' collide\n"


def test_analyze_text_format(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A4",
                              "--format", "text", "--check-theorem")
    assert code == 0
    assert "K invariant factors: [3]" in out
    assert "consistency check: pass" in out


def test_check_theorem_json(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A4",
                              "--check-theorem")
    assert code == 0
    rep = json.loads(out)
    tc = rep["theorem_check"]
    assert tc["expectation_available"] is True
    assert tc["pass"] is True
    assert tc["discrepancies"] == []


def test_check_theorem_discrepancy_exit_2(capsys, monkeypatch):
    real = catalog.build_group

    def doctored(source):
        table, entry = real(source)
        entry = dataclasses.replace(entry,
                                    expectation={"k_invariants": (9, 9)})
        return table, entry

    monkeypatch.setattr(cli, "build_group", doctored)
    code, out, err = run_main(capsys, "analyze", "--group", "A4",
                              "--check-theorem")
    assert code == 2
    rep = json.loads(out)
    assert rep["theorem_check"]["pass"] is False
    assert any("k_invariants" in d
               for d in rep["theorem_check"]["discrepancies"])


def test_check_theorem_without_expectation(capsys, tmp_path):
    G = GroupTable(PermOps(4), [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])
    path = tmp_path / "s4.grp"
    path.write_text(serialize_group_file(G.ops, G.gens))
    code, out, err = run_main(capsys, "analyze", "--group", str(path),
                              "--check-theorem")
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem_check"] == {"expectation_available": False,
                                    "discrepancies": [], "pass": None}
    assert rep["sylow"] == {"order": 8, "type": "dihedral"}
    assert rep["k_invariant_factors"] == []


def test_unknown_group_exit_1(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "M11")
    assert code == 1
    assert "error" in err


def test_prime_not_dividing_order_exit_1(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A5",
                              "--prime", "7")
    assert code == 1
    assert "divide" in err


HOSTILE_FIELD_ARGS = [
    (["--prime", "1"], "p = 1 is not prime"),
    (["--prime", "0"], "p = 0 is not prime"),
    (["--prime", "4"], "p = 4 is not prime"),
    (["--field-degree", "0"], "extension degree must be >= 1"),
    (["--prime", "2305843009213693951"], "exceeds"),
    (["--field-degree", "1000000000"], "exceeds"),
]


@pytest.mark.parametrize("argv,msg", HOSTILE_FIELD_ARGS,
                         ids=["=".join(a).lstrip("-") for a, _ in HOSTILE_FIELD_ARGS])
def test_hostile_field_arguments_exit_1(capsys, monkeypatch, argv, msg):
    """A bad p or field degree exits 1 with one line before any group is
    built."""
    built = []

    def spy(source):
        built.append(source)
        raise RuntimeError("group built before the field arguments were checked")

    monkeypatch.setattr(cli, "build_group", spy)
    code, out, err = run_main(capsys, "analyze", "--group", "A5", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and msg in err
    assert built == []


def test_prime_one_exits_in_subprocess(src_env):
    """--prime 1 once looped forever in the Sylow search; the subprocess
    timeout turns a hang into a failure."""
    proc = subprocess.run(
        [sys.executable, "-m", "endotriv.cli", "analyze", "--group", "A5",
         "--prime", "1"], capture_output=True, env=src_env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: p = 1 is not prime\n"


ONLY_NUMPY = """
import contextlib, io, sys
from endotriv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", "--group", "A4"])
print(code, sorted(m for m in sys.modules
                   if m.partition(".")[0] in ("scipy", "sympy")))
"""


def test_analysis_imports_neither_scipy_nor_sympy(src_env):
    """numpy is the only runtime dependency: a whole analysis leaves no
    scipy or sympy module loaded, though both may be installed."""
    proc = subprocess.run([sys.executable, "-c", ONLY_NUMPY],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "0 []\n"


@pytest.mark.parametrize("text,argv,msg", [
    ("perm 3\n(1 2)(1 3)\n", ["--prime", "3"],
     "error: cycle line is not a permutation: '(1 2)(1 3)'\n"),
    ("mat 2 1 2\n1 0 0 0\n", [],
     "error: singular matrix generator: '1 0 0 0'\n"),
], ids=["overlapping_cycles", "singular_matrix"])
def test_non_invertible_generator_exits_in_subprocess(tmp_path, src_env, text,
                                                      argv, msg):
    """Both files once hung (an element whose powers never reach the
    identity); the subprocess timeout turns a hang into a failure."""
    path = tmp_path / "bad.grp"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "endotriv.cli", "analyze", "--group", str(path),
         *argv], capture_output=True, env=src_env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == msg


# -- group-file fuzz: small texts only, never a huge degree ------------------

def _cycle_lines(degree):
    point = st.integers(-1, degree + 1).map(str)
    cycle = st.lists(point, max_size=4).map(lambda ps: "(" + " ".join(ps) + ")")
    chunk = st.one_of(cycle, st.sampled_from(["(", ")", "()", ",", " ", "x"]))
    return st.lists(st.lists(chunk, max_size=4).map("".join), max_size=3)


def _matrix_lines(dim):
    n = max(dim, 0) ** 2
    token = st.integers(-2, 5).map(str)
    row = st.lists(token, min_size=max(n - 1, 0), max_size=n + 1).map(" ".join)
    return st.lists(row, max_size=3)


PERM_TEXTS = st.integers(-1, 12).flatmap(
    lambda d: _cycle_lines(max(d, 1)).map(
        lambda lines: "\n".join([f"perm {d}", *lines])))
# GF(2) and GF(4), dimension at most 3, plus a few bad headers
MAT_TEXTS = st.tuples(
    st.sampled_from(["2 1", "2 2", "4 1", "2 0", "x 1"]), st.integers(-1, 3)
).flatmap(lambda h: _matrix_lines(h[1]).map(
    lambda lines: "\n".join([f"mat {h[0]} {h[1]}", *lines])))
SOUP_TEXTS = st.lists(st.sampled_from(
    ["perm", "mat", "perm 3", "mat 2 2 2", "(", ")", "()", "(1 2)", "0", "1",
     "2", "3", "-1", "7", ",", "#", " ", "\n", "x"]), max_size=12).map("".join)
GROUP_TEXTS = st.one_of(PERM_TEXTS, MAT_TEXTS, SOUP_TEXTS)


@given(GROUP_TEXTS)
@settings(max_examples=300, deadline=1000)
def test_group_file_parses_or_raises_value_error(text):
    try:
        parse_group_file(text)
    except ValueError:
        pass


@given(GROUP_TEXTS)
@settings(max_examples=100, deadline=1000)
def test_unparsable_group_file_exits_1_with_one_line(text):
    try:
        parse_group_file(text)
    except ValueError:
        pass
    else:
        assume(False)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.grp"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", "--group", str(path)])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("text,msg", [
    ("mat 2 1 -2\n1 0 0 1\n", "matrix dimension must be positive"),
    ("mat 2 2 1\n-1\n", "negative entry token in '-1'"),
])
def test_bad_matrix_files_raise(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_group_file(text)


def test_odd_prime_k_only_caveat(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A4",
                              "--prime", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["sylow"]["type"] == "p3_group"
    assert "K_only" in rep["caveats"]


def test_field_degree_override(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A5",
                              "--field-degree", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["field"] == {"p": 2, "e": 4}
    assert rep["k_invariant_factors"] == [3]


def test_tensor_power_section(capsys):
    code, out, err = run_main(capsys, "analyze", "--group", "A4",
                              "--tensor-power", "3")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["tensor_power"]) == 3
    for tp in rep["tensor_power"]:
        assert tp["power"] == 3
        assert tp["predicted_exps"] == [0]
        assert tp["verdict"] == "one_dimensional_plus_projective"


def test_group_file_roundtrip(capsys, tmp_path):
    G = GroupTable(PermOps(5),
                   [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    path = tmp_path / "a5.grp"
    path.write_text(serialize_group_file(G.ops, G.gens))
    code, out, err = run_main(capsys, "analyze", "--group", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["k_invariant_factors"] == [3]
    assert rep["group"] == str(path)


def test_catalog_lookup_aliases():
    for key in ("A5", "a5", "builtin:A5"):
        assert catalog.lookup(key).name == "A5"
    for key in ("PSL(2,7)", "psl27", "PSL2_7"):
        assert catalog.lookup(key).name == "PSL(2,7)"
    assert catalog.lookup("C2xC2").name == "C2xC2"
    assert catalog.lookup("klein").name == "C2xC2"
    assert catalog.lookup("3.A6").name == "3A6"
    assert catalog.lookup("C9*3A6").name == "C9*3A6"
    with pytest.raises(KeyError):
        catalog.lookup("nope")


def test_catalog_validation_small_entries():
    for name in ("A4", "A5", "S4", "D8", "D16", "C2xC2", "PSL(2,3)"):
        entry = catalog.lookup(name)
        table = entry.builder()
        catalog.validate_entry(entry, table)
        assert table.order == entry.order


# -- hostile tensor powers, permutation degrees and argument fuzz --------------

@pytest.mark.parametrize("group", ["A4", "A5"])
def test_huge_tensor_power_exits_in_subprocess(src_env, group):
    """--tensor-power 10^9 once spent minutes on the big integer dim^m and on
    m - 1 Kronecker steps of the 1-dimensional correspondents; the
    subprocess timeout turns a hang into a failure."""
    proc = subprocess.run(
        [sys.executable, "-m", "endotriv.cli", "analyze", "--group", group,
         "--tensor-power", "1000000000"], capture_output=True, env=src_env,
        timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    rep = json.loads(proc.stdout)
    for tp in rep["tensor_power"]:
        assert tp["power"] == 1000000000
        assert tp["verdict"] == "one_dimensional_plus_projective"


def test_tensor_power_by_squaring_matches_repeated_kron():
    """The factored m-th power module against m - 1 literal Kronecker
    steps: its generator matrices, and the matrix of every element against
    the chain product of those literal generator matrices."""
    res = cli.compute_K(catalog.build_group("A5")[0], 2, cli.field_make(2, 2))
    for rec in res.records:
        rep = rec.rep
        mats = list(rep.gen_mats)
        cur = list(mats)
        for m in range(2, 5):
            cur = [ffla.kron(a, b) for a, b in zip(cur, mats)]
            got = rep.tensor_power(m)
            assert [g.a.tolist() for g in got.gen_mats] == [c.a.tolist() for c in cur]
            literal = ModuleRep(rep.table, rep.field, cur)
            for i in range(rep.table.order):
                assert np.array_equal(got.at(i).a, literal.at(i).a)


@pytest.mark.parametrize("degree", [MAX_PERM_DEGREE + 1, 10 ** 18])
def test_oversized_perm_degree_exits_1(tmp_path, src_env, degree):
    path = tmp_path / "big.grp"
    path.write_text(f"perm {degree}\n(1 2)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "endotriv.cli", "analyze", "--group", str(path)],
        capture_output=True, env=src_env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == (f"error: permutation degree {degree} "
                                    f"exceeds the limit {MAX_PERM_DEGREE}\n")


@pytest.mark.parametrize("dim", [MAX_MAT_DIM + 1, 10 ** 18])
def test_oversized_mat_dim_exits_1(tmp_path, src_env, dim):
    path = tmp_path / "big.grp"
    path.write_text(f"mat 2 1 {dim}\n1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "endotriv.cli", "analyze", "--group", str(path)],
        capture_output=True, env=src_env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == (f"error: matrix dimension {dim} "
                                    f"exceeds the limit {MAX_MAT_DIM}\n")


@given(prime=st.one_of(st.none(), st.sampled_from([2, 3]), st.integers(-3, 40)),
       degree=st.one_of(st.none(), st.integers(-2, 24)),
       seed=st.one_of(st.none(), st.integers(-2 ** 70, 2 ** 70)),
       power=st.one_of(st.none(), st.integers(-5, 10 ** 12)),
       budget=st.one_of(st.none(), st.integers(-10, 1200)),
       fmt=st.sampled_from([None, "json", "text"]))
@settings(max_examples=60, deadline=None)
def test_analyze_argument_fuzz(prime, degree, seed, power, budget, fmt):
    argv = ["analyze", "--group", "A4"]
    for flag, value in (("--prime", prime), ("--field-degree", degree),
                        ("--seed", seed), ("--tensor-power", power),
                        ("--tensor-budget", budget), ("--format", fmt)):
        if value is not None:
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def _a4_analyze(prime, seed, power):
    argv = ["analyze", "--group", "A4", "--prime", str(prime),
            "--seed", str(seed)]
    if power is not None:
        argv += ["--tensor-power", str(power)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    report = json.loads(out.getvalue())
    report.pop("seed")
    return report


@pytest.fixture(scope="module")
def a4_seed0_reports():
    """Seed-0 A4 reports by (prime, tensor power), filled on first use."""
    return {}


@given(prime=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 64),
       power=st.one_of(st.none(), st.integers(-2, 6)))
@settings(max_examples=30, deadline=None)
def test_a4_brauer_quotients_fuzz(a4_seed0_reports, prime, seed, power):
    """Every Brauer quotient of an A4 run, tensor powers included, is taken
    at a p-subgroup: the run exits 0 and, apart from its seed, reports what
    seed 0 reports."""
    key = (prime, power)
    if key not in a4_seed0_reports:
        a4_seed0_reports[key] = _a4_analyze(prime, 0, power)
    assert _a4_analyze(prime, seed, power) == a4_seed0_reports[key]


NUMPY_MA = """
import contextlib, io, sys
from endotriv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", "--group", "A5"])
print(code, "numpy.ma" in sys.modules)
"""


def test_a5_run_does_not_import_numpy_ma(src_env):
    """numpy.ma costs about 1.6 MiB of resident memory when imported."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.stdout.decode() == "0 False\n", proc.stderr.decode()
