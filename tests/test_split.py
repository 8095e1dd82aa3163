"""Decomposition engine tests.

Polynomial arithmetic and factorization round-trip against themselves, the
per-matrix characteristic polynomial against a cofactor-expansion oracle,
the radical against a brute-force nilpotency oracle over enumerated algebra
elements and against a reference built on that characteristic polynomial,
and the induced-module machinery against an alternating group worked end to
end.
"""
import functools
import itertools
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endotriv import split
from endotriv.catalog import build_group
from endotriv.ffla import FMatrix, field_make, gauss, solve_right
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import InducedContext, character_group
from endotriv.split import (HeckeEnd, algebra_radical, charpoly, chop,
                            composition_factor_dims, elem_symmetric_coeff,
                            factor_poly, is_irreducible, padd, pdeg,
                            pdivmod, pgcd, pmod, pmonic, pmul, psub, pxgcd,
                            spin, split_summands, squarefree_parts)
from testkit import module_iso


def perm(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


# -- polynomial toolkit -------------------------------------------------------

def _poly(coeffs):
    return np.array(coeffs, dtype=np.int64)


def test_poly_divmod_roundtrip():
    for p, e in [(2, 1), (2, 2), (5, 1)]:
        f = field_make(p, e)
        q = p ** e
        rng = random.Random(17)
        for _ in range(40):
            # polynomials keep a stripped representation throughout
            a = np.trim_zeros(
                _poly([rng.randrange(q) for _ in range(rng.randrange(1, 7))]),
                "b")
            b = np.trim_zeros(
                _poly([rng.randrange(q) for _ in range(rng.randrange(1, 5))]),
                "b")
            if pdeg(b) < 0:
                continue
            quo, rem = pdivmod(f, a, b)
            back = padd(f, pmul(f, quo, b), rem)
            assert list(back) == list(a)
            assert pdeg(rem) < pdeg(b)


def test_gcd_and_xgcd():
    f = field_make(2, 2)
    a = pmul(f, _poly([1, 1]), _poly([1, 0, 1, 1]))
    b = pmul(f, _poly([1, 1]), _poly([2, 3, 1]))
    g = pgcd(f, a, b)
    assert list(g) == [1, 1]
    g2, u, v = pxgcd(f, a, b)
    assert list(g2) == list(g)
    lhs = padd(f, pmul(f, u, a), pmul(f, v, b))
    assert list(lhs) == list(g)


def test_squarefree_parts_char_p_multiplicities():
    f2 = field_make(2, 1)
    # (t^2+t+1)(t+1)^2: the square slips past the derivative, multiplicity
    # must still come out as 2
    a = pmul(f2, _poly([1, 1, 1]), pmul(f2, _poly([1, 1]), _poly([1, 1])))
    parts = dict((tuple(g), m) for g, m in squarefree_parts(f2, a))
    assert parts == {(1, 1, 1): 1, (1, 1): 2}
    # (t+1)^4
    b = _poly([1, 0, 0, 0, 1])
    parts2 = squarefree_parts(f2, b)
    assert len(parts2) == 1 and list(parts2[0][0]) == [1, 1] \
        and parts2[0][1] == 4


FACTOR_FIELDS = [(2, 1), (2, 2), (2, 3), (5, 1), (5, 2), (3, 2)]


@pytest.mark.parametrize("p,e", FACTOR_FIELDS, ids=lambda v: str(v))
def test_factor_poly_roundtrip(p, e):
    f = field_make(p, e)
    q = p ** e
    rng = random.Random(5)
    for _ in range(25):
        deg = rng.randrange(1, 8)
        coeffs = [rng.randrange(q) for _ in range(deg)] + [1]
        a = _poly(coeffs)
        fac = factor_poly(f, a, random.Random(99))
        prod = _poly([1])
        for g, m in fac:
            assert pdeg(g) >= 1
            # factors are monic irreducible: no root-degree divisor shortcut,
            # just verify multiplicity structure by reassembly
            for _ in range(m):
                prod = pmul(f, prod, g)
        assert list(prod) == list(a)


def test_factor_poly_deterministic_order():
    f = field_make(2, 2)
    a = _poly([2, 1, 3, 0, 1, 1])
    f1 = factor_poly(f, a, random.Random(1))
    f2 = factor_poly(f, a, random.Random(777))
    assert [(list(g), m) for g, m in f1] == [(list(g), m) for g, m in f2]


def test_factor_poly_splits_cyclotomic():
    f = field_make(2, 2)
    # t^3 - 1 over GF(4) splits into three linear factors
    a = _poly([1, 0, 0, 1])
    fac = factor_poly(f, a, random.Random(0))
    assert sorted(pdeg(g) for g, _ in fac) == [1, 1, 1]
    f2 = field_make(2, 1)
    fac2 = factor_poly(f2, a, random.Random(0))
    assert sorted(pdeg(g) for g, _ in fac2) == [1, 2]


# -- characteristic polynomial: the reference behind the radical oracle -------

def _naive_charpoly(f, M):
    n = M.shape[0]
    ent = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            base = _poly([f.neg(int(M[i, j]))])
            if i == j:
                base = padd(f, base, _poly([0, 1]))
            ent[i][j] = base

    def det(rows, cols):
        if len(rows) == 1:
            return ent[rows[0]][cols[0]]
        acc = _poly([])
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(f, ent[rows[0]][c], minor)
            acc = padd(f, acc, term) if k % 2 == 0 else psub(f, acc, term)
        return acc

    return det(tuple(range(n)), tuple(range(n)))


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (5, 1)], ids=lambda v: str(v))
def test_charpoly_against_cofactor_oracle(p, e):
    f = field_make(p, e)
    q = p ** e
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            M = rng.integers(0, q, size=(n, n)).astype(np.int64)
            got = charpoly(f, M)
            want = pmonic(f, _naive_charpoly(f, M))
            assert list(got) == list(want)


def test_charpoly_companion():
    f = field_make(5, 1)
    # companion matrix of t^3 + 2t + 4
    M = np.array([[0, 0, f.neg(4)], [1, 0, f.neg(2)], [0, 1, 0]],
                 dtype=np.int64)
    assert list(charpoly(f, M)) == [4, 2, 0, 1]


def test_elem_symmetric_matches_charpoly():
    for p, e in [(2, 1), (2, 2), (5, 1)]:
        f = field_make(p, e)
        q = p ** e
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            M = rng.integers(0, q, size=(n, n)).astype(np.int64)
            cp = charpoly(f, M)
            for k in range(n + 1):
                # coefficient of t^(n-k) is (-1)^k e_k
                ek = elem_symmetric_coeff(f, M, k)
                want = cp[n - k] if k % 2 == 0 else f.neg(int(cp[n - k]))
                assert ek == want


# -- radical ------------------------------------------------------------------

def group_algebra_reg(f, table):
    n = table.order
    regs = []
    for g in range(n):
        m = np.zeros((n, n), dtype=np.int64)
        for b in range(n):
            m[table.mul(g, b), b] = 1
        regs.append(m)
    return regs


def brute_radical_dim(f, regs):
    """Span dimension of {x : xy nilpotent for all y}, by enumeration."""
    d = len(regs)
    q = f.p ** f.e
    if q ** d > 300:
        return None

    def mat_of(vec):
        acc = np.zeros((d, d), dtype=np.int64)
        for i, c in enumerate(vec):
            if c:
                acc = f.add_vec(acc, f.mul_vec(np.int64(c),
                                               regs[i]).astype(np.int64)
                                ).astype(np.int64)
        return acc

    elems = [mat_of(v) for v in itertools.product(range(q), repeat=d)]

    def nilpotent(m):
        return FMatrix(f, m.astype(f.dtype)).power(d).is_zero()

    members = []
    for vec, mx in zip(itertools.product(range(q), repeat=d), elems):
        if all(nilpotent(f.matmul(mx.astype(f.dtype),
                                  my.astype(f.dtype)).astype(np.int64))
               for my in elems):
            members.append(vec)
    mat = np.array(members, dtype=np.int64)
    if not mat.size:
        return 0
    return gauss(FMatrix(f, mat.astype(f.dtype))).rank


def cyclic(n):
    return GroupTable(PermOps(n), [perm(n, tuple(range(n)))])


def c5xc5():
    return GroupTable(PermOps(10), [perm(10, (0, 1, 2, 3, 4)),
                                    perm(10, (5, 6, 7, 8, 9))])


# groups of RADICAL_CASES named by a marker in place of a cyclic order
RADICAL_GROUPS = {"C5xC5": c5xc5, "D50": lambda: dihedral(50)}

RADICAL_CASES = [
    # field, group order (cyclic) or marker, expected radical dim
    ((2, 1), 2, 1),
    ((2, 1), 4, 3),
    ((2, 2), 2, 1),
    ((2, 2), 3, 0),
    ((2, 1), 6, 3),
    ((5, 1), 5, 4),
    # p-groups deep enough for levels 2 and up: the radical is the
    # augmentation ideal, of dimension |P| - 1
    ((2, 1), 8, 7),
    ((2, 1), 16, 15),
    ((3, 1), 9, 8),
    ((5, 1), 25, 24),
    # at p = 5 levels 0 and 1 keep the whole algebra, whose certificate
    # fails, and level 2 ends the chain at J: C5 x C5 and D50, whose Sylow
    # 5-subgroup is normal with quotient C2
    ((5, 1), "C5xC5", 24),
    ((5, 1), "D50", 48),
]


@pytest.mark.parametrize("fe,n,want", RADICAL_CASES, ids=lambda v: str(v))
def test_radical_group_algebras(fe, n, want):
    f = field_make(*fe)
    table = cyclic(n) if isinstance(n, int) else RADICAL_GROUPS[n]()
    regs = group_algebra_reg(f, table)
    J = algebra_radical(f, regs)
    assert J.a.shape[0] == want
    brute = brute_radical_dim(f, regs)
    if brute is not None:
        assert J.a.shape[0] == brute


def test_radical_s3_and_matrix_algebra():
    f2 = field_make(2, 1)
    s3 = GroupTable(PermOps(3), [perm(3, (0, 1, 2)), perm(3, (0, 1))])
    regs = group_algebra_reg(f2, s3)
    assert algebra_radical(f2, regs).a.shape[0] == 1
    # M2(F2): semisimple, radical zero
    basis = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=np.int64)
            m[i, j] = 1
            basis.append(m)
    regs2 = []
    for b in basis:
        cols = []
        for c in basis:
            prod = (b @ c) % 2
            cols.append([int(prod[x, y]) for x in range(2) for y in range(2)])
        L = np.array(cols, dtype=np.int64).T
        regs2.append(L)
    assert algebra_radical(f2, regs2).a.shape[0] == 0
    assert brute_radical_dim(f2, regs2) == 0


def test_radical_elements_are_nilpotent_ideal():
    f = field_make(2, 1)
    regs = group_algebra_reg(f, cyclic(6))
    J = algebra_radical(f, regs)
    d = len(regs)
    for row in J.a:
        acc = np.zeros((d, d), dtype=np.int64)
        for i, c in enumerate(row):
            if c:
                acc = f.add_vec(acc, regs[i]).astype(np.int64)
        assert FMatrix(f, acc.astype(f.dtype)).power(d).is_zero()


def reference_radical(f, regs):
    """The radical by the chain of charpoly coefficients: level i keeps the
    x in I_(i-1) with e_(p^i)(L_x L_y) = 0 for y in I_(i-1), e_k the k-th
    elementary symmetric function of the eigenvalues.  The unknowns are
    Frobenius-twisted as in
    algebra_radical; each level ends in the RREF of the new basis."""
    d = len(regs)
    flat = np.stack(regs).reshape(d, d * d).astype(f.dtype)
    cur = np.eye(d, dtype=f.dtype)
    i = 0
    while f.p ** i <= d and cur.shape[0] > 0:
        m = cur.shape[0]
        mats = f.matmul(cur, flat).reshape(m, d, d)
        gamma = np.zeros((m, m), dtype=np.int64)
        for a in range(m):
            for b in range(a, m):
                ab = f.matmul(mats[a], mats[b])
                gamma[a, b] = gamma[b, a] = elem_symmetric_coeff(f, ab, f.p ** i)
        eta = gauss(FMatrix(f, gamma.T)).kernel.a.astype(np.int64)
        xi = f.pow_vec(eta, f.p ** ((-i) % f.e))
        red = gauss(FMatrix(f, f.matmul(xi, cur)))
        cur = red.rref.a[: red.rank]
        i += 1
    return cur


def dihedral(order):
    m = order // 2
    return GroupTable(PermOps(m), [perm(m, tuple(range(m))),
                                   tuple((-i) % m for i in range(m))])


def c4xc4():
    return GroupTable(PermOps(8), [perm(8, (0, 1, 2, 3)),
                                   perm(8, (4, 5, 6, 7))])


def random_basis(f, regs, rng):
    """The left-regular matrices in the basis given by the columns of a
    random invertible B: L'_k = B^-1 (sum_j B[j, k] L_j) B."""
    d = len(regs)
    while True:
        B = FMatrix(f, rng.integers(0, f.q, size=(d, d)))
        if B.rank() == d:
            break
    flat = np.stack(regs).reshape(d, d * d).astype(f.dtype)
    combos = f.matmul(B.a.T, flat).reshape(d, d, d)
    Binv = B.inverse()
    return [(Binv @ FMatrix(f, c) @ B).a for c in combos]


# (p, group builders): cyclic and dihedral p-groups, S3, D10 and C4 x C4;
# C8, C16, D8, D16, C4 x C4 and C9 have d >= p^2, so levels 2 and up run
ORACLE_GROUPS = {
    2: [lambda: cyclic(2), lambda: cyclic(4), lambda: cyclic(8),
        lambda: cyclic(16), lambda: dihedral(8), lambda: dihedral(16),
        c4xc4, lambda: dihedral(6), lambda: dihedral(10)],
    3: [lambda: cyclic(3), lambda: cyclic(9), lambda: dihedral(6)],
    5: [lambda: cyclic(5), lambda: dihedral(10)],
}
ORACLE_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]


@given(st.sampled_from(ORACLE_FIELDS), st.data(),
       st.sampled_from([1, 7, None]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_radical_matches_charpoly_reference(pe, data, cells, seed):
    f = field_make(*pe)
    build = data.draw(st.sampled_from(ORACLE_GROUPS[f.p]))
    regs = random_basis(f, group_algebra_reg(f, build()),
                        np.random.default_rng(seed))
    # a small cell bound puts every pair, or every few, in a pass of its own
    bound = split.RADICAL_PASS_CELLS if cells is None else cells
    with mock.patch.object(split, "RADICAL_PASS_CELLS", bound):
        got = algebra_radical(f, regs)
    assert got.a.tolist() == reference_radical(f, regs).tolist()


def full_chain_radical(f, regs):
    """The radical by every level of the chain, p^i <= d, with no early
    exit: the loop of algebra_radical on the same trace forms."""
    d = len(regs)
    flat = np.stack(regs).reshape(d, d * d).astype(f.dtype)
    cur = np.eye(d, dtype=f.dtype)
    i = 0
    while f.p ** i <= d and cur.shape[0] > 0:
        m = cur.shape[0]
        mats = f.matmul(cur, flat).reshape(m, d, d)
        gamma = np.zeros((m, m), dtype=f.dtype)
        if i == 0:
            for a in range(m):
                for b in range(m):
                    gamma[a, b] = f.sum_vec(np.diagonal(
                        f.matmul(mats[a], mats[b])))
        else:
            pw = (f.p ** np.arange(f.e)).reshape(-1, 1, 1, 1)
            digits = mats.astype(np.int64) // pw % f.p
            for a in range(m):
                for b in range(a, m):
                    val = split._trace_form(f, digits[:, a:a + 1],
                                            digits[:, b:b + 1], i)[0]
                    gamma[a, b] = gamma[b, a] = val
        eta = gauss(FMatrix(f, gamma.T)).kernel.a.astype(np.int64)
        xi = f.pow_vec(eta, f.p ** ((-i) % f.e))
        red = gauss(FMatrix(f, f.matmul(xi, cur)))
        cur = red.rref.a[: red.rank]
        i += 1
    return cur


@given(st.sampled_from(ORACLE_FIELDS), st.data(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_early_exit_radical_matches_full_chain(pe, data, seed):
    f = field_make(*pe)
    build = data.draw(st.sampled_from(ORACLE_GROUPS[f.p]))
    regs = random_basis(f, group_algebra_reg(f, build()),
                        np.random.default_rng(seed))
    got = algebra_radical(f, regs)
    assert got.a.tolist() == full_chain_radical(f, regs).tolist()


def matrix_units(f, n):
    """Left-regular matrices of M_n(k) on the basis E_11, E_12, ..., E_nn."""
    d = n * n
    regs = []
    for i, j in itertools.product(range(n), repeat=2):
        L = np.zeros((d, d), dtype=f.dtype)
        # E_ij E_jl = E_il
        for l in range(n):
            L[i * n + l, j * n + l] = 1
        regs.append(L)
    return regs


def certify(f, regs, rows):
    """_nilpotent_left_ideal on the span of rows, brought to RREF."""
    red = gauss(FMatrix(f, np.asarray(rows, dtype=f.dtype)))
    return split._nilpotent_left_ideal(f, np.stack(regs).astype(f.dtype),
                                       red.rref.a[: red.rank], red.pivots)


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2)])
def test_certificate_refuses_nilpotent_non_ideal_and_idempotent_ideal(pe):
    f = field_make(*pe)
    regs = matrix_units(f, 2)
    # span(E_12) squares to 0, but E_21 E_12 = E_22 leaves it
    assert not certify(f, regs, [[0, 1, 0, 0]])
    # the first column, span(E_11, E_21), is a left ideal equal to its square
    assert not certify(f, regs, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert not certify(f, regs, np.eye(4, dtype=np.int64))
    assert certify(f, regs, np.zeros((0, 4), dtype=np.int64))
    # in the upper triangular algebra span(E_11, E_12, E_22), E_12 spans J
    tri = [regs[k][np.ix_([0, 1, 3], [0, 1, 3])] for k in (0, 1, 3)]
    assert certify(f, tri, [[0, 1, 0]])
    assert not certify(f, tri, [[1, 1, 0]])


def test_certificate_stops_when_the_rank_stops_falling():
    """A non-nilpotent left ideal is refused after one power, not after
    rank-many: the chain stops at the first step that does not shrink."""
    f = field_make(2, 1)
    regs = group_algebra_reg(f, cyclic(8))
    calls = []

    def counted(M):
        calls.append(M.a.shape)
        if len(calls) > 3:
            raise AssertionError("the power chain did not stop")
        return gauss(M)

    with mock.patch.object(split, "gauss", counted):
        assert not certify(f, regs, np.eye(8, dtype=np.int64))
    assert len(calls) == 1
    # the augmentation ideal of C8 is nilpotent: its powers have ranks
    # 6, 5, ..., 0, one gauss each
    J = algebra_radical(f, regs)
    with mock.patch.object(split, "gauss", side_effect=gauss) as spy:
        assert certify(f, regs, J.a)
    assert spy.call_count == 7


def test_radical_refuses_an_uncertified_last_level():
    """Over GF(5) a 2-dimensional input runs level 0 only, so the end of
    the chain is its only test.  These left-multiplication matrices come
    from a product that is not associative; their trace form vanishes on a
    space that is not nilpotent, and the radical raises."""
    f = field_make(5, 1)
    regs = [np.array([[1, 0], [0, 2]]), np.zeros((2, 2), dtype=np.int64)]
    with pytest.raises(RuntimeError, match="not a nilpotent left ideal"):
        algebra_radical(f, regs)


def test_radical_certifies_at_the_first_repeated_dimension():
    """The full chain of C10 over GF(2) has levels 0..3.  Level 2 repeats
    the dimension of level 1, J = k C5 (1 + g^5), so the chain certifies it
    there and level 3 never runs."""
    f = field_make(2, 1)
    regs = group_algebra_reg(f, cyclic(10))
    with mock.patch.object(split, "_trace_form",
                           side_effect=split._trace_form) as spy:
        J = algebra_radical(f, regs)
    assert J.a.shape[0] == 5
    assert {c.args[3] for c in spy.call_args_list} == {1, 2}


CHECKS_UNDER_O = """
import numpy as np
from endotriv import split
from endotriv.catalog import build_group
from endotriv.ffla import FieldTable, field_make
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import InducedContext, character_group


def report(fn):
    try:
        fn()
    except (RuntimeError, ValueError) as exc:
        print(__debug__, type(exc).__name__, exc)
    else:
        print(__debug__, "no error")


f2 = field_make(2, 1)
# C4 over GF(2): the level-1 traces of the augmentation ideal are even
c4 = GroupTable(PermOps(4), [(1, 2, 3, 0)])
regs = []
for g in range(4):
    m = np.zeros((4, 4), dtype=np.int64)
    for b in range(4):
        m[c4.mul(g, b), b] = 1
    regs.append(m)
real = FieldTable.ring_matmul


def corrupted(self, x, y, N, trace=False):
    out = real(self, x, y, N, trace)
    if trace:
        out[0] = (out[0] + 1) % N
    return out


FieldTable.ring_matmul = corrupted
report(lambda: split.algebra_radical(f2, regs))
FieldTable.ring_matmul = real
# a trace form that vanishes keeps I_i = A at every level
real_form = split._trace_form
split._trace_form = lambda f, a, b, i: np.zeros(a.shape[1], dtype=f.dtype)
report(lambda: split.algebra_radical(f2, regs))
split._trace_form = real_form
report(lambda: split.pdivmod(f2, np.array([1, 1]), np.array([], dtype=np.int64)))
G = GroupTable(PermOps(5), [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
ctx = InducedContext(G, G.normalizer(G.sylow(2)))
lam = character_group(ctx.ntable, ctx.ntable.abelianization_pprime(2),
                      field_make(2, 2))[0]
good = ctx.good_dcs(lam)
ctx.good_dcs = lambda lam: good[::-1]
report(lambda: split.HeckeEnd(ctx, lam))
"""


def test_checks_hold_under_python_O(src_env):
    """With asserts stripped, a corrupted level-1 trace, a radical chain
    whose last level is not a nilpotent left ideal, a division by the zero
    polynomial and a Hecke basis without the identity double coset first
    still raise."""
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O],
                          capture_output=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        "False RuntimeError a level-1 trace is not divisible by 2^1",
        "False RuntimeError the last radical level, of dimension 4, is not "
        "a nilpotent left ideal",
        "False ValueError polynomial division by zero",
        "False RuntimeError the double coset of 1 is not the first "
        "lambda-good double coset"]


# -- Hecke algebra of an induced character ------------------------------------

@pytest.fixture(scope="module")
def a5setup():
    G = GroupTable(PermOps(5), [perm(5, (0, 1, 2)), perm(5, (0, 1, 2, 3, 4))])
    P = G.sylow(2)
    N = G.normalizer(P)
    ctx = InducedContext(G, N)
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    return G, P, ctx, f, chars


def basis_matrices(ctx, h):
    """F_a as dim x dim matrices: its values on G at t_i t_j^-1."""
    return [FMatrix(h.f, h.fvals[a][ctx.pairprod]) for a in range(h.dim_alg)]


def test_hecke_structure_constants(a5setup):
    G, P, ctx, f, chars = a5setup
    for lam in chars:
        h = HeckeEnd(ctx, lam)
        realized = basis_matrices(ctx, h)
        # structure constants reproduce realized matrix products
        for a in range(h.dim_alg):
            for b in range(h.dim_alg):
                lhs = realized[a] @ realized[b]
                acc = FMatrix(f, np.zeros_like(lhs.a))
                for dpos in range(h.dim_alg):
                    c = int(h.structure[dpos, a, b])
                    if c:
                        acc = acc + realized[dpos].scale(c)
                assert (lhs + acc.scale(f.neg(1))).is_zero()


def test_hecke_commutes_with_action(a5setup):
    G, P, ctx, f, chars = a5setup
    for lam in chars:
        h = HeckeEnd(ctx, lam)
        ind = ctx.induce(lam)
        for B in basis_matrices(ctx, h):
            for M in ind.gen_mats:
                assert ((B @ M) + (M @ B).scale(f.neg(1))).is_zero()


def test_hecke_unit_and_regular_rep(a5setup):
    G, P, ctx, f, chars = a5setup
    rng = random.Random(12)
    for lam in chars:
        h = HeckeEnd(ctx, lam)
        unit = h.realize(h.unit)
        assert unit == FMatrix.identity(f, unit.shape[0])
        # left regular representation is multiplicative
        for _ in range(10):
            x = np.array([rng.randrange(4) for _ in range(h.dim_alg)],
                         dtype=np.int64)
            y = np.array([rng.randrange(4) for _ in range(h.dim_alg)],
                         dtype=np.int64)
            assert (h.realize(h.mul(x, y)) +
                    (h.realize(x) @ h.realize(y)).scale(f.neg(1))).is_zero()


def test_realize_matches_coordinate_sum(a5setup):
    """realize(x) is sum_a x_a F_a, accumulated one coordinate at a time."""
    G, P, ctx, f, chars = a5setup
    rng = np.random.default_rng(3)
    for lam in chars:
        h = HeckeEnd(ctx, lam)
        mats = basis_matrices(ctx, h)
        for _ in range(6):
            x = rng.integers(0, f.q, size=h.dim_alg)
            acc = np.zeros((ctx.dim, ctx.dim), dtype=np.int64)
            for a in np.nonzero(x)[0]:
                acc = f.add_vec(acc, f.mul_vec(np.int64(x[a]), mats[a].a))
            assert h.realize(x) == FMatrix(f, acc)


def test_hecke_dim_mackey_oracle(a5setup):
    """Algebra dimension equals the double-coset sum of character
    agreements, counted by raw element enumeration."""
    G, P, ctx, f, chars = a5setup
    nset = set(ctx.n_indices)
    nt = ctx.ntable
    for lam in chars:
        total = 0
        for g in ctx.dc_reps:
            gi = G.inv(g)
            agree = all(
                lam.value(nt.idx(x)) ==
                lam.value(nt.idx(G.mul(G.mul(gi, x), g)))
                for x in ctx.n_indices
                if G.mul(G.mul(gi, x), g) in nset)
            total += 1 if agree else 0
        assert HeckeEnd(ctx, lam).dim_alg == total


def _hecke_algebras(a5setup):
    """The Hecke algebras of A5 over the Sylow normalizer, one per
    character, and the 6-dimensional one over the Sylow 2-subgroup."""
    G, P, ctx, f, chars = a5setup
    out = [HeckeEnd(ctx, lam) for lam in chars]
    pctx = InducedContext(G, P)
    pchars = character_group(pctx.ntable,
                             pctx.ntable.abelianization_pprime(2), f)
    return out + [HeckeEnd(pctx, lam) for lam in pchars]


def _oracle_mul(h, x, y):
    """x y = sum over a, b of x_a y_b F_a F_b, one coordinate at a time."""
    f = h.f
    out = [0] * h.dim_alg
    for a in range(h.dim_alg):
        for b in range(h.dim_alg):
            xy = f.mul(int(x[a]), int(y[b]))
            for d in range(h.dim_alg):
                out[d] = f.add(out[d], f.mul(xy, int(h.structure[d, a, b])))
    return out


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_hecke_mul_matches_structure_constants(a5setup, seed):
    rng = np.random.default_rng(seed)
    for h in _hecke_algebras(a5setup):
        x, y = rng.integers(0, h.f.q, size=(2, h.dim_alg))
        assert h.mul(x, y).tolist() == _oracle_mul(h, x, y)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_hecke_corners_match_definitions(a5setup, seed):
    rng = random.Random(seed)
    for h in _hecke_algebras(a5setup):
        f = h.f
        prims = h.primitive_idempotents(random.Random(seed))
        # a sum of orthogonal primitive idempotents is an idempotent
        e = np.zeros(h.dim_alg, dtype=np.int64)
        for p_ in prims:
            if rng.random() < 0.6:
                e = f.add_vec(e, p_).astype(np.int64)
        if not e.any():
            e = h.unit
        # corner basis: RREF of the rows e F_k e
        rows = []
        for k in range(h.dim_alg):
            unit_k = np.zeros(h.dim_alg, dtype=np.int64)
            unit_k[k] = 1
            rows.append(_oracle_mul(h, _oracle_mul(h, e, unit_k), e))
        red = gauss(FMatrix(f, np.array(rows, dtype=np.int64)))
        basis, sdim = h._corner(e)
        assert basis.tolist() == red.rref.a[: red.rank].tolist()
        # the corner's semisimple dimension from e J(A) e equals the one of
        # the radical of the corner's own regular representation
        reg = _corner_regular_reference(h, basis)
        m = basis.shape[0]
        for i in range(m):
            for j in range(m):
                back = f.matmul(reg[i][:, j][None, :].astype(f.dtype),
                                basis.astype(f.dtype))[0]
                assert back.tolist() == _oracle_mul(h, basis[i], basis[j])
        assert sdim == m - algebra_radical(f, reg).a.shape[0]


def _corner_regular_reference(h, basis):
    """Left-regular matrices of the corner on its basis: column j of reg[i]
    holds the coordinates of b_i b_j, from one solve against the basis."""
    f = h.f
    m, n = basis.shape
    prods = np.array([h.mul(basis[i], basis[j]) for i in range(m)
                      for j in range(m)], dtype=np.int64).T
    sol = solve_right(FMatrix(f, basis).T, FMatrix(f, prods))
    assert sol is not None
    return [np.ascontiguousarray(sol.a[:, i * m:(i + 1) * m])
            for i in range(m)]


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6"])
def test_one_radical_per_hecke_algebra(name):
    """Every corner reads its radical off J(A): one algebra_radical call per
    Hecke algebra, however many corners are split."""
    G = build_group(name)[0]
    f = field_make(2, 2)
    ctx = InducedContext(G, G.normalizer(G.sylow(2)))
    chars = character_group(ctx.ntable, ctx.ntable.abelianization_pprime(2), f)
    radicals, corners = [], []
    real_corner = HeckeEnd._corner

    def spy_radical(*args):
        radicals.append(len(args[1]))
        return algebra_radical(*args)

    def spy_corner(self, e):
        out = real_corner(self, e)
        corners.append(out[0].shape[0])
        return out

    with mock.patch.object(split, "algebra_radical", spy_radical), \
            mock.patch.object(HeckeEnd, "_corner", spy_corner):
        for lam in chars:
            h = HeckeEnd(ctx, lam)
            radicals.clear()
            h.primitive_idempotents(random.Random(0))
            assert radicals == [h.dim_alg]
    if name != "A5":
        assert sum(m > 1 for m in corners) >= 3


def test_primitive_idempotents(a5setup):
    G, P, ctx, f, chars = a5setup
    for lam in chars:
        h = HeckeEnd(ctx, lam)
        prims = h.primitive_idempotents(random.Random(4))
        s = np.zeros(h.dim_alg, dtype=np.int64)
        for e in prims:
            assert list(h.mul(e, e)) == list(e)
            s = f.add_vec(s, e).astype(np.int64)
        assert list(s) == list(h.unit)
        for i, e1 in enumerate(prims):
            for e2 in prims[i + 1:]:
                assert not h.mul(e1, e2).any()
                assert not h.mul(e2, e1).any()


# -- splitting, factors, isomorphism ------------------------------------------

def test_split_summands_a5(a5setup):
    G, P, ctx, f, chars = a5setup
    ind0 = ctx.induce(chars[0])
    s0 = split_summands(ctx, chars[0], ind0, random.Random(0))
    assert [s.dim for s in s0] == [1, 4]
    ind1 = ctx.induce(chars[1])
    s1 = split_summands(ctx, chars[1], ind1, random.Random(0))
    assert [s.dim for s in s1] == [5]
    # each summand is a representation
    rng = random.Random(2)
    for s in s0 + s1:
        for _ in range(6):
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            assert (s.rep.at(i) @ s.rep.at(j)).a.tolist() == \
                s.rep.at(G.mul(i, j)).a.tolist()


def test_irreducibility_and_factors(a5setup):
    G, P, ctx, f, chars = a5setup
    ind0 = ctx.induce(chars[0])
    s0 = split_summands(ctx, chars[0], ind0, random.Random(0))
    four = s0[1]
    ok, wit = is_irreducible(f, four.rep.gen_mats, random.Random(1))
    assert ok and wit is None
    # the full 5-dim permutation-like module is reducible
    ok5, wit5 = is_irreducible(f, ind0.gen_mats, random.Random(1))
    assert not ok5
    assert_proper_submodule(f, ind0.gen_mats, wit5)
    # composition factors of the 5-dim correspondent
    ind1 = ctx.induce(chars[1])
    s1 = split_summands(ctx, chars[1], ind1, random.Random(0))
    assert composition_factor_dims(f, s1[0].rep.gen_mats,
                                   random.Random(3)) == [1, 2, 2]


def test_chop_partition_and_seed_stability(a5setup):
    G, P, ctx, f, chars = a5setup
    ind1 = ctx.induce(chars[1])
    s1 = split_summands(ctx, chars[1], ind1, random.Random(0))
    mats = s1[0].rep.gen_mats
    for seed in (1, 2, 99):
        dims = composition_factor_dims(f, mats, random.Random(seed))
        assert dims == [1, 2, 2]
        assert sum(dims) == 5


def test_module_iso(a5setup):
    G, P, ctx, f, chars = a5setup
    ind0 = ctx.induce(chars[0])
    s0 = split_summands(ctx, chars[0], ind0, random.Random(0))
    amats = s0[1].rep.gen_mats
    # conjugate by a random invertible matrix and recover an isomorphism
    rng = np.random.default_rng(6)
    while True:
        S = FMatrix(f, rng.integers(0, 4, size=(4, 4)).astype(f.dtype))
        if S.rank() == 4:
            break
    bmats = [S.inverse() @ m @ S for m in amats]
    T = module_iso(f, amats, bmats, random.Random(7))
    assert T is not None
    for A, B in zip(amats, bmats):
        assert ((T @ A) + (B @ T).scale(f.neg(1))).is_zero()
    # the two 2-dim factors of the 5-dim correspondent are not isomorphic
    ind1 = ctx.induce(chars[1])
    s1 = split_summands(ctx, chars[1], ind1, random.Random(0))
    factors = chop(f, s1[0].rep.gen_mats, random.Random(3))
    twos = [m for m in factors if m[0].a.shape[0] == 2]
    assert len(twos) == 2
    assert module_iso(f, twos[0], twos[1], random.Random(8)) is None
    assert module_iso(f, twos[0], twos[0], random.Random(8)) is not None


@given(st.integers(0, 10000))
@settings(max_examples=15, deadline=None)
def test_split_dims_seed_independent(seed):
    G = GroupTable(PermOps(5), [perm(5, (0, 1, 2)), perm(5, (0, 1, 2, 3, 4))])
    ctx = InducedContext(G, G.normalizer(G.sylow(2)))
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    ind = ctx.induce(chars[0])
    s = split_summands(ctx, chars[0], ind, random.Random(seed))
    assert [x.dim for x in s] == [1, 4]


# -- spinning against the incremental reference -------------------------------

class RowSpanReference:
    """Row space grown one vector at a time: each new vector is reduced
    against the pivots found so far and kept, normalised, if nonzero."""

    def __init__(self, f, ncols):
        self.f = f
        self.ncols = ncols
        self.rows = []
        self.piv = {}

    def add(self, v):
        f = self.f
        v = v.astype(np.int64).copy()
        for c, r in self.piv.items():
            if v[c]:
                v = f.sub_vec(v, f.mul_vec(np.int64(int(v[c])),
                                           self.rows[r])).astype(np.int64)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        v = f.mul_vec(np.int64(f.inv(int(v[c]))), v).astype(np.int64)
        self.piv[c] = len(self.rows)
        self.rows.append(v)
        return True

    def matrix(self):
        if not self.rows:
            return FMatrix(self.f, np.zeros((0, self.ncols), dtype=np.int64))
        return FMatrix(self.f, np.stack(self.rows))


def spin_reference(f, mats, seeds):
    """Breadth-first spinning: every vector that enlarged the span is
    multiplied by every generator, one matrix-vector product at a time."""
    span = RowSpanReference(f, seeds.shape[1])
    for s in np.atleast_2d(seeds):
        span.add(s)
    frontier = span.rows[:]
    while frontier:
        nxt = []
        for v in frontier:
            for m in mats:
                w = f.matmul(m.a, v.astype(f.dtype)[:, None])[:, 0]
                if span.add(w):
                    nxt.append(span.rows[-1])
        frontier = nxt
    return span.matrix()


def _random_invertible(f, n, rng):
    while True:
        m = FMatrix(f, rng.integers(0, f.q, size=(n, n)).astype(f.dtype))
        if m.rank() == n:
            return m


def _flag_module(f, n, cut, ngens, rng):
    """Generators that keep the first `cut` coordinates invariant (block upper
    triangular, invertible diagonal blocks), seen in a random basis."""
    P = _random_invertible(f, n, rng)
    mats = []
    for _ in range(ngens):
        g = rng.integers(0, f.q, size=(n, n)).astype(f.dtype)
        g[cut:, :cut] = 0
        if cut:
            g[:cut, :cut] = _random_invertible(f, cut, rng).a
        if cut < n:
            g[cut:, cut:] = _random_invertible(f, n - cut, rng).a
        mats.append(P.inverse() @ FMatrix(f, g) @ P)
    return mats


@given(st.sampled_from([(2, 1), (2, 2), (3, 1)]), st.integers(1, 8),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_spin_matches_incremental_reference(pe, n, ngens, seed):
    f = field_make(*pe)
    rng = np.random.default_rng(seed)
    mats = _flag_module(f, n, int(rng.integers(0, n + 1)), ngens, rng)
    # seed rows: zero rows, sums of two earlier rows and random rows; about
    # one draw in eight is zero rows only
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.integers(0, 3)
        if kind == 0:
            rows.append(np.zeros(n, dtype=np.int64))
        elif kind == 1 and rows:
            a, b = rng.integers(0, len(rows), size=2)
            rows.append(f.add_vec(rows[a], rows[b]).astype(np.int64))
        else:
            rows.append(rng.integers(0, f.q, size=n))
    seeds = np.array(rows, dtype=np.int64)
    got = spin(f, mats, seeds)
    ref = gauss(spin_reference(f, mats, seeds))
    assert got.a.tolist() == ref.rref.a[: ref.rank].tolist()
    for m in mats:
        images = f.matmul(got.a, m.a.T)
        assert gauss(FMatrix(f, np.vstack([got.a, images]))).rank == \
            got.a.shape[0]


# -- Krylov minimal polynomial against the per-degree solve -------------------

def _krylov_reference(f, z, v):
    """Append z^k v until it lies in the span of the earlier vectors, with one
    solve per degree; the solution gives the lower coefficients."""
    rows, cur = [], v.astype(np.int64)
    while True:
        if rows:
            sol = solve_right(FMatrix(f, np.stack(rows)).T,
                              FMatrix(f, cur[None, :]).T)
        else:
            sol = None if cur.any() else FMatrix(f, np.zeros((0, 1)))
        if sol is not None:
            poly = np.ones(len(rows) + 1, dtype=np.int64)
            poly[: len(rows)] = f.neg_vec(sol.a[:, 0])
            return poly, np.array(rows, dtype=np.int64).reshape(-1, len(v))
        rows.append(cur)
        cur = f.matmul(z.a, cur.astype(f.dtype)[:, None])[:, 0].astype(np.int64)


@given(field=st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 2)]),
       n=st.integers(1, 6),
       z_kind=st.sampled_from(["random", "zero", "nilpotent", "permutation"]),
       v_kind=st.sampled_from(["random", "zero", "unit"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_krylov_matches_per_degree_solve(field, n, z_kind, v_kind, seed):
    f = field_make(*field)
    rng = np.random.default_rng(seed)
    z = rng.integers(0, f.q, size=(n, n))
    if z_kind == "zero":
        z[:] = 0
    elif z_kind == "nilpotent":
        z = np.triu(z, 1)
    elif z_kind == "permutation":
        z = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    v = rng.integers(0, f.q, size=n)
    if v_kind == "zero":
        v[:] = 0
    elif v_kind == "unit":
        v = np.eye(n, dtype=np.int64)[rng.integers(n)]
    z = FMatrix(f, z)
    poly, rows = split._krylov(f, z, v)
    want_poly, want_rows = _krylov_reference(f, z, v)
    assert poly.tolist() == want_poly.tolist()
    assert rows.tolist() == want_rows.tolist()
    if not v.any():
        assert poly.tolist() == [1] and rows.shape == (0, n)


# -- irreducibility against the exhaustive reference --------------------------

def _projective_combos(f, rows):
    """All nonzero combinations of the rows, one per scalar line."""
    d = rows.shape[0]
    for lead in range(d):
        for tail in itertools.product(range(f.q), repeat=d - lead - 1):
            coeffs = np.zeros(d, dtype=np.int64)
            coeffs[lead] = 1
            coeffs[lead + 1:] = tail
            yield f.matmul(coeffs[None, :].astype(f.dtype),
                           rows.astype(f.dtype))[0].astype(np.int64)


def is_irreducible_reference(f, mats, rng):
    """Norton-style verdict by exhaustive null-space spinning.

    For one singular algebra element w = g0(z), spin every scalar line of
    null(w) and of null(w^T).  A proper submodule W meets null(w), or g0(z)
    is invertible on W and the annihilator of W contains null(w^T); so some
    line spins to a proper subspace iff the module is reducible, whatever
    dim null(w) is.  This is the package's test before the Holt-Rees form,
    without its 420-line cap and without its skip of g0(z) = 0: in dimension
    at most 6 a null space has at most 1365 lines.
    """
    n = mats[0].a.shape[0]
    if n == 1:
        return True
    tmats = [FMatrix(f, np.ascontiguousarray(m.a.T)) for m in mats]
    while True:
        z = split._random_algebra_elem(f, mats, rng)
        v = np.array([rng.randrange(f.q) for _ in range(n)], dtype=np.int64)
        if z.is_zero() or not v.any():
            continue
        fac = factor_poly(f, split._krylov(f, z, v)[0], rng)
        if len(fac) == 1 and fac[0][1] == 1 and pdeg(fac[0][0]) == n:
            return True
        w = split._mat_poly(f, fac[0][0], z)
        for null, gens in ((gauss(w).kernel, mats),
                           (gauss(w.T).kernel, tmats)):
            if any(spin(f, gens, u).shape[0] < n
                   for u in _projective_combos(f, null.a)):
                return False
        return True


def assert_proper_submodule(f, mats, wit):
    """The witness rows span a proper, nonzero, invariant subspace."""
    n = mats[0].a.shape[0]
    r = gauss(wit).rank
    assert r == wit.a.shape[0] and 0 < r < n
    for m in mats:
        images = f.matmul(wit.a, m.a.T)
        assert gauss(FMatrix(f, np.vstack([wit.a, images]))).rank == r


# Small catalog groups with a character group over each field: GF(2) has no
# cube root of unity, which A4 and A5 need.
SMALL_GROUPS = {(2, 1): ("S4", "PSL(2,7)"),
                (2, 2): ("A4", "S4", "A5", "PSL(2,7)"),
                (3, 1): ("A4", "S4", "A5", "PSL(2,7)")}


@functools.lru_cache(maxsize=None)
def catalog_summands(pe):
    """Per small catalog group, the generator matrices of every summand of
    dimension at most 6 of the induced modules lambda^G over GF(p^e)."""
    f = field_make(*pe)
    out = []
    for name in SMALL_GROUPS[pe]:
        G = build_group(name)[0]
        ctx = InducedContext(G, G.normalizer(G.sylow(pe[0])))
        chars = character_group(ctx.ntable,
                                ctx.ntable.abelianization_pprime(pe[0]), f)
        out.append([s.rep.gen_mats for lam in chars
                    for s in split_summands(ctx, lam, ctx.induce(lam),
                                            random.Random(0))
                    if s.dim <= 6])
    return out


def _in_random_basis(f, mats, rng):
    P = _random_invertible(f, mats[0].a.shape[0], rng)
    return [P.inverse() @ m @ P for m in mats]


def _direct_sum(f, amats, bmats):
    a, b = amats[0].a.shape[0], bmats[0].a.shape[0]
    out = []
    for A, B in zip(amats, bmats):
        g = np.zeros((a + b, a + b), dtype=f.dtype)
        g[:a, :a], g[a:, a:] = A.a, B.a
        out.append(FMatrix(f, g))
    return out


@st.composite
def small_modules(draw):
    """Modules of dimension at most 6 over GF(2), GF(4) or GF(3): direct
    sums (sometimes of one module with itself), block upper triangular
    extensions, and catalog summands alone or summed in pairs."""
    pe = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    f = field_make(*pe)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["sum", "extension", "catalog"]))
    ngens = draw(st.integers(1, 3))
    if kind == "extension":
        n = draw(st.integers(2, 6))
        return f, _flag_module(f, n, draw(st.integers(0, n)), ngens, rng)
    if kind == "sum":
        a = draw(st.integers(1, 5))
        b = draw(st.integers(1, 6 - a))
        amats = _flag_module(f, a, draw(st.integers(0, a)), ngens, rng)
        bmats = (amats if a == b and draw(st.booleans()) else
                 _flag_module(f, b, draw(st.integers(0, b)), ngens, rng))
        return f, _in_random_basis(f, _direct_sum(f, amats, bmats), rng)
    summands = draw(st.sampled_from(catalog_summands(pe)))
    mats = draw(st.sampled_from(summands))
    small = [m for m in summands if m[0].a.shape[0] + mats[0].a.shape[0] <= 6]
    if small and draw(st.booleans()):
        mats = _direct_sum(f, mats, draw(st.sampled_from(small)))
    return f, _in_random_basis(f, mats, rng)


@given(small_modules(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_irreducible_matches_exhaustive_reference(module, seed):
    f, mats = module
    ok, wit = is_irreducible(f, mats, random.Random(seed))
    assert ok == is_irreducible_reference(f, mats, random.Random(seed))
    if ok:
        assert wit is None
    else:
        assert_proper_submodule(f, mats, wit)


# Modules on which g0(z) = 0 for every algebra element z: sums of trivial
# modules, where z is a scalar, and GF(4)^2 viewed over GF(2), where z lies in
# GF(4) and deg g0 = 2 is less than the dimension.
GF4_OVER_GF2 = np.kron(np.eye(2, dtype=np.int64), [[0, 1], [1, 1]])


@pytest.mark.parametrize("pe, gens, dims", [
    ((2, 1), [np.eye(2), np.eye(2)], [1, 1]),
    ((2, 2), [np.eye(2), np.eye(2)], [1, 1]),
    ((3, 1), [np.eye(2), np.eye(2)], [1, 1]),
    ((2, 1), [np.eye(3), np.eye(3)], [1, 1, 1]),
    ((2, 2), [np.eye(3), np.eye(3)], [1, 1, 1]),
    ((3, 1), [np.eye(3), np.eye(3)], [1, 1, 1]),
    ((2, 1), [GF4_OVER_GF2], [2, 2]),
])
def test_chop_when_g0_vanishes(pe, gens, dims):
    f = field_make(*pe)
    mats = [FMatrix(f, g) for g in gens]
    assert composition_factor_dims(f, mats, random.Random(0)) == dims


def test_at_most_two_spins_per_algebra_element(k_report):
    """Chop each seed-0 PSL(2,13) correspondent again with the random stream
    of its report, logging every random algebra element and every spin."""
    res = k_report("PSL(2,13)")
    f = field_make(res.field_p, res.field_e)
    log = []
    draw, real_spin = split._random_algebra_elem, split.spin

    def logged_draw(*args):
        log.append("z")
        return draw(*args)

    def logged_spin(*args):
        log.append("spin")
        return real_spin(*args)

    with mock.patch.object(split, "_random_algebra_elem", logged_draw), \
            mock.patch.object(split, "spin", logged_spin):
        for rec in res.records:
            tag = "-".join(map(str, rec.exps))
            dims = composition_factor_dims(f, rec.rep.gen_mats,
                                           random.Random(f"0:chop:{tag}"))
            assert tuple(dims) == rec.factors
    spins_per_z = []
    for event in log:
        if event == "z":
            spins_per_z.append(0)
        else:
            spins_per_z[-1] += 1
    assert spins_per_z and max(spins_per_z) <= 2


# -- summand action from the idempotent's RREF against one solve per generator

@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "3A6"])
def test_summand_action_matches_per_generator_solves(k_report, name):
    res = k_report(name)
    ctx = res.ctx
    for lam in res.chars:
        ind = ctx.induce(lam)
        for s in split_summands(ctx, lam, ind, random.Random(0)):
            C = s.basis_cols
            want = [solve_right(C, g @ C) for g in ind.gen_mats]
            assert [m.a.tolist() for m in s.rep.gen_mats] == \
                [m.a.tolist() for m in want]


def test_pderiv_scales_by_integer_multiples():
    # d/dt sum a_k t^k = sum k a_k t^(k-1), with k read mod p
    for p, e in [(2, 2), (3, 1), (5, 2)]:
        f = field_make(p, e)
        rng = random.Random(p * 10 + e)
        for _ in range(20):
            a = _poly([rng.randrange(f.q) for _ in range(rng.randrange(0, 9))])
            want = np.zeros(max(len(a) - 1, 0), dtype=np.int64)
            for k in range(1, len(a)):
                acc = 0
                for _ in range(k):
                    acc = f.add(acc, int(a[k]))
                want[k - 1] = acc
            assert split.pderiv(f, a).tolist() == \
                split.pstrip(want).tolist()
