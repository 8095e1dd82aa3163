"""End to end runs of the classifier against frozen targets.

Covers the builtin catalog at the desk scale: the two triple covers, their
central product variant, the trivial-answer groups, and the Klein-four
family, plus structural properties that must hold for every analyzed group
and randomized micro-oracles for the core kernels.  All numeric targets in
this file are frozen constants.
"""
import itertools
import random
import time

import numpy as np
import pytest

from endotriv.catalog import build_group
from endotriv.cli import choose_field_degree
from endotriv.etk import (SylowClasses, compute_K, is_endotrivial_char,
                          is_endotrivial_direct, tensor_power_class)
from endotriv.ffla import FMatrix, field_make, gauss, solve_right
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import ModuleRep, brauer_quotient
from endotriv.split import HeckeEnd, algebra_radical
from testkit import jordan_profile, module_iso

ANALYZED = ["A4", "A5", "A6", "A7", "PSL(2,7)", "PGL(2,9)", "PSL(2,11)",
            "PSL(2,13)", "3A6", "3A7", "C9*3A6"]

_CACHE: dict = {}


def analysis(name, seed=0):
    """Cached full classification; returns (report, wall seconds)."""
    key = (name, seed)
    if key not in _CACHE:
        t0 = time.monotonic()
        tkey = ("table", name)
        if tkey not in _CACHE:
            _CACHE[tkey] = build_group(name)[0]
        table = _CACHE[tkey]
        e = choose_field_degree(table, 2)
        res = compute_K(table, 2, field_make(2, e), seed=seed)
        _CACHE[key] = (res, time.monotonic() - t0)
    return _CACHE[key]


def nontrivial(res):
    return [r for r in res.records if any(r.exps)]


# -- triple cover of A6 -------------------------------------------------------

def test_triple_cover_a6():
    res, dt = analysis("3A6")
    assert dt < 60
    assert res.group_order == 1080
    assert res.sylow_order == 8 and res.sylow_type == "dihedral"
    assert res.theorem_applies
    assert all(res.checks.values()), res.checks
    assert res.k_invariants == (3,)
    assert res.x_image_invariants == ()
    assert res.tt_over_x == (3,)
    nt = nontrivial(res)
    assert [r.dim for r in nt] == [9, 9]
    for r in nt:
        assert r.simple and r.factors == (9,)
        assert r.endotrivial and r.endotrivial_direct
        assert r.brauer_vector == (1, 1, 1, 1)
        assert r.dim % res.sylow_order == 1
    # the two nontrivial correspondents are mutually dual, not self-dual
    a, b = nt
    f = a.rep.field
    rng = random.Random(11)
    assert module_iso(f, a.rep.dual().gen_mats, b.rep.gen_mats, rng) is not None
    assert module_iso(f, b.rep.dual().gen_mats, a.rep.gen_mats, rng) is not None
    assert module_iso(f, a.rep.dual().gen_mats, a.rep.gen_mats, rng) is None
    assert module_iso(f, a.rep.gen_mats, b.rep.gen_mats, rng) is None


# -- triple cover of A7 -------------------------------------------------------

def test_triple_cover_a7():
    res, dt = analysis("3A7")
    assert dt < 600
    assert res.group_order == 7560
    assert res.sylow_order == 8 and res.sylow_type == "dihedral"
    assert all(res.checks.values()), res.checks
    assert res.k_invariants == ()
    assert res.k_exps == [(0,)]
    assert res.tt_over_x == ()
    nt = nontrivial(res)
    assert [r.dim for r in nt] == [15, 15]
    for r in nt:
        assert r.simple
        assert not r.endotrivial and not r.endotrivial_direct
        # the value criterion fails at an order-2 cyclic subgroup
        bad_orders = [o for v, o in zip(r.brauer_vector,
                                        res.cyclic_class_orders) if v != 1]
        assert 2 in bad_orders


# -- central product with a cyclic group of order 9 ---------------------------

def test_central_product_c9_with_cover():
    res, dt = analysis("C9*3A6")
    t0 = time.monotonic()
    assert res.group_order == 3240
    assert res.sylow_order == 8 and res.sylow_type == "dihedral"
    assert all(res.checks.values()), res.checks
    assert res.k_invariants == (9,)
    assert res.x_image_invariants == (3,)
    assert res.tt_over_x == (3,)
    assert res.xn_orders == (9,)
    by_order = {}
    for r in res.records:
        by_order.setdefault(r.order, []).append(r)
    assert sorted(by_order) == [1, 3, 9]
    assert [r.dim for r in by_order[1]] == [1]
    assert [r.dim for r in by_order[3]] == [1, 1]
    assert [r.dim for r in by_order[9]] == [9] * 6
    for r in res.records:
        assert r.endotrivial and r.endotrivial_direct
    # order-3 classes are restrictions of ambient characters
    assert sorted(res.x_image_exps) == [(0,), (3,), (6,)]
    # the cube of every nine-dimensional class lands on a nontrivial
    # restriction class, and the literal tensor cube confirms it
    for r in by_order[9]:
        out = tensor_power_class(res, r.exps, 3)
        assert out["endotrivial_input"]
        assert out["predicted_exps"] == [(3 * r.exps[0]) % 9]
        assert out["predicted_exps"] != [0]
        assert out["in_x_image"]
        assert out["literal_checked"] and out["literal_agrees"]
        assert out["verdict"] == "one_dimensional_plus_projective"
    # order-3 classes cube to the trivial class
    for r in by_order[3]:
        out = tensor_power_class(res, r.exps, 3)
        assert out["predicted_exps"] == [0]
        assert out["verdict"] == "one_dimensional_plus_projective"
    assert dt + (time.monotonic() - t0) < 300


# -- groups with only the trivial class ---------------------------------------

@pytest.mark.parametrize("name", ["A6", "A7", "PSL(2,7)", "PGL(2,9)"])
def test_trivial_answer_groups(name):
    res, dt = analysis(name)
    assert dt < 120
    assert res.sylow_type == "dihedral"
    assert all(res.checks.values()), res.checks
    assert res.k_invariants == ()
    assert res.tt_over_x == ()
    # the Sylow normalizer admits no nontrivial odd-order linear character
    assert res.xn_orders == ()
    assert len(res.records) == 1
    assert res.records[0].dim == 1 and res.records[0].endotrivial


# -- Klein-four family --------------------------------------------------------

KLEIN_TARGETS = [
    ("A4", (1, 1), {"simple": True, "x_image": (3,), "tt": ()}),
    ("A5", (5, 5), {"factors": (1, 2, 2), "x_image": (), "tt": (3,)}),
    ("PSL(2,11)", (5, 5), {"x_image": (), "tt": (3,)}),
    ("PSL(2,13)", (13, 13), {"factors": (1, 6, 6), "x_image": (),
                             "tt": (3,)}),
]


@pytest.mark.parametrize("name,dims,extra", KLEIN_TARGETS,
                         ids=[t[0] for t in KLEIN_TARGETS])
def test_klein_four_family(name, dims, extra):
    res, dt = analysis(name)
    assert dt < 120
    assert res.sylow_order == 4 and res.sylow_type == "klein_four"
    assert res.theorem_applies
    assert all(res.checks.values()), res.checks
    assert res.k_invariants == (3,)
    assert res.x_image_invariants == extra["x_image"]
    assert res.tt_over_x == extra["tt"]
    nt = nontrivial(res)
    assert tuple(sorted(r.dim for r in nt)) == dims
    for r in nt:
        assert r.endotrivial and r.endotrivial_direct
        assert r.brauer_vector == (1, 1, 1)
        assert r.dim % 4 == 1
        if "simple" in extra:
            assert r.simple == extra["simple"]
        if "factors" in extra:
            assert r.factors == extra["factors"]


# -- structural properties of every analyzed group ----------------------------

@pytest.mark.parametrize("name", ANALYZED)
def test_both_tests_agree_on_every_summand(name):
    res, _ = analysis(name)
    sc = SylowClasses(res.table, res.sylow)
    for r in res.records:
        assert r.endotrivial == r.endotrivial_direct
        for rej in r.reject_reps:
            ok_char, _ = is_endotrivial_char(rej, sc, 2)
            ok_direct = is_endotrivial_direct(rej, sc, 2, budget=625)
            assert ok_char == ok_direct
            assert not ok_char  # rejected summands never qualify


@pytest.mark.parametrize("name", ANALYZED)
def test_k_closed_under_product_and_inverse(name):
    res, _ = analysis(name)
    kset = set(res.k_exps)
    orders = res.xn_orders
    for a in kset:
        inv = tuple((-x) % d for x, d in zip(a, orders))
        assert inv in kset
        for b in kset:
            s = tuple((x + y) % d for x, y, d in zip(a, b, orders))
            assert s in kset
    assert tuple(0 for _ in orders) in kset


@pytest.mark.parametrize("name", ANALYZED)
def test_duality_pairs_correspondents(name):
    res, _ = analysis(name)
    orders = res.xn_orders
    by_exps = {r.exps: r for r in res.records}
    rng = random.Random(7)
    for r in res.records:
        inv = tuple((-x) % d for x, d in zip(r.exps, orders))
        partner = by_exps[inv]
        f = r.rep.field
        T = module_iso(f, r.rep.dual().gen_mats, partner.rep.gen_mats, rng)
        assert T is not None
        assert T.rank() == r.dim


@pytest.mark.parametrize("name", ANALYZED)
def test_dim_congruence(name):
    res, _ = analysis(name)
    for r in res.records:
        if r.endotrivial:
            assert r.dim % res.sylow_order == 1
            assert r.dim ** 2 % res.sylow_order == 1


@pytest.mark.parametrize("name", ANALYZED)
def test_decomposition_stable_across_seeds(name):
    res0, _ = analysis(name, seed=0)
    res1, _ = analysis(name, seed=1)

    def shape(res):
        return [(r.exps, r.order, r.dim, r.summand_dims, r.brauer_vector,
                 r.endotrivial, r.endotrivial_direct, r.simple, r.factors)
                for r in res.records]

    assert shape(res0) == shape(res1)
    assert res0.k_invariants == res1.k_invariants
    assert res0.x_image_invariants == res1.x_image_invariants
    assert res0.tt_over_x == res1.tt_over_x


def independent_double_coset_reps(G, nidx):
    """Representatives of N\\G/N computed from scratch by coset sweeping."""
    coset_id = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_id[x] < 0:
            cid = len(reps)
            reps.append(x)
            for n in nidx:
                coset_id[G.mul(n, x)] = cid
    assert all(c >= 0 for c in coset_id)
    seen = [False] * len(reps)
    out = []
    for cid, x in enumerate(reps):
        if seen[cid]:
            continue
        for n in nidx:
            seen[coset_id[G.mul(x, n)]] = True
        out.append(x)
    return out


@pytest.mark.parametrize("name", ANALYZED)
def test_hecke_dimension_against_double_coset_count(name):
    res, _ = analysis(name)
    G, ctx = res.table, res.ctx
    nidx = ctx.n_indices
    nset = set(nidx)
    nt = ctx.ntable
    dcs = independent_double_coset_reps(G, nidx)
    assert len(dcs) == len(ctx.dc_reps)
    for lam in res.chars:
        good = 0
        for x in dcs:
            xi = G.inv(x)
            agree = all(
                lam.value(nt.idx(n)) ==
                lam.value(nt.idx(G.mul(G.mul(xi, n), x)))
                for n in nidx if G.mul(G.mul(xi, n), x) in nset)
            good += 1 if agree else 0
        assert HeckeEnd(ctx, lam).dim_alg == good


# -- micro-oracle: radical against exhaustive nilpotency ----------------------

def try_random_matrix_algebra(f, m, rng, cap=5):
    """Unital algebra spanned by the closure of random m x m seeds; None if
    the closure exceeds cap dimensions."""
    seeds = [FMatrix.identity(f, m)]
    for _ in range(1 + rng.randrange(2)):
        a = np.array([[rng.randrange(f.q) for _ in range(m)]
                      for _ in range(m)], dtype=np.int64)
        if rng.randrange(2):
            # triangular bias keeps closures small
            for i in range(m):
                for j in range(i):
                    a[i, j] = 0
        seeds.append(FMatrix(f, a.astype(f.dtype)))
    basis: list = []
    rows = None

    def add(M):
        nonlocal rows
        v = M.a.reshape(1, -1).astype(np.int64)
        cand = v if rows is None else np.vstack([rows, v])
        if gauss(FMatrix(f, cand.astype(f.dtype))).rank > len(basis):
            rows = cand
            basis.append(M)
            return True
        return False

    work = [s for s in seeds if add(s)]
    qi = 0
    while qi < len(work):
        M = work[qi]
        qi += 1
        for B in list(basis):
            for prod in (M @ B, B @ M):
                if len(basis) > cap:
                    return None
                if add(prod):
                    work.append(prod)
    return basis if len(basis) <= cap else None


def regular_mats(f, basis):
    d = len(basis)
    span_t = FMatrix(f, np.ascontiguousarray(
        np.stack([b.a.reshape(-1) for b in basis]).T.astype(f.dtype)))
    regs = []
    for i in range(d):
        reg = np.zeros((d, d), dtype=np.int64)
        for j in range(d):
            prod = (basis[i] @ basis[j]).a.reshape(-1, 1)
            sol = solve_right(span_t, FMatrix(f, prod.astype(f.dtype)))
            assert sol is not None, "closure is not multiplicatively closed"
            reg[:, j] = sol.a[:, 0]
        regs.append(reg)
    return regs


def _mul_by_code_blocks(f):
    """2x2 prime-field matrices of multiplication by each code (degree 2)."""
    assert f.e == 2
    t = next(c for c in range(f.q) if c not in (0, 1))
    coords = {}
    for a in range(f.p):
        for b in range(f.p):
            coords[f.add(a, f.mul(b, t))] = (a, b)
    lut = np.zeros((f.q, 2, 2), dtype=np.int64)
    for c in range(f.q):
        for j, bas in enumerate((1, t)):
            x, y = coords[f.mul(c, bas)]
            lut[c, 0, j] = x
            lut[c, 1, j] = y
    return lut


def brute_radical_dim(f, basis, m):
    """Exhaustive: span of elements x with x*y nilpotent for every y."""
    d = len(basis)
    q = f.q
    assert q ** d <= 1300
    vecs = list(itertools.product(range(q), repeat=d))
    if f.e == 1:
        flat = np.stack([b.a.reshape(-1) for b in basis]).astype(np.int64)
        elems = (np.array(vecs, dtype=np.int64) @ flat) % f.p
        elems = elems.reshape(len(vecs), m, m)
        p = f.p
        size = m
    else:
        lut = _mul_by_code_blocks(f)
        raw = []
        for v in vecs:
            acc = np.zeros((m, m), dtype=np.int64)
            for c, B in zip(v, basis):
                if c:
                    acc = f.add_vec(acc, f.mul_vec(np.int64(c),
                                                   B.a.astype(np.int64)
                                                   ).astype(np.int64)
                                    ).astype(np.int64)
            blown = np.transpose(lut[acc], (0, 2, 1, 3)).reshape(2 * m, 2 * m)
            raw.append(blown)
        elems = np.stack(raw)
        p = f.p
        size = 2 * m
    # nilpotency index is at most the original matrix size m <= 3, so two
    # squarings of the product suffice
    members = []
    for vec, x in zip(vecs, elems):
        prod = np.einsum("ik,ekj->eij", x, elems) % p
        prod = np.einsum("eik,ekj->eij", prod, prod) % p
        prod = np.einsum("eik,ekj->eij", prod, prod) % p
        if not prod.any():
            members.append(vec)
    rows = np.array(members, dtype=np.int64)
    if not rows.size:
        return 0
    return gauss(FMatrix(f, rows.astype(f.dtype))).rank


def test_radical_micro_oracle():
    t0 = time.monotonic()
    rng = random.Random(90125)
    plan = [(field_make(2, 1), None, 120), (field_make(2, 2), 2, 50),
            (field_make(5, 1), 2, 30)]
    done = 0
    for f, m_fixed, count in plan:
        built = 0
        while built < count:
            m = m_fixed if m_fixed else (2 if built % 2 else 3)
            basis = try_random_matrix_algebra(f, m, rng)
            if basis is None:
                continue
            regs = regular_mats(f, basis)
            want = brute_radical_dim(f, basis, m)
            assert algebra_radical(f, regs).a.shape[0] == want
            built += 1
            done += 1
    assert done == 200
    assert time.monotonic() - t0 < 40


# -- micro-oracle: Brauer dimensions against fixed points and Jordan blocks ---

def perm(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def two_group_pool():
    P = PermOps
    return [
        GroupTable(P(4), [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))]),
        GroupTable(P(4), [perm(4, (0, 1, 2, 3))]),
        GroupTable(P(8), [perm(8, (0, 1, 2, 3, 4, 5, 6, 7))]),
        GroupTable(P(4), [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))]),
        GroupTable(P(8), [perm(8, (0, 1, 2, 3, 4, 5, 6, 7)),
                          perm(8, (1, 7), (2, 6), (3, 5))]),
        GroupTable(P(6), [perm(6, (0, 1)), perm(6, (2, 3, 4, 5))]),
        GroupTable(P(6), [perm(6, (0, 1)), perm(6, (2, 3)), perm(6, (4, 5))]),
    ]


def coset_space(G, sub):
    subset = sorted(sub)
    cosets, seen = [], set()
    for x in range(G.order):
        cos = frozenset(G.mul(x, r) for r in subset)
        if cos not in seen:
            seen.add(cos)
            cosets.append(cos)
    return cosets


def coset_module(G, f, cosets):
    index = {c: i for i, c in enumerate(cosets)}
    mats = []
    for g in G.gen_idx:
        m = np.zeros((len(cosets), len(cosets)), dtype=np.int64)
        for j, cos in enumerate(cosets):
            m[index[frozenset(G.mul(g, x) for x in cos)], j] = 1
        mats.append(FMatrix(f, m.astype(f.dtype)))
    return ModuleRep(G, f, mats)


def direct_sum(f, reps):
    table = reps[0].table
    mats = []
    for k in range(len(table.gens)):
        blocks = [r.gen_mats[k].a for r in reps]
        n = sum(b.shape[0] for b in blocks)
        m = np.zeros((n, n), dtype=np.int64)
        at = 0
        for b in blocks:
            m[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        mats.append(FMatrix(f, m.astype(f.dtype)))
    return ModuleRep(table, f, mats)


def test_brauer_fixed_point_and_jordan_micro_oracle():
    t0 = time.monotonic()
    f = field_make(2, 1)
    rng = random.Random(777)
    pool = two_group_pool()
    for trial in range(100):
        G = pool[rng.randrange(len(pool))]
        pieces = []
        for _ in range(1 + rng.randrange(3)):
            gens = [rng.randrange(G.order)
                    for _ in range(1 + rng.randrange(2))]
            pieces.append(coset_space(G, G.closure(gens)))
        rep = direct_sum(f, [coset_module(G, f, cs) for cs in pieces])
        Q = sorted(G.closure([rng.randrange(G.order)
                              for _ in range(1 + rng.randrange(2))]))
        fixed = sum(
            1 for cs in pieces for c in cs
            if all(frozenset(G.mul(g, x) for x in c) == c for g in Q))
        assert brauer_quotient(rep, Q, 2).dim == fixed
        # unipotent Jordan structure at involutions: size-1 block count
        # equals the Brauer dimension at the generated subgroup
        invs = [u for u in range(G.order) if G.order_of(u) == 2]
        for u in rng.sample(invs, min(3, len(invs))):
            prof = jordan_profile(rep, u)
            assert sum(s * c for s, c in prof.items()) == rep.dim
            assert prof.get(1, 0) == brauer_quotient(rep, [0, u], 2).dim
    assert time.monotonic() - t0 < 20
