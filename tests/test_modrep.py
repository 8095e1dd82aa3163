"""Module representation tests: linear characters, induction contexts,
Brauer quotients.  The Brauer quotient of a permutation module is checked
against the subgroup fixed-point count, an independent combinatorial value.
"""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endotriv import catalog, modrep
from endotriv.etk import bq_character
from endotriv.ffla import FMatrix, field_make, gauss, kron, solve_right
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import (BrauerQuotient, InducedContext, ModuleRep,
                             _maximal_subgroups, brauer_quotient,
                             character_group, fixed_point_rows,
                             one_dim_module, subgroup_table)
from testkit import jordan_profile


def perm(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def a5():
    return GroupTable(PermOps(5), [perm(5, (0, 1, 2)),
                                   perm(5, (0, 1, 2, 3, 4))])


def perm_module(G, f):
    """Natural permutation module on the points, row-vector convention."""
    deg = G.ops.degree
    mats = []
    for g in G.gens:
        m = np.zeros((deg, deg), dtype=f.dtype)
        for j in range(deg):
            m[g[j], j] = 1
        mats.append(FMatrix(f, m))
    return ModuleRep(G, f, mats)


@pytest.fixture(scope="module")
def a5ctx():
    G = a5()
    P = G.sylow(2)
    N = G.normalizer(P)
    return G, P, InducedContext(G, N)


# -- characters ---------------------------------------------------------------

def test_character_group_structure(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    assert len(chars) == 3
    assert [c.order for c in chars] == [1, 3, 3]
    # trivial: every exponent zero
    assert not any(chars[0].exps)
    assert all(any(c.exps) for c in chars[1:])
    # values are cube roots of unity and multiply like the exponents
    nt = ctx.ntable
    for c in chars:
        for i in range(nt.order):
            v = c.value(i)
            assert f.pow(v, 3) == 1
    for c1 in chars:
        for c2 in chars:
            prod = [(a + b) % d for a, b, d
                    in zip(c1.exps, c2.exps, ab.orders)]
            c3 = next(c for c in chars if list(c.exps) == prod)
            for i in range(nt.order):
                assert f.mul(c1.value(i), c2.value(i)) == c3.value(i)


def test_character_is_homomorphism(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    nt = ctx.ntable
    for c in chars:
        for i in range(0, nt.order, 2):
            for j in range(0, nt.order, 3):
                assert c.value(nt.mul(i, j)) == f.mul(c.value(i), c.value(j))


def test_one_dim_module(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    lam = chars[1]
    rep = one_dim_module(ctx.ntable, lam)
    assert rep.dim == 1
    for k, gi in enumerate(ctx.ntable.gen_idx):
        assert rep.gen_mats[k].a[0, 0] == lam.value(gi)


# -- representations ----------------------------------------------------------

def test_rep_is_homomorphism():
    G = a5()
    f = field_make(2, 1)
    rep = perm_module(G, f)
    rng = random.Random(0)
    for _ in range(30):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert (rep.at(i) @ rep.at(j)).a.tolist() == rep.at(G.mul(i, j)).a.tolist()


def test_restrict_tensor_dual():
    G = a5()
    f = field_make(2, 1)
    rep = perm_module(G, f)
    P = G.sylow(2)
    pt = subgroup_table(G, P)
    rest = rep.restrict(pt)
    for j in range(pt.order):
        amb = pt.elements[j]
        assert rest.at(j).a.tolist() == rep.at(amb).a.tolist()
    tens = rep.tensor(rep)
    assert tens.dim == 25
    du = rep.dual()
    for k in range(len(G.gens)):
        assert du.gen_mats[k].T @ rep.gen_mats[k] == FMatrix.identity(f, rep.dim)


# -- tensor factors -------------------------------------------------------------

FACTOR_GROUPS = {
    "s3": [perm(3, (0, 1)), perm(3, (0, 1, 2))],
    "a4": [perm(4, (0, 1, 2)), perm(4, (0, 1), (2, 3))],
    "d8": [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))],
}


def _literal_tensor(mods):
    """The tensor product of the modules as Kronecker products of their
    generator matrices, with no factors kept: ``at`` multiplies down the
    parent chain."""
    mats = mods[0].gen_mats
    for m in mods[1:]:
        mats = [kron(a, b) for a, b in zip(mats, m.gen_mats)]
    return ModuleRep(mods[0].table, mods[0].field, mats)


@given(data=st.data(), name=st.sampled_from(sorted(FACTOR_GROUPS)),
       fq=st.sampled_from([(2, 1), (2, 2), (3, 1)]), count=st.integers(2, 3),
       kind=st.sampled_from(["tensor", "dual", "power"]))
@settings(max_examples=40, deadline=None)
def test_factored_at_matches_literal_chain_products(data, name, fq, count, kind):
    """Tensor products of 2-3 permutation modules in random bases: the
    matrix of every element, asked in a random order, is the chain product
    of the Kronecker-product generator matrices."""
    gens = FACTOR_GROUPS[name]
    G = GroupTable(PermOps(len(gens[0])), gens)
    f = field_make(*fq)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    mods = []
    for _ in range(count):
        s = _random_invertible(f, G.ops.degree, rng)
        sinv = s.inverse()
        mods.append(ModuleRep(G, f, [s @ m @ sinv
                                     for m in perm_module(G, f).gen_mats]))
    if kind == "power":
        rep = mods[0].tensor_power(count)
        mods = [mods[0]] * count
    else:
        if kind == "dual":
            mods[0] = mods[0].dual()
        rep = mods[0]
        for m in mods[1:]:
            rep = rep.tensor(m)
    literal = _literal_tensor(mods)
    assert rep.factors
    assert [m.a.tolist() for m in rep.gen_mats] == \
        [m.a.tolist() for m in literal.gen_mats]
    for i in rng.sample(range(G.order), G.order):
        assert np.array_equal(rep.at(i).a, literal.at(i).a)


def test_generator_matrices_and_at_results_are_read_only():
    """The memo hands out its matrices, generator matrices among them, so a
    write into one raises instead of changing every later ``at``."""
    G = a5()
    f = field_make(2, 2)
    rep = perm_module(G, f)
    pt = subgroup_table(G, G.sylow(2))
    other = next(i for i in range(G.order) if i not in (0, *G.gen_idx))
    for mod, elems in ((rep, [0, *G.gen_idx, other]),
                       (rep.dual().tensor(rep), [0, *G.gen_idx, other]),
                       (rep.restrict(pt), range(pt.order))):
        for m in mod.gen_mats:
            with pytest.raises(ValueError, match="read-only"):
                m.a[0, 0] = 1
        for i in elems:
            with pytest.raises(ValueError, match="read-only"):
                mod.at(i).a[0, 0] = 1
    assert rep.at(G.gen_idx[0]) is rep.gen_mats[0]


def test_fixed_point_rows():
    G = a5()
    f = field_make(2, 1)
    rep = perm_module(G, f)
    P = G.sylow(2)
    rows = fixed_point_rows(rep, G.small_gens(P))
    # brute: stack rep(g) - I over generators of P and take the kernel
    blocks = []
    for g in G.small_gens(P):
        m = rep.at(g).a.astype(np.int64)
        blocks.append(f.sub_vec(m, np.eye(5, dtype=np.int64)).T)
    stacked = FMatrix(f, np.vstack(blocks).astype(f.dtype))
    want_dim = gauss(stacked).kernel.a.shape[0]
    assert rows.a.shape[0] == want_dim
    for g in G.small_gens(P):
        assert (FMatrix(f, rows.a) @ rep.at(g)).a.tolist() == rows.a.tolist()
    # no generators fixes everything
    assert fixed_point_rows(rep, []).a.shape[0] == 5


# -- Brauer quotients ---------------------------------------------------------

def _fixed_points(G, Q):
    deg = G.ops.degree
    out = 0
    for x in range(deg):
        if all(G.elements[g][x] == x for g in Q):
            out += 1
    return out


@pytest.mark.parametrize("gens", [
    [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))],           # D8
    [perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))],  # Klein four
], ids=["d8", "klein"])
def test_maximal_subgroups_brute(gens):
    G = GroupTable(PermOps(4), gens)
    half = [frozenset(s) for s in itertools.combinations(range(G.order), G.order // 2)
            if 0 in s and all(G.mul(x, y) in s for x in s for y in s)]
    assert len(half) == 3
    found = _maximal_subgroups(G, range(G.order), 2)
    assert [mx for mx, _ in found] == sorted(half, key=sorted)
    for mx, g in found:
        assert g == min(set(range(G.order)) - mx)
        assert G.closure([*mx, g]) == frozenset(range(G.order))


@pytest.mark.parametrize("name,p", [("S4", 2), ("PGL(2,7)", 2), ("3A6", 2),
                                    ("A6", 3), ("PSL(2,11)", 5)])
def test_maximal_subgroup_transversals_at_sylow(name, p):
    """On a Sylow subgroup, whose ambient indices are scattered, each
    maximal subgroup M comes with g, the least ambient index outside it: M
    and g generate P, and the powers g^k, k < p, the transversal the trace
    sums over, meet every right coset M x once."""
    G = catalog.build_group(name)[0]
    P = G.sylow(p)
    found = _maximal_subgroups(G, P, p)
    assert [mx for mx, _ in found] == sorted(
        (s for s in G.subgroups(P) if len(s) * p == len(P)), key=sorted)
    for mx, g in found:
        assert g == min(x for x in P if x not in mx)
        assert G.closure([*mx, g]) == frozenset(P)
        cosets = {frozenset(G.mul(m, G.power(g, k)) for m in mx)
                  for k in range(p)}
        assert len(cosets) == p


def test_brauer_quotient_permutation_oracle():
    G = a5()
    f = field_make(2, 1)
    rep = perm_module(G, f)
    P = G.sylow(2)
    for cls in G.subgroups_up_to_conj(P):
        if len(cls) == 1:
            continue
        bq = brauer_quotient(rep, list(cls), 2)
        assert bq.dim == _fixed_points(G, cls)


def test_brauer_quotient_random_corpus():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        deg = rng.randrange(4, 8)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            img = list(range(deg))
            rng.shuffle(img)
            gens.append(tuple(img))
        try:
            G = GroupTable(PermOps(deg), gens, cap=400)
        except ValueError:
            continue
        if G.order % 2:
            continue
        x = rng.randrange(G.order)
        o = G.order_of(x)
        odd = o
        while odd % 2 == 0:
            odd //= 2
        u = G.power(x, odd)
        if u == 0:
            continue
        Q = sorted(G.closure([u]))
        f = field_make(2, 1)
        rep = perm_module(G, f)
        bq = brauer_quotient(rep, Q, 2)
        assert bq.dim == _fixed_points(G, Q)
        # involutions: Jordan blocks of size 1 count the same thing
        if G.order_of(u) == 2:
            prof = jordan_profile(rep, u)
            assert prof.get(1, 0) == bq.dim
        checked += 1


def reference_brauer_quotient(rep, sub_indices, p):
    """The Brauer construction by definition, per subgroup: the fixed space
    of Q and of each index-p subgroup M (from ``table.subgroups``) solved
    afresh from the stacked blocks rep(g) - 1 over a small generating set,
    and the trace from M summed over the least element of each right coset
    M x (from ``table.mul``).  Returns (dim, fixed, image)."""
    table, f = rep.table, rep.field
    sub = sorted(sub_indices)
    fixed = fixed_point_rows(rep, table.small_gens(sub))
    image = FMatrix(f, np.zeros((0, rep.dim), dtype=f.dtype))
    if len(sub) > 1:
        rows = []
        for mx in table.subgroups(sub):
            if len(mx) * p != len(sub):
                continue
            fr = fixed_point_rows(rep, table.small_gens(mx))
            acc = np.zeros((rep.dim, rep.dim), dtype=f.dtype)
            for q in {min(table.mul(m, x) for m in mx) for x in sub}:
                acc = f.add_vec(acc, rep.at(q).a)
            rows.append(f.matmul(fr.a, np.ascontiguousarray(acc.T)))
        reduced = gauss(FMatrix(f, np.vstack(rows)))
        image = FMatrix(f, reduced.rref.a[: reduced.rank])
    return fixed.a.shape[0] - image.a.shape[0], fixed, image


def _row_space(m):
    g = gauss(m)
    return g.rref.a[: g.rank].tolist()


def _trace_image(bq):
    """The trace image of a quotient as independent rows of the module's
    space, formed from its coordinate rows."""
    f = bq.rep.field
    red = gauss(bq.coords)
    return FMatrix(f, f.matmul(red.rref.a[: red.rank], bq.fixed.a))


def check_walk_against_reference(rep, p, rng):
    """Brauer quotients at every subgroup of rep.table, each passed in a
    shuffled index order and the subgroups in a shuffled order, against the
    reference; the walk solves one fixed space per nontrivial subgroup, and
    asking again, in other orders, solves none."""
    subs = rep.table.subgroups(range(rep.table.order))
    calls = []
    real = modrep.fixed_point_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    modrep.fixed_point_rows = counted
    try:
        got = {}
        for _ in range(2):
            for S in rng.sample(subs, len(subs)):
                got[S] = brauer_quotient(rep, rng.sample(sorted(S), len(S)), p)
            assert len(calls) == len(subs) - 1
    finally:
        modrep.fixed_point_rows = real
    # every memoized fixed basis is the identity at its columns, so the
    # entries there are coordinates
    assert len(rep._fixed) == len(subs) - 1
    for rows, cols, _ in rep._fixed.values():
        assert np.array_equal(rows.a[:, cols],
                              np.eye(len(cols), dtype=rows.a.dtype))
    # the reference multiplies the same generator matrices down the parent
    # chain, whether or not rep keeps tensor factors
    literal = ModuleRep(rep.table, rep.field, rep.gen_mats)
    for S in subs:
        dim, fixed, image = reference_brauer_quotient(literal, S, p)
        bq = got[S]
        assert bq.subgroup == tuple(sorted(S))
        assert bq.dim == dim
        # a cyclic subgroup at p = 2 takes its dimension from the walk
        # block by rank-nullity; its coordinate rows give the same rank
        assert bq.dim == bq.fixed.a.shape[0] - gauss(bq.coords).rank
        assert _row_space(bq.fixed) == _row_space(fixed)
        assert np.array_equal(bq.fixed.a[:, bq.cols],
                              np.eye(len(bq.cols), dtype=bq.fixed.a.dtype))
        image_rows = _trace_image(bq)
        assert _row_space(image_rows) == _row_space(image)
        assert image_rows.a.shape[0] == bq.fixed.a.shape[0] - bq.dim


def _random_invertible(f, n, rng):
    while True:
        s = FMatrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
        if s.rank() == n:
            return s


def _permutation_sum(P, p, f, subs, rng):
    """The sum of the permutation modules k[R\\P] over the subgroups R of
    subs, in a random basis."""
    blocks = []
    for R in subs:
        ctx = InducedContext(P, sorted(R))
        triv = character_group(ctx.ntable, ctx.ntable.abelianization_pprime(p),
                               f)[0]
        blocks.append(ctx.induce(triv).gen_mats)
    n = sum(b[0].shape[0] for b in blocks)
    mats = []
    for k in range(len(P.gens)):
        m = np.zeros((n, n), dtype=f.dtype)
        at = 0
        for b in blocks:
            d = b[k].shape[0]
            m[at:at + d, at:at + d] = b[k].a
            at += d
        mats.append(FMatrix(f, m))
    s = _random_invertible(f, n, rng)
    sinv = s.inverse()
    return ModuleRep(P, f, [s @ m @ sinv for m in mats])


# the p-groups of the oracle, with their fields
WALK_GROUPS = {
    "d8": ([perm(4, (0, 1, 2, 3)), perm(4, (1, 3))], 2, (1, 2)),
    "klein": ([perm(4, (0, 1), (2, 3)), perm(4, (0, 2), (1, 3))], 2, (1, 2)),
    "c3xc3": ([perm(6, (0, 1, 2)), perm(6, (3, 4, 5))], 3, (1,)),
    "c9": ([perm(9, tuple(range(9)))], 3, (1,)),
}


@given(data=st.data(), name=st.sampled_from(sorted(WALK_GROUPS)),
       end=st.booleans())
@settings(max_examples=60, deadline=None)
def test_walk_matches_per_subgroup_reference(data, name, end):
    """A sum U of permutation modules k[R\\P] over random subgroups R, in a
    random basis, or (one R) the factored End module dual(U) tensor U: the
    walk in fixed-space coordinates against the reference."""
    gens, p, degrees = WALK_GROUPS[name]
    P = GroupTable(PermOps(len(gens[0])), gens)
    f = field_make(p, data.draw(st.sampled_from(degrees)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    subs = P.subgroups(range(P.order))
    rep = _permutation_sum(P, p, f, data.draw(st.lists(
        st.sampled_from(subs), min_size=1, max_size=1 if end else 3)), rng)
    if end:
        rep = rep.dual().tensor(rep)
        assert rep.factors
    check_walk_against_reference(rep, p, rng)


@pytest.mark.parametrize("name", ["A5", "3A6"])
def test_walk_matches_reference_on_restricted_end_modules(k_report, name):
    """End(U) restricted to P for the correspondents and the rejected
    summands up to dimension 9."""
    res = k_report(name)
    pt = subgroup_table(res.table, res.sylow)
    rng = random.Random(11)
    mods = [m for r in res.records for m in [r.rep, *r.reject_reps]
            if m.dim <= 9]
    assert mods
    for u in mods:
        rest = u.restrict(pt)
        check_walk_against_reference(rest.dual().tensor(rest), 2, rng)


def test_walk_matches_reference_on_a_factored_end_module(k_report):
    """End(U) restricted to P, kept as dual(U) tensor U over GF(4), for the
    smallest rejected 3A6 summand of dimension at least 14."""
    res = k_report("3A6")
    pt = subgroup_table(res.table, res.sylow)
    u = min((m for r in res.records for m in r.reject_reps if m.dim >= 14),
            key=lambda m: m.dim)
    rest = u.restrict(pt)
    end = rest.dual().tensor(rest)
    assert end.factors and end.field.q == 4 and end.dim >= 196
    check_walk_against_reference(end, 2, random.Random(13))


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_walk_matches_reference_on_factored_tensor_modules(name):
    """dual(U) tensor V for permutation modules U, V of each oracle p-group
    in random bases, over GF(2) and GF(3): the walk's block stands in for a
    trace only in characteristic 2."""
    gens, p, _ = WALK_GROUPS[name]
    P = GroupTable(PermOps(len(gens[0])), gens)
    f = field_make(p, 1)
    rng = random.Random(17)
    mods = []
    for _ in range(2):
        s = _random_invertible(f, P.ops.degree, rng)
        sinv = s.inverse()
        mods.append(ModuleRep(P, f, [s @ m @ sinv
                                     for m in perm_module(P, f).gen_mats]))
    check_walk_against_reference(mods[0].dual().tensor(mods[1]), p, rng)


def test_walk_matches_reference_at_p5_with_several_maximal_subgroups():
    """C5 x C5 over GF(5), whose six subgroups of order 5 are each a
    maximal subgroup: the five not on the walk take their traces from
    (rep(g) - 1)^4.  k ⊕ k[R\\P] ⊕ k[S\\P] for two of them in a random
    basis, whose quotient at P is k, and its factored End module."""
    P = GroupTable(PermOps(10), [perm(10, (0, 1, 2, 3, 4)),
                                 perm(10, (5, 6, 7, 8, 9))])
    f = field_make(5, 1)
    maximal = [mx for mx, _ in _maximal_subgroups(P, range(P.order), 5)]
    assert len(maximal) == 6
    rng = random.Random(19)
    for R, S in ((maximal[0], maximal[1]), (maximal[2], maximal[5])):
        rep = _permutation_sum(P, 5, f, [range(P.order), R, S], rng)
        check_walk_against_reference(rep, 5, rng)
        assert brauer_quotient(rep, range(P.order), 5).dim == 1
        check_walk_against_reference(rep.dual().tensor(rep), 5, rng)


def test_brauer_quotient_rejects_a_set_not_closed_under_the_product():
    G = a5()
    rep = perm_module(G, field_make(2, 1))
    u = next(x for x in range(G.order) if G.order_of(x) == 2)
    v = next(x for x in range(G.order) if G.order_of(x) == 2
             and G.mul(u, x) not in (0, u, x))
    for bad in ([0, u, v], [u], [0, u, G.mul(u, v)]):
        with pytest.raises(ValueError, match="not closed under"):
            brauer_quotient(rep, bad, 2)


def test_brauer_quotient_rejects_a_subgroup_of_order_prime_to_p():
    G = a5()
    rep = perm_module(G, field_make(2, 1))
    c3 = sorted(G.closure([next(x for x in range(G.order)
                                if G.order_of(x) == 3)]))
    with pytest.raises(ValueError, match="order 3 is not a 2-subgroup"):
        brauer_quotient(rep, c3, 2)
    s3 = sorted(G.normalizer(c3))
    with pytest.raises(ValueError, match="order 6 is not a 2-subgroup"):
        brauer_quotient(rep, s3, 2)
    rep3 = perm_module(G, field_make(3, 1))
    assert brauer_quotient(rep3, c3, 3).dim == _fixed_points(G, c3)


def test_brauer_quotient_rejects_a_prime_other_than_the_characteristic():
    """The trace (g - 1)^(p-1) is sum_{k<p} g^k only in characteristic p."""
    G = a5()
    c3 = sorted(G.closure([next(x for x in range(G.order)
                                if G.order_of(x) == 3)]))
    v4 = G.sylow(2)
    for (p, e), sub, q in (((2, 1), c3, 3), ((2, 2), c3, 3), ((3, 1), v4, 2),
                           ((5, 1), c3, 3)):
        rep = perm_module(G, field_make(p, e))
        with pytest.raises(ValueError,
                           match=f"at p = {q} of a module in characteristic {p}"):
            brauer_quotient(rep, sub, q)


@given(st.sets(st.integers(0, 11), max_size=6))
@settings(max_examples=60, deadline=None)
def test_brauer_quotient_on_random_subsets_of_a4(subset):
    """A subset of A4 is a 2-subgroup, with the reference's quotient, or a
    ValueError."""
    G = GroupTable(PermOps(4), [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])
    rep = perm_module(G, field_make(2, 2))
    closed = G.closure(subset) == frozenset(subset)
    if closed and len(subset) in (1, 2, 4):
        assert brauer_quotient(rep, subset, 2).dim == \
            reference_brauer_quotient(rep, subset, 2)[0] == \
            _fixed_points(G, subset)
    else:
        with pytest.raises(ValueError):
            brauer_quotient(rep, subset, 2)


def test_jordan_profile_matches_int64_reference():
    """rep(g) - 1 formed in the field dtype gives the profile the int64
    subtraction gave, in characteristic 2 and 3."""
    rng = random.Random(5)
    for name, (gens, p, degrees) in sorted(WALK_GROUPS.items()):
        P = GroupTable(PermOps(len(gens[0])), gens)
        for e in degrees:
            f = field_make(p, e)
            rep = perm_module(P, f)
            s = _random_invertible(f, rep.dim, rng)
            rep = ModuleRep(P, f, [s @ m @ s.inverse() for m in rep.gen_mats])
            for u in range(P.order):
                a = FMatrix(f, f.sub_vec(rep.at(u).a.astype(np.int64),
                                         np.eye(rep.dim, dtype=np.int64)))
                ranks, power = [rep.dim], a
                while ranks[-1]:
                    ranks.append(power.rank())
                    power = power @ a
                ranks.append(0)
                want = {j: ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
                        for j in range(1, len(ranks) - 1)}
                assert jordan_profile(rep, u) == \
                    {j: c for j, c in want.items() if c}, (name, e, u)


def test_jordan_profile_rejects_an_element_that_is_not_unipotent():
    """The regular module of C3 <= A5 over GF(2): (m - 1)^j keeps rank 2
    for every j, so the ranks never reach 0 and the profile is refused."""
    G = a5()
    c3 = subgroup_table(G, G.closure([next(x for x in range(G.order)
                                           if G.order_of(x) == 3)]))
    f = field_make(2, 1)
    ctx = InducedContext(c3, [0])
    triv = character_group(ctx.ntable, ctx.ntable.abelianization_pprime(2),
                           f)[0]
    reg = ctx.induce(triv)
    assert reg.dim == 3
    for u in range(1, 3):
        with pytest.raises(ValueError, match="does not act unipotently"):
            jordan_profile(reg, u)
    assert jordan_profile(reg, 0) == {1: 3}
    # an involution of A5 on the permutation module is still profiled
    rep = perm_module(G, f)
    inv = next(x for x in range(G.order) if G.order_of(x) == 2)
    assert jordan_profile(rep, inv) == {1: 1, 2: 2}


@pytest.mark.parametrize("name", ["A4", "A5", "PSL(2,7)", "3A6"])
def test_image_and_action_scalars_on_tensor_squares(k_report, name):
    """The Brauer quotients at P of the tensor squares that
    ``--tensor-power 2`` checks: the image formed from the coordinate rows
    spans the reference image, and the action scalars are those of the
    reference fixed rows and image."""
    res = k_report(name)
    nt = res.ctx.ntable
    S = res.ctx.g2n[res.sylow].tolist()
    checked = 0
    for r in res.records:
        if not r.endotrivial:
            continue
        square = r.rep.restrict(nt).tensor_power(2)
        bq = brauer_quotient(square, S, 2)
        assert bq.dim == 1
        image = _trace_image(bq)
        literal = ModuleRep(nt, square.field, square.gen_mats)
        ref_dim, ref_fixed, ref_image = reference_brauer_quotient(literal, S, 2)
        assert ref_dim == bq.dim
        assert _row_space(image) == _row_space(ref_image)
        assert image.a.shape[0] == ref_image.a.shape[0]
        assert bq.action_scalars(nt.gen_idx) == \
            [action_scalar_reference(literal, ref_fixed, ref_image, g)
             for g in nt.gen_idx]
        checked += 1
    assert checked


def test_brauer_action_scalar_trivial():
    G = a5()
    f = field_make(2, 2)
    one = ModuleRep(G, f, [FMatrix.identity(f, 1) for _ in G.gens])
    P = G.sylow(2)
    bq = brauer_quotient(one, P, 2)
    assert bq.dim == 1
    for g in range(0, G.order, 11):
        N = G.normalizer(P)
        if g in N:
            assert bq.action_scalars([g]) == [1]


def action_scalar_reference(rep, fixed, image, g):
    """The scalar by which g acts on a 1-dimensional Brauer quotient with
    the given fixed rows and trace image rows: the first fixed row whose
    rank probe against the image grows the rank is the base, and g applied
    to it is solved in image rows plus the base."""
    f = rep.field
    img = image.a
    base = None
    for r in range(fixed.a.shape[0]):
        cand = np.vstack([img, fixed.a[r:r + 1]])
        if FMatrix(f, cand).rank() == img.shape[0] + 1:
            base = fixed.a[r]
            break
    assert base is not None
    w = rep.at(g) @ FMatrix(f, base[:, None].copy())
    sol = solve_right(FMatrix(f, np.vstack([img, base[None, :]])).T, w)
    assert sol is not None
    return int(sol.a[-1, 0])


@pytest.mark.parametrize("name,p", [
    pytest.param("A5", 2, id="A5"), pytest.param("3A6", 2, id="3A6"),
    pytest.param("A5", 3, id="A5-3"), pytest.param("A5", 5, id="A5-5"),
    pytest.param("A6", 3, id="A6-3"), pytest.param("PSL(2,11)", 5,
                                                   id="PSL(2,11)-5")])
def test_action_scalar_matches_rank_probes(k_report, name, p):
    """On every Green correspondent, at P, for every element of N_G(P)."""
    res = k_report(name, p)
    assert res.p == p == res.field_p
    for r in res.records:
        bq = brauer_quotient(r.rep, res.sylow, p)
        assert bq.dim == 1
        gs = res.ctx.n_indices
        image = _trace_image(bq)
        assert bq.action_scalars(gs) == [
            action_scalar_reference(bq.rep, bq.fixed, image, g) for g in gs]


def test_action_scalar_base_skips_rows_inside_the_image():
    """A fixed row inside the image comes first; the base is the next one.
    An element that moves the base out of the fixed rows is refused."""
    C3 = GroupTable(PermOps(3), [perm(3, (0, 1, 2))])
    f = field_make(2, 2)
    w = f.root_of_unity(3)
    rep = ModuleRep(C3, f, [FMatrix(f, [[w, 0, 0], [0, w, 0], [0, 0, w]])])
    # fixed rows, the identity at columns 0 and 1, with image coordinates
    # [1, 0]: the image is the first fixed row
    bq = BrauerQuotient(rep, (0,), FMatrix(f, [[1, 0, 1], [0, 1, 1]]),
                        np.array([0, 1]), FMatrix(f, [[1, 0]]), 1)
    image = _trace_image(bq)
    assert image.a.tolist() == [[1, 0, 1]]
    g, g2 = C3.gen_idx[0], C3.mul(C3.gen_idx[0], C3.gen_idx[0])
    assert bq.action_scalars([0, g, g2]) == \
        [action_scalar_reference(rep, bq.fixed, image, x) for x in (0, g, g2)] \
        == [1, w, f.mul(w, w)]
    cyc = ModuleRep(C3, f, [FMatrix(f, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
    moved = BrauerQuotient(cyc, (0,), FMatrix(f, [[1, 0, 0], [0, 1, 0]]),
                           np.array([0, 1]), FMatrix(f, [[1, 0]]), 1)
    assert moved.action_scalars([0]) == [1]
    with pytest.raises(RuntimeError, match="must normalize the subgroup"):
        moved.action_scalars([0, g])


def test_brauer_action_scalar_needs_dimension_one():
    # the trivial module of dimension 2: every trace from a maximal subgroup
    # of P is 2 = 0, so the quotient at P is all of it
    G = a5()
    f = field_make(2, 2)
    two = ModuleRep(G, f, [FMatrix.identity(f, 2) for _ in G.gens])
    P = G.sylow(2)
    bq = brauer_quotient(two, P, 2)
    assert bq.dim == 2
    with pytest.raises(ValueError, match="1-dimensional"):
        bq.action_scalars([0])
    with pytest.raises(RuntimeError, match="dim 2, expected 1"):
        bq_character(two, P, 2, None, {})


# -- induction ----------------------------------------------------------------

def test_induced_context_basics(a5ctx):
    G, P, ctx = a5ctx
    assert ctx.dim == 5
    assert ctx.transversal[0] == 0
    # transversal hits every coset exactly once
    seen = {ctx.coset_of[t] for t in ctx.transversal}
    assert len(seen) == 5
    # pairprod entries: t_i * t_j^-1
    for i in range(5):
        for j in range(5):
            want = G.mul(ctx.transversal[i], G.inv(ctx.transversal[j]))
            assert ctx.pairprod[i, j] == want


def test_induced_module_is_homomorphism(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    for lam in chars:
        ind = ctx.induce(lam)
        assert ind.dim == 5
        rng = random.Random(3)
        for _ in range(12):
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            assert (ind.at(i) @ ind.at(j)).a.tolist() == \
                ind.at(G.mul(i, j)).a.tolist()
        # restriction to N acts on the identity-coset line by lambda
        for n in ctx.n_indices:
            col = ind.at(n).a[:, 0]
            assert col[0] == lam.value(ctx.ntable.idx(n))


def test_calling_convention_errors(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    lam = character_group(ctx.ntable, ab, f)[1]
    with pytest.raises(ValueError, match="exponents"):
        type(lam)(ctx.ntable, ab, f, lam.exps + (0,))
    rep = perm_module(G, field_make(2, 1))
    with pytest.raises(ValueError, match="matrices for 2 generators"):
        ModuleRep(G, rep.field, rep.gen_mats[:1])
    with pytest.raises(ValueError, match="different group tables"):
        rep.tensor(perm_module(a5(), rep.field))
    other = InducedContext(G, ctx.n_indices)
    with pytest.raises(ValueError, match="another subgroup table"):
        other.induce(lam)


def test_good_double_cosets(a5ctx):
    G, P, ctx = a5ctx
    f = field_make(2, 2)
    ab = ctx.ntable.abelianization_pprime(2)
    chars = character_group(ctx.ntable, ab, f)
    n_dcs = len(ctx.dc_reps)
    # trivial character: every double coset is good
    assert ctx.good_dcs(chars[0]) == list(range(n_dcs))
    assert 0 in ctx.good_dcs(chars[1])
    # independent count: g is good iff the character agrees with its
    # g-conjugate on the intersection N cap gNg^-1
    nset = set(ctx.n_indices)
    nt = ctx.ntable
    for lam in chars:
        good = []
        for d, g in enumerate(ctx.dc_reps):
            gi = G.inv(g)
            ok = True
            for x in ctx.n_indices:
                y = G.mul(G.mul(gi, x), g)
                if y in nset:
                    if lam.value(nt.idx(x)) != \
                            lam.value(nt.idx(y)):
                        ok = False
                        break
            if ok:
                good.append(d)
        assert ctx.good_dcs(lam) == good


# -- the scalar coset loops as the reference for InducedContext ----------------

def reference_induced_context(G, n_indices):
    """The per-element coset and double-coset loops InducedContext ran before
    the orbit labeller: transversal, coset_of, npart, dc_reps, dc_of, nnprod,
    the difference sets dc_diffs (N-table indices whose lambda-values must be
    1) and pairprod."""
    nt = subgroup_table(G, n_indices)
    N = sorted(n_indices)
    coset_of, npart, trans = [-1] * G.order, [-1] * G.order, []
    for x in range(G.order):
        if coset_of[x] < 0:
            trans.append(x)
            for n in N:
                coset_of[G.mul(n, x)] = len(trans) - 1
                npart[G.mul(n, x)] = n
    dc_of, nnprod, reps, diffs = [-1] * G.order, [-1] * G.order, [], []
    for x in range(G.order):
        if dc_of[x] >= 0:
            continue
        reps.append(x)
        d = set()
        for n1 in N:
            for n2 in N:
                y, pr = G.mul(G.mul(n1, x), n2), G.mul(n1, n2)
                if dc_of[y] < 0:
                    dc_of[y], nnprod[y] = len(reps) - 1, pr
                else:
                    d.add(nt.idx(G.mul(G.inv(nnprod[y]), pr)))
        diffs.append(d)
    pairprod = [[G.mul(ti, G.inv(tj)) for tj in trans] for ti in trans]
    return dict(transversal=trans, coset_of=coset_of, npart=npart,
                dc_reps=reps, dc_of=dc_of, nnprod=nnprod, dc_diffs=diffs,
                pairprod=pairprod)


def check_against_reference(G, n_indices):
    ctx = InducedContext(G, n_indices)
    ref = reference_induced_context(G, n_indices)
    for key in ("transversal", "coset_of", "npart", "dc_reps", "dc_of",
                "nnprod", "pairprod"):
        assert np.asarray(getattr(ctx, key)).tolist() == ref[key], key
    # the difference sets and the meets N cap xNx^-1 state one condition:
    # lambda(a) = lambda(x^-1 a x) on the meet exactly when lambda is 1 on
    # the differences, so both generate one normal subgroup of N
    nt = ctx.ntable
    assert ctx.dc_meet.shape == (nt.order, len(ref["dc_diffs"]))
    for col, diffs in zip(ctx.dc_meet.T.tolist(), ref["dc_diffs"]):
        quot = {nt.mul(nt.idx(n), nt.inv(b))
                for n, b in zip(ctx.n_indices, col) if b >= 0}
        assert nt.normal_closure(quot) == nt.normal_closure(diffs)
    return ctx


@pytest.mark.parametrize("name", ["A4", "A5", "S4", "D16", "PSL(2,7)",
                                  "PGL(2,5)", "PSL(2,9)"])
def test_induced_context_matches_scalar_loops(name):
    G = catalog.lookup(name).builder()
    check_against_reference(G, G.normalizer(G.sylow(2)))
    check_against_reference(G, G.sylow(2))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_induced_context_matches_scalar_loops_on_random_subgroups(data):
    degree = data.draw(st.integers(1, 5))
    gens = [tuple(data.draw(st.permutations(range(degree))))
            for _ in range(data.draw(st.integers(1, 3)))]
    G = GroupTable(PermOps(degree), gens)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    check_against_reference(G, G.closure(seed))


# -- subgroup tables on ambient indices ----------------------------------------

@pytest.mark.parametrize("name", ["A4", "A5", "S4", "D16", "PSL(2,7)",
                                  "PGL(2,9)", "PGL(2,13)", "3A6"])
def test_subgroup_tables_match_raw_reenumeration(name):
    """The ambient-index enumeration visits the same generators in the same
    order as a re-enumeration of the raw elements, so every index agrees."""
    G = catalog.lookup(name).builder()
    P = G.sylow(2)
    for idx in (P, G.normalizer(P)):
        sub = subgroup_table(G, idx)
        raw = GroupTable(G.ops, [G.elements[i] for i in G.small_gens(idx)]
                         or [G.elements[0]], cap=len(idx) + 1)
        assert sub.elements == [G.idx(x) for x in raw.elements]
        assert sub.edges.tolist() == raw.edges.tolist()
        assert sub.gen_idx == raw.gen_idx
        assert sub.gens == G.small_gens(idx)


def test_restrict_rejects_a_foreign_table():
    G = a5()
    rep = perm_module(G, field_make(2, 1))
    P = G.sylow(2)
    with pytest.raises(ValueError, match="not a subgroup table"):
        rep.restrict(subgroup_table(a5(), P))
    with pytest.raises(ValueError, match="not a subgroup table"):
        rep.restrict(G)
