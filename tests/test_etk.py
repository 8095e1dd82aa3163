"""Classification layer tests.

Abelian invariants against hand-built groups, the transitive-summand solver
and endomorphism expansion against literal module computations, and the full
classification of two alternating groups against known answers.
"""
import dataclasses
import random

import numpy as np
import pytest

from endotriv.etk import (SylowClasses, bq_character, compute_K,
                          endomorphism_type,
                          green_correspondent, is_endotrivial_char,
                          is_endotrivial_direct, minimal_field_degree,
                          permutation_type, quotient_invariants,
                          subgroup_invariants, tensor_power_class,
                          theorem_check, x_group)
from endotriv.ffla import FMatrix, field_make
from endotriv.grp import GroupTable, PermOps
from endotriv.modrep import InducedContext, brauer_quotient, character_group


def perm(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def a4():
    return GroupTable(PermOps(4), [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])


def a5():
    return GroupTable(PermOps(5),
                      [perm(5, (0, 1, 2)), perm(5, (0, 1, 2, 3, 4))])


def d8():
    return GroupTable(PermOps(4), [perm(4, (0, 1, 2, 3)), perm(4, (1, 3))])


def v4():
    return GroupTable(PermOps(4), [perm(4, (0, 1), (2, 3)),
                                   perm(4, (0, 2), (1, 3))])


# -- splitting field degree ---------------------------------------------------

def test_minimal_field_degree():
    # multiplicative order of p modulo each character order, lcm'ed
    assert minimal_field_degree(2, [1]) == 1
    assert minimal_field_degree(2, [3]) == 2
    assert minimal_field_degree(2, [7]) == 3
    assert minimal_field_degree(2, [5]) == 4
    assert minimal_field_degree(2, [9]) == 6
    assert minimal_field_degree(2, [15]) == 4
    assert minimal_field_degree(2, [3, 7]) == 6
    assert minimal_field_degree(2, [1, 3, 9]) == 6
    assert minimal_field_degree(3, [2]) == 1
    assert minimal_field_degree(3, [4]) == 2
    assert minimal_field_degree(3, [8]) == 2
    assert minimal_field_degree(5, [3]) == 2


# -- abelian invariants -------------------------------------------------------

def test_subgroup_invariants_known_groups():
    full6 = [(i,) for i in range(6)]
    assert subgroup_invariants(full6, (6,)) == (6,)
    v = [(a, b) for a in range(2) for b in range(2)]
    assert subgroup_invariants(v, (2, 2)) == (2, 2)
    diag = [(0, 0), (1, 1)]
    assert subgroup_invariants(diag, (2, 2)) == (2,)
    assert subgroup_invariants([(0,), (2,)], (4,)) == (2,)
    assert subgroup_invariants([(0,), (4,), (8,)], (12,)) == (3,)
    grid = [(a, b) for a in range(2) for b in range(3)]
    assert subgroup_invariants(grid, (2, 3)) == (6,)
    box = [(a, b, c) for a in range(2) for b in range(2) for c in range(3)]
    assert subgroup_invariants(box, (2, 2, 3)) == (2, 6)
    assert subgroup_invariants([(0, 0)], (4, 9)) == ()


def test_quotient_invariants_known_groups():
    full4 = [(i,) for i in range(4)]
    assert quotient_invariants(full4, [(0,), (2,)], (4,)) == (2,)
    v = [(a, b) for a in range(2) for b in range(2)]
    assert quotient_invariants(v, [(0, 0), (1, 1)], (2, 2)) == (2,)
    assert quotient_invariants(v, [(0, 0)], (2, 2)) == (2, 2)
    full9 = [(i,) for i in range(9)]
    assert quotient_invariants(full9, [(0,), (3,), (6,)], (9,)) == (3,)
    assert quotient_invariants(full9, full9, (9,)) == ()


# -- Sylow subgroup classes ---------------------------------------------------

def test_sylow_classes_d8():
    G = d8()
    sc = SylowClasses(G, range(8))
    sizes = sorted(len(c) for c in sc.classes)
    assert sizes == [1, 2, 2, 2, 4, 4, 4, 8]
    cyc = sc.cyclic_nontrivial()
    assert sorted(len(sc.classes[i]) for i in cyc) == [2, 2, 2, 4]
    # every P-conjugate of every class maps to its class; a fresh instance
    # per conjugating element, so each lookup walks the orbit uncached
    for g in range(8):
        sc = SylowClasses(G, range(8))
        for i, cls in enumerate(sc.classes):
            conj = frozenset(sc.pt.conj(g, x) for x in cls)
            assert sc.class_of(conj) == i
    with pytest.raises(ValueError, match="not a subgroup"):
        sc.class_of(frozenset({1}))


def brute_fixed_cosets(sc, qi, ri):
    """Count cosets of class-ri representative fixed by the class-qi
    representative subgroup, by direct orbit inspection."""
    pt = sc.pt
    R = set(sc.classes[ri])
    Q = sc.classes[qi]
    cosets = set()
    for x in range(pt.order):
        cosets.add(frozenset(pt.mul(x, r) for r in R))
    fixed = 0
    for cos in cosets:
        x = min(cos)
        if all(frozenset(pt.mul(pt.mul(g, x), r) for r in R) == cos
               for g in Q):
            fixed += 1
    return fixed


def test_fixed_cosets_brute():
    for build in (v4, d8):
        G = build()
        sc = SylowClasses(G, range(G.order))
        for qi in range(len(sc.classes)):
            for ri in range(len(sc.classes)):
                assert sc.fixed_cosets(qi, ri) == brute_fixed_cosets(sc, qi, ri)


# -- permutation type recovery ------------------------------------------------

def coset_module(G, f, sub):
    """Permutation module on left cosets of sub, as a ModuleRep over f."""
    from endotriv.modrep import ModuleRep
    subset = set(sub)
    cosets = []
    seen = set()
    for x in range(G.order):
        cos = frozenset(G.mul(x, r) for r in subset)
        if cos not in seen:
            seen.add(cos)
            cosets.append(cos)
    index = {c: i for i, c in enumerate(cosets)}
    mats = []
    for g in G.gen_idx:
        m = np.zeros((len(cosets), len(cosets)), dtype=np.int64)
        for j, cos in enumerate(cosets):
            img = frozenset(G.mul(g, x) for x in cos)
            m[index[img], j] = 1
        mats.append(FMatrix(f, m.astype(f.dtype)))
    return ModuleRep(G, f, mats)


def direct_sum(f, reps):
    from endotriv.modrep import ModuleRep
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


@pytest.mark.parametrize("build", [v4, d8], ids=["v4", "d8"])
def test_permutation_type_roundtrip(build):
    G = build()
    f = field_make(2, 1)
    sc = SylowClasses(G, range(G.order))
    rng = random.Random(33)
    for cls in sc.classes:
        rep = coset_module(G, f, cls)
        # module axioms hold for the coset construction
        for i in range(G.order):
            for k in G.gen_idx:
                assert rep.at(i) @ rep.at(k) == rep.at(G.mul(i, k))
        dims = [brauer_quotient(rep, sc.ambient(c), 2).dim
                for c in sc.classes]
        got = permutation_type(dims, sc)
        assert got == {sc.classes.index(cls): 1}
    # random multiset of transitive pieces
    for _ in range(6):
        mult = {i: rng.randrange(3) for i in range(len(sc.classes))}
        mult = {i: m for i, m in mult.items() if m}
        if not mult:
            continue
        pieces = []
        for i, m in mult.items():
            pieces.extend([coset_module(G, f, sc.classes[i])] * m)
        rep = direct_sum(f, pieces)
        dims = [brauer_quotient(rep, sc.ambient(c), 2).dim
                for c in sc.classes]
        assert permutation_type(dims, sc) == mult


def test_permutation_type_rejects_garbage():
    G = v4()
    sc = SylowClasses(G, range(G.order))
    f = field_make(2, 1)
    rep = coset_module(G, f, sc.classes[0])
    dims = [brauer_quotient(rep, sc.ambient(c), 2).dim for c in sc.classes]
    dims[-1] += 1
    with pytest.raises(ArithmeticError):
        permutation_type(dims, sc)


@pytest.mark.parametrize("build", [v4, d8], ids=["v4", "d8"])
def test_endomorphism_type_matches_literal(build):
    G = build()
    f = field_make(2, 1)
    sc = SylowClasses(G, range(G.order))
    rng = random.Random(5)
    for _ in range(5):
        mult = {i: rng.randrange(2) for i in range(len(sc.classes))}
        mult = {i: m for i, m in mult.items() if m}
        if not mult:
            mult = {0: 1}
        pieces = []
        for i, m in mult.items():
            pieces.extend([coset_module(G, f, sc.classes[i])] * m)
        rep = direct_sum(f, pieces)
        end = rep.dual().tensor(rep)
        dims = [brauer_quotient(end, sc.ambient(c), 2).dim
                for c in sc.classes]
        assert permutation_type(dims, sc) == endomorphism_type(mult, sc)


# -- character group of the odd part ------------------------------------------

def test_x_group_orders():
    f = field_make(2, 2)
    xa4 = x_group(a4(), 2, f)
    assert sorted(c.order for c in xa4) == [1, 3, 3]
    assert len(x_group(a5(), 2, f)) == 1
    s3 = GroupTable(PermOps(3), [perm(3, (0, 1, 2)), perm(3, (0, 1))])
    # odd-part abelianization of S3 at p=2 kills the 3-cycle
    assert [c.order for c in x_group(s3, 2, f)] == [1]
    assert sorted(c.order for c in x_group(s3, 3, field_make(3, 1))) == [1, 2]


# -- full classification ------------------------------------------------------

@pytest.fixture(scope="module")
def a4_report():
    return compute_K(a4(), 2, field_make(2, 2), seed=0)


@pytest.fixture(scope="module")
def a5_report():
    return compute_K(a5(), 2, field_make(2, 2), seed=0)


def test_a4_report(a4_report):
    res = a4_report
    assert res.sylow_order == 4
    assert res.sylow_type == "klein_four"
    assert res.normalizer_order == 12
    assert res.xn_orders == (3,)
    assert sorted(r.order for r in res.records) == [1, 3, 3]
    assert res.k_invariants == (3,)
    assert res.x_image_invariants == (3,)
    assert res.tt_over_x == ()
    assert res.theorem_applies
    assert all(res.checks.values()), res.checks
    assert [r.dim for r in res.records] == [1, 1, 1]
    for r in res.records:
        assert r.endotrivial and r.endotrivial_direct
        assert r.simple and r.factors == (1,)
        assert r.bq_char_exps == r.exps
        assert r.brauer_vector == (1, 1, 1)


def test_a5_report(a5_report):
    res = a5_report
    assert res.sylow_order == 4
    assert res.sylow_type == "klein_four"
    assert res.normalizer_order == 12
    assert res.k_invariants == (3,)
    assert res.x_image_invariants == ()
    assert res.tt_over_x == (3,)
    assert all(res.checks.values()), res.checks
    dims = sorted(r.dim for r in res.records)
    assert dims == [1, 5, 5]
    for r in res.records:
        assert r.endotrivial and r.endotrivial_direct
        assert r.bq_char_exps == r.exps
        assert r.brauer_vector == (1, 1, 1)
        if r.dim == 5:
            assert not r.simple
            assert r.factors == (1, 2, 2)
            assert r.dim % res.sylow_order == 1


def test_direct_route_without_literal_budget(a5_report):
    res = a5_report
    sc = SylowClasses(res.table, res.sylow)
    for r in res.records:
        # budget 0 forces the combinatorial expansion path
        assert is_endotrivial_direct(r.rep, sc, 2, budget=0)
        ok, vec = is_endotrivial_char(r.rep, sc, 2)
        assert ok and vec == r.brauer_vector


def test_green_correspondent_uniqueness(a5_report):
    res = a5_report
    for lam in res.chars:
        corr, rest = green_correspondent(res.ctx, lam, res.sylow, 2,
                                         random.Random(9))
        assert brauer_quotient(corr.rep, res.sylow, 2).dim > 0
        for other in rest:
            if other is not corr:
                assert brauer_quotient(other.rep, res.sylow, 2).dim == 0


def test_tensor_power_class_a4(a4_report):
    res = a4_report
    cube = tensor_power_class(res, (1,), 3)
    assert cube["predicted_exps"] == [0]
    assert cube["endotrivial_input"] and cube["in_x_image"]
    assert cube["literal_checked"] and cube["literal_agrees"]
    assert cube["verdict"] == "one_dimensional_plus_projective"
    sq = tensor_power_class(res, (1,), 2)
    assert sq["predicted_exps"] == [2]
    assert sq["in_x_image"]
    assert sq["verdict"] == "one_dimensional_plus_projective"


def test_character_lookup_reads_brauer_actions(a4_report):
    """compute_K keys N's characters by their values on N's generators.  A
    Brauer action that matches no key is refused, and a tensor power whose
    action reads as another character than the predicted one disagrees."""
    res = a4_report
    nt = res.ctx.ntable
    assert res.char_by_values == {
        tuple(c.value(gi) for gi in nt.gen_idx): c for c in res.chars}
    rec = next(r for r in res.records if any(r.exps))
    lookup = res.char_by_values
    assert bq_character(rec.rep, res.sylow, 2, res.ctx, lookup).exps == rec.exps
    others = {k: c for k, c in lookup.items() if c.exps != rec.exps}
    with pytest.raises(RuntimeError, match="match no character"):
        bq_character(rec.rep, res.sylow, 2, res.ctx, others)
    keys, chars = list(lookup), list(lookup.values())
    rotated = dataclasses.replace(
        res, char_by_values=dict(zip(keys, chars[1:] + chars[:1])))
    for m in (2, 3):
        assert tensor_power_class(res, rec.exps, m)["literal_agrees"]
        out = tensor_power_class(rotated, rec.exps, m)
        assert out["literal_checked"] and out["literal_agrees"] is False


def test_tensor_power_class_a5(a5_report):
    res = a5_report
    lam = next(r.exps for r in res.records if r.dim == 5)
    cube = tensor_power_class(res, lam, 3)
    assert cube["predicted_exps"] == [0]
    assert cube["verdict"] == "one_dimensional_plus_projective"
    assert cube["literal_checked"] and cube["literal_agrees"]


def test_theorem_check_paths(a4_report):
    res = a4_report
    good = {"k_invariants": (3,), "x_image_invariants": (3,),
            "tt_over_x": (), "nontrivial_dims": (1, 1),
            "nontrivial_simple": True}
    assert theorem_check(res, good) == []
    bad = theorem_check(res, {"k_invariants": (9,)})
    assert len(bad) == 1 and "k_invariants" in bad[0]
    bad2 = theorem_check(res, {"nontrivial_simple": False})
    assert len(bad2) == 1 and "nontrivial_simple" in bad2[0]
    bad3 = theorem_check(res, {"nontrivial_dims": (1, 5)})
    assert len(bad3) == 1 and "nontrivial_dims" in bad3[0]


def test_seed_stability():
    r0 = compute_K(a5(), 2, field_make(2, 2), seed=0)
    r1 = compute_K(a5(), 2, field_make(2, 2), seed=1)
    key0 = [(r.exps, r.dim, r.summand_dims, r.brauer_vector, r.endotrivial,
             r.simple, r.factors) for r in r0.records]
    key1 = [(r.exps, r.dim, r.summand_dims, r.brauer_vector, r.endotrivial,
             r.simple, r.factors) for r in r1.records]
    assert key0 == key1
    assert r0.k_invariants == r1.k_invariants
