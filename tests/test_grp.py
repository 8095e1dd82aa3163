"""Group engine tests: enumeration, subgroup machinery, classification,
file format.  Structural values are checked against closed forms and brute
oracles computed here by direct element enumeration.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endotriv import catalog, grp
from endotriv.ffla import FieldTable, FMatrix, field_make
from endotriv.grp import (GroupTable, MatOps, PermOps, parse_group_file,
                          serialize_group_file)


def perm(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def cyclic(n):
    return GroupTable(PermOps(n), [perm(n, tuple(range(n)))])


def dihedral(order):
    m = order // 2
    return GroupTable(PermOps(m), [perm(m, tuple(range(m))),
                                   tuple((-i) % m for i in range(m))])


def a4():
    return GroupTable(PermOps(4), [perm(4, (0, 1, 2)), perm(4, (1, 2, 3))])


def a5():
    return GroupTable(PermOps(5), [perm(5, (0, 1, 2)),
                                   perm(5, (0, 1, 2, 3, 4))])


def s4():
    return GroupTable(PermOps(4), [perm(4, (0, 1, 2, 3)), perm(4, (0, 1))])


def q8():
    f3 = field_make(3, 1)
    i = np.array([[0, 2], [1, 0]], dtype=f3.dtype)
    j = np.array([[1, 1], [1, 2]], dtype=f3.dtype)
    return GroupTable(MatOps(f3, 2), [i, j])


def sd16():
    rot = perm(8, tuple(range(8)))
    flip = tuple((3 * i) % 8 for i in range(8))
    return GroupTable(PermOps(8), [rot, flip])


# -- enumeration basics -------------------------------------------------------

def test_orders():
    assert cyclic(12).order == 12
    assert dihedral(8).order == 8
    assert dihedral(16).order == 16
    assert a4().order == 12
    assert a5().order == 60
    assert s4().order == 24
    assert q8().order == 8
    assert sd16().order == 16


def test_identity_and_index():
    G = a5()
    assert G.elements[0] == tuple(range(5))
    for i in range(G.order):
        assert G.idx(G.elements[i]) == i
        assert G.mul(i, G.inv(i)) == 0
        assert G.mul(0, i) == i and G.mul(i, 0) == i


def test_words_evaluate_to_elements():
    G = a5()
    for i in range(0, G.order, 7):
        acc = 0
        for gi in G.word(i):
            acc = G.mul(acc, G.gen_idx[gi])
        assert acc == i


def pgl25():
    return catalog.lookup("PGL(2,5)").builder()


def check_edges_against_raw(G, right=None):
    """Recorded edges, every inv(i) and mul(i, j) for every i and every j in
    right (default: all of G) against the raw ops products."""
    ops = G.ops

    def raw_mul(a, b):
        return G.idx(ops.mul(a, b))

    for i, x in enumerate(G.elements):
        assert G.edges[:, i].tolist() == [raw_mul(x, g) for g in G.gens]
        assert G.inv(i) == G.idx(ops.inv(x))
    for j in range(G.order) if right is None else right:
        y = G.elements[j]
        for i, x in enumerate(G.elements):
            assert G.mul(i, j) == raw_mul(x, y)


@pytest.mark.parametrize("builder", [q8, s4, a5, pgl25])
def test_edge_mul_matches_raw(builder):
    check_edges_against_raw(builder())


@given(st.integers(1, 7), st.data())
@settings(max_examples=30, deadline=None)
def test_random_perm_edge_mul_matches_raw(degree, data):
    gens = [tuple(data.draw(st.permutations(range(degree))))
            for _ in range(data.draw(st.integers(1, 3)))]
    G = GroupTable(PermOps(degree), gens)
    # up to |S_7| = 5040 elements: every left factor, eight right factors
    right = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1,
                               max_size=8))
    check_edges_against_raw(G, right)


def test_cap_enforced():
    with pytest.raises(ValueError):
        GroupTable(PermOps(5), [perm(5, (0, 1, 2)), perm(5, (0, 1, 2, 3, 4))],
                   cap=30)


# -- layered enumeration against the scalar one -------------------------------

def scalar_enumeration(ops, gens, cap):
    """The breadth-first enumeration with one ops.mul per (element,
    generator): elements, index, parent, genidx, edges and layer bounds."""
    elements = [ops.identity()]
    index = {ops.key(elements[0]): 0}
    parent, genidx, rows, layers = [-1], [-1], [], [0, 1]
    queue = [0]
    while queue:
        nxt = []
        for i in queue:
            row = []
            for gi, g in enumerate(gens):
                y = ops.mul(elements[i], g)
                j = index.get(ops.key(y))
                if j is None:
                    if len(elements) >= cap:
                        raise ValueError(f"group enumeration exceeded cap {cap}")
                    j = index[ops.key(y)] = len(elements)
                    elements.append(y)
                    parent.append(i)
                    genidx.append(gi)
                    nxt.append(j)
                row.append(j)
            rows.append(row)
        queue = nxt
        layers.append(len(elements))
    edges = np.array(rows, dtype=np.int64).reshape(len(elements), -1).T
    return elements, index, parent, genidx, edges, layers


def check_against_scalar(ops, gens, cap):
    """GroupTable(ops, gens, cap) equals the scalar enumeration, or both
    refuse the cap."""
    try:
        ref = scalar_enumeration(ops, gens, cap)
    except ValueError:
        with pytest.raises(ValueError, match="exceeded cap"):
            GroupTable(ops, gens, cap=cap)
        return None
    G = GroupTable(ops, gens, cap=cap)
    elements, index, parent, genidx, edges, layers = ref
    assert len(G.elements) == len(elements)
    for x, y in zip(G.elements, elements):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert G.index == index
    assert G._parent == parent and G._genidx == genidx
    assert np.array_equal(G.edges, edges)
    assert G._layers == layers
    return G


ORACLE_FIELDS = [(2, 1), (2, 2), (5, 1), (5, 2)]


@st.composite
def matrix_groups(draw):
    """A few invertible d x d generators over a small field, d = 1..4: dense
    random ones, and monomial ones with entries +-1, whose groups stay
    small enough to finish under the cap."""
    f = field_make(*draw(st.sampled_from(ORACLE_FIELDS)))
    d = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            codes = st.lists(st.integers(0, f.q - 1), min_size=d * d, max_size=d * d)
            a = np.array(draw(codes.filter(
                lambda c: FMatrix(f, np.array(c).reshape(d, d)).rank() == d)),
                dtype=f.dtype).reshape(d, d)
        else:
            a = np.zeros((d, d), dtype=f.dtype)
            signs = draw(st.lists(st.sampled_from([1, f.neg(1)]), min_size=d, max_size=d))
            a[np.arange(d), draw(st.permutations(range(d)))] = signs
        gens.append(a)
    return MatOps(f, d), gens


@pytest.mark.parametrize("chunk", [None, 1, 2], ids=["default", "chunk1", "chunk2"])
@given(matrix_groups())
@settings(max_examples=60, deadline=None)
def test_layered_enumeration_matches_scalar(chunk, group):
    """chunk: matrices per stacked product (None: the module's constant),
    so 1 and 2 put chunk boundaries inside every layer."""
    ops, gens = group
    codes = grp.LAYER_CHUNK_CODES if chunk is None else chunk * ops.dim ** 2
    with mock.patch.object(grp, "LAYER_CHUNK_CODES", codes):
        check_against_scalar(ops, gens, cap=600)


@pytest.mark.parametrize("name", ["3A6", "C9*3A6"])
def test_cover_enumeration_matches_scalar(name):
    G = catalog.lookup(name).builder()
    assert check_against_scalar(G.ops, G.gens, cap=G.order) is not None


def test_cover_layers_are_one_product_per_generator(monkeypatch):
    """A whole layer of a 3 x 3 catalog group fits one chunk: the build takes
    one matmul per (nonempty layer, generator)."""
    ops, gens = parse_group_file(catalog._data_text("three_a6_gf4.txt"))
    calls = []
    monkeypatch.setattr(ops.field, "matmul",
                        lambda a, b: calls.append(a.shape) or FieldTable.matmul(ops.field, a, b))
    G = GroupTable(ops, gens)
    sizes = np.diff(G._layers)[:-1]
    assert G.order == 1080 and len(sizes) == 8
    assert calls == [(3 * int(m), 3) for m in sizes for _ in gens]


def test_cap_boundary_on_3a6():
    ops, gens = parse_group_file(catalog._data_text("three_a6_gf4.txt"))
    assert GroupTable(ops, gens, cap=1080).order == 1080
    with pytest.raises(ValueError, match="exceeded cap 1079"):
        GroupTable(ops, gens, cap=1079)


def test_order_of_and_power():
    G = cyclic(12)
    g = G.gen_idx[0]
    assert G.order_of(g) == 12
    assert G.power(g, 12) == 0
    assert G.order_of(G.power(g, 4)) == 3
    assert G.power(g, -1) == G.inv(g)


def test_conj():
    G = s4()
    for g in range(0, G.order, 3):
        for x in range(0, G.order, 5):
            lhs = G.conj(g, x)
            rhs = G.mul(G.mul(g, x), G.inv(g))
            assert lhs == rhs


# -- subgroup machinery -------------------------------------------------------

def test_closure_is_subgroup():
    G = a5()
    sub = G.closure([G.gen_idx[0]])
    assert len(sub) == 3
    for x in sub:
        for y in sub:
            assert G.mul(x, y) in sub


def test_center():
    assert len(dihedral(8).center()) == 2
    assert len(q8().center()) == 2
    assert len(a5().center()) == 1
    assert len(cyclic(6).center()) == 6


def test_derived_subgroups():
    assert len(a4().derived_subgroup()) == 4
    assert len(s4().derived_subgroup()) == 12
    assert len(dihedral(8).derived_subgroup()) == 2
    assert a5().is_perfect()
    assert not s4().is_perfect()


def test_normal_closure():
    G = s4()
    # normal closure of a transposition is everything
    t = G.idx(perm(4, (0, 1)))
    assert len(G.normal_closure({t})) == 24
    # normal closure of a double transposition is the Klein four-group
    d = G.idx(perm(4, (0, 1), (2, 3)))
    assert len(G.normal_closure({d})) == 4


SYLOW_TABLE = [
    # builder, |G|, |P|, |N_G(P)|
    (a4, 12, 4, 12),
    (a5, 60, 4, 12),
    (s4, 24, 8, 8),
    (lambda: dihedral(8), 8, 8, 8),
    (lambda: cyclic(12), 12, 4, 12),
]


@pytest.mark.parametrize("builder,order,sp,sn", SYLOW_TABLE)
def test_sylow_and_normalizer_closed_forms(builder, order, sp, sn):
    G = builder()
    assert G.order == order
    P = G.sylow(2)
    assert len(P) == sp
    # every element order is a power of 2, and P is a subgroup
    for x in P:
        o = G.order_of(x)
        assert o & (o - 1) == 0
    assert set(G.closure(P)) == set(P)
    N = G.normalizer(P)
    assert len(N) == sn
    ps = set(P)
    for g in N:
        assert {G.conj(g, x) for x in P} == ps


def test_normalizer_brute():
    G = a5()
    P = G.sylow(2)
    ps = set(P)
    brute = [g for g in range(G.order)
             if {G.conj(g, x) for x in P} == ps]
    assert sorted(G.normalizer(P)) == brute


def test_o_pprime():
    assert len(a4().o_pprime(2)) == 1
    assert len(cyclic(6).o_pprime(2)) == 3
    assert len(cyclic(12).o_pprime(2)) == 3
    s3 = GroupTable(PermOps(3), [perm(3, (0, 1, 2)), perm(3, (0, 1))])
    assert len(s3.o_pprime(2)) == 3
    assert len(s3.o_pprime(3)) == 1


def _brute_subgroups(G):
    """All subgroups by closing small seeds; complete for tiny groups."""
    found = {frozenset({0})}
    idxs = list(range(G.order))
    for a in idxs:
        found.add(G.closure([a]))
        for b in idxs[a:]:
            found.add(G.closure([a, b]))
    return found


def test_subgroups_up_to_conj_d8():
    G = dihedral(8)
    P = list(range(G.order))
    reps = G.subgroups_up_to_conj(P)
    # D8 has 10 subgroups in 8 conjugacy classes
    brute = _brute_subgroups(G)
    assert len(brute) == 10
    classes = set()
    for s in brute:
        orbit = {frozenset(G.conj(g, x) for x in s) for g in range(G.order)}
        classes.add(min(tuple(sorted(o)) for o in orbit))
    assert len(classes) == 8
    assert sorted(reps) == sorted(classes)
    # ordering is by size then tuple
    sizes = [len(r) for r in reps]
    assert sizes == sorted(sizes)


def test_subgroups_up_to_conj_klein():
    G = a4()
    P = G.sylow(2)
    reps = G.subgroups_up_to_conj(P)
    assert [len(r) for r in reps] == [1, 2, 2, 2, 4]


def test_classify_2group():
    assert cyclic(1).classify_2group(cyclic(1).sylow(2)) == "trivial"
    c2 = cyclic(2)
    assert c2.classify_2group(c2.sylow(2)) == "cyclic"
    c8 = cyclic(8)
    assert c8.classify_2group(c8.sylow(2)) == "cyclic"
    k = GroupTable(PermOps(4), [perm(4, (0, 1)), perm(4, (2, 3))])
    assert k.classify_2group(list(range(4))) == "klein_four"
    d8 = dihedral(8)
    assert d8.classify_2group(list(range(8))) == "dihedral"
    d16 = dihedral(16)
    assert d16.classify_2group(list(range(16))) == "dihedral"
    q = q8()
    assert q.classify_2group(list(range(8))) == "quaternion"
    sd = sd16()
    assert sd.classify_2group(list(range(16))) == "semidihedral"
    c42 = GroupTable(PermOps(6), [perm(6, (0, 1, 2, 3)), perm(6, (4, 5))])
    assert c42.classify_2group(list(range(8))) == "other"


def test_abelianization_pprime():
    ab = a4().abelianization_pprime(2)
    assert ab.orders == (3,)
    assert ab.exponent == 3
    ab2 = s4().abelianization_pprime(2)
    assert ab2.orders == ()
    c15 = cyclic(15)
    assert c15.abelianization_pprime(2).orders == (15,)
    assert c15.abelianization_pprime(3).orders == (5,)
    assert c15.abelianization_pprime(5).orders == (3,)
    c12 = cyclic(12)
    ab3 = c12.abelianization_pprime(2)
    assert ab3.orders == (3,)
    # projection is a homomorphism onto the quotient coordinates
    for i in range(12):
        for j in range(12):
            k = c12.mul(i, j)
            assert tuple((ab3.proj[i] + ab3.proj[j]) % 3) == tuple(ab3.proj[k])


def test_conjugacy_classes_partition():
    G = s4()
    classes = G.conjugacy_classes()
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 3, 6, 6, 8]
    seen = sorted(x for c in classes for x in c)
    assert seen == list(range(24))


# -- group files --------------------------------------------------------------

def test_perm_file_roundtrip():
    G = dihedral(8)
    text = serialize_group_file(G.ops, G.gens)
    ops, gens = parse_group_file(text)
    H = GroupTable(ops, gens)
    assert H.order == 8
    assert H.classify_2group(list(range(8))) == "dihedral"


def test_mat_file_roundtrip():
    G = q8()
    text = serialize_group_file(G.ops, G.gens)
    ops, gens = parse_group_file(text)
    H = GroupTable(ops, gens)
    assert H.order == 8
    assert H.classify_2group(list(range(8))) == "quaternion"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_group_file("")
    with pytest.raises(ValueError):
        parse_group_file("perm")
    with pytest.raises(ValueError):
        parse_group_file("mat 2 2\n")
    with pytest.raises(ValueError):
        parse_group_file("frob 3\n(0 1)")


@pytest.mark.parametrize("text,msg", [
    ("perm 3\n(1 2)(1 3)", "not a permutation"),
    ("perm 4\n(1 2)\n(1 2 3)(3 4)", "not a permutation"),
    ("mat 2 1 2\n1 0 0 0", "singular"),
    ("mat 2 1 2\n0 0 0 0", "singular"),
    ("mat 3 1 2\n1 0 0 1\n1 2 1 2", "singular"),
])
def test_parse_rejects_non_invertible_generators(text, msg):
    """Overlapping cycles that do not compose to a bijection, and singular
    matrices: neither has a power equal to the identity."""
    with pytest.raises(ValueError, match=msg):
        parse_group_file(text)


@given(st.integers(2, 5), st.data())
@settings(max_examples=25, deadline=None)
def test_random_perm_groups_lagrange(degree, data):
    n_gens = data.draw(st.integers(1, 2))
    gens = []
    for _ in range(n_gens):
        img = data.draw(st.permutations(list(range(degree))))
        gens.append(tuple(img))
    G = GroupTable(PermOps(degree), gens, cap=200)
    for i in range(G.order):
        assert G.order % G.order_of(i) == 0
    sub = G.closure([data.draw(st.integers(0, G.order - 1))])
    assert G.order % len(sub) == 0


# -- array primitives against scalar products and brute force -----------------
# The references below are the scalar loops the orbit labeller replaced: each
# walks elements one at a time through G.mul, G.inv and G.conj, which
# test_edge_mul_matches_raw checks against the raw permutation products.

def _random_perm_group(data, max_degree):
    degree = data.draw(st.integers(1, max_degree))
    gens = [tuple(data.draw(st.permutations(range(degree))))
            for _ in range(data.draw(st.integers(1, 3)))]
    return GroupTable(PermOps(degree), gens)


def _scalar_closure(G, seed):
    seen = {0} | set(seed)
    frontier = list(seen)
    while frontier:
        frontier = [y for x in frontier for g in seed
                    for y in [G.mul(x, g)] if y not in seen and not seen.add(y)]
    return frozenset(seen)


def _scalar_orbit_labels(G, hs, ks=()):
    """Least element of every double coset <hs> x <ks>, by a breadth-first
    orbit through left products with hs and right products with ks."""
    lab = [-1] * G.order
    for x in range(G.order):
        if lab[x] >= 0:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [z for y in frontier
                        for z in [G.mul(h, y) for h in hs] + [G.mul(y, k) for k in ks]
                        if z not in orbit and not orbit.add(z)]
        for y in orbit:
            lab[y] = x
    return lab


def _scalar_classes(G):
    seen, classes = set(), []
    for x in range(G.order):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [z for y in frontier for g in G.gen_idx
                        for z in [G.conj(g, y)] if z not in orbit and not orbit.add(z)]
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_right_and_left_match_scalar_mul(data):
    G = _random_perm_group(data, 7)
    for j in data.draw(st.lists(st.integers(0, G.order - 1), min_size=1,
                                max_size=4)):
        assert G.right(j).tolist() == [G.mul(i, j) for i in range(G.order)]
        assert G.left(j).tolist() == [G.mul(j, i) for i in range(G.order)]
    assert all(G.mul(x, y) == 0 for x, y in enumerate(G.inverses().tolist()))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_sweeps_match_brute_force(data):
    G = _random_perm_group(data, 7)
    pick = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2)
    hs, ks = data.draw(pick), data.draw(pick)
    H = sorted(_scalar_closure(G, hs))
    assert sorted(G.closure(hs)) == H
    assert G.closure(G.small_gens(H)) == frozenset(H)
    # right cosets H x, left cosets x K and double cosets H x K
    lefts = [G.left(h) for h in hs]
    rights = [G.right(k) for k in ks]
    assert G.orbits(lefts).tolist() == _scalar_orbit_labels(G, hs)
    assert G.orbits(rights).tolist() == _scalar_orbit_labels(G, (), ks)
    assert G.orbits(lefts + rights).tolist() == _scalar_orbit_labels(G, hs, ks)
    assert G.conjugacy_classes() == _scalar_classes(G)
    assert G.center() == [g for g in range(G.order)
                          if all(G.mul(g, x) == G.mul(x, g) for x in G.gen_idx)]
    Hset = set(H)
    assert G.normalizer(H) == [g for g in range(G.order)
                               if all(G.conj(g, h) in Hset for h in hs)]
    for x in range(G.order):
        m, y = 1, x
        while y != 0:
            m, y = m + 1, G.mul(y, x)
        assert G.order_of(x) == m


def test_orbits_of_a_long_cycle():
    """One generator of order 1000: its orbit is a single long cycle."""
    G = cyclic(1000)
    assert not G.orbits([G.right(G.gen_idx[0])]).any()
    assert G.orbits([]).tolist() == list(range(1000))
