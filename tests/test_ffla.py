"""Field table and dense linear algebra tests.

Scalar arithmetic is checked against the field axioms directly, matrix
routines against naive reimplementations and rank/transpose oracles, and the
Galois-ring products against exact integers.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endotriv import ffla
from endotriv.ffla import _PRIMITIVE_POLYS, FMatrix, FieldTable, field_make, \
    gauss, kron, solve_right

FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (5, 1), (5, 2), (3, 2)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pe: f"gf{pe[0]}^{pe[1]}")
def f(request):
    p, e = request.param
    return field_make(p, e)


def test_additive_group(f):
    q = f.p ** f.e
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)


def test_multiplicative_group(f):
    q = f.p ** f.e
    for a in range(1, q):
        assert f.mul(a, 1) == a
        assert f.mul(a, f.inv(a)) == 1
    # the unit group is cyclic of order q-1
    root = f.root_of_unity(q - 1)
    seen = {1}
    x = root
    while x != 1:
        seen.add(x)
        x = f.mul(x, root)
    assert len(seen) == q - 1


def test_distributivity_and_associativity(f):
    q = f.p ** f.e
    rng = np.random.default_rng(0)
    trips = rng.integers(0, q, size=(200, 3))
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_root_of_unity_checks_tables():
    f = FieldTable(2, 2)
    assert f.root_of_unity(3) == f.gen
    f.exp[0] = f.gen  # gen^0 must be 1
    with pytest.raises(RuntimeError, match="inconsistent"):
        f.root_of_unity(3)


def test_frobenius_is_additive(f):
    q = f.p ** f.e
    for a in range(q):
        for b in range(q):
            fa = f.pow(a, f.p)
            fb = f.pow(b, f.p)
            assert f.pow(f.add(a, b), f.p) == f.add(fa, fb)


def test_char_divides_one_sums(f):
    acc = 0
    for _ in range(f.p):
        acc = f.add(acc, 1)
    assert acc == 0


@given(st.integers(0, len(FIELDS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_vector_ops_match_scalar_loops(fi, data):
    p, e = FIELDS[fi]
    f = field_make(p, e)
    q = p ** e
    n = data.draw(st.integers(1, 8))
    a = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n,
                                    max_size=n)), dtype=np.int64)
    b = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n,
                                    max_size=n)), dtype=np.int64)
    assert [f.add(int(x), int(y)) for x, y in zip(a, b)] == \
        list(f.add_vec(a, b))
    # operands in any mix of the code dtypes add to the same codes
    for da, db in ((np.uint8, np.int64), (np.int64, np.uint8),
                   (np.uint8, np.uint8), (f.dtype, f.dtype)):
        got = f.add_vec(a.astype(da), b.astype(db))
        assert got.dtype == f.dtype
        assert got.tolist() == f.add_vec(a, b).tolist()
    assert [f.mul(int(x), int(y)) for x, y in zip(a, b)] == \
        list(f.mul_vec(a, b))
    assert [f.neg(int(x)) for x in a] == list(f.neg_vec(a))


# the codec fields: prime, odd extensions, and characteristic 2 up to q = 2^16
CODEC_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3), (2, 2), (2, 16)]


def _ref_digits(f, code):
    return [code // f.p ** u % f.p for u in range(f.e)]


def _ref_code(f, digits):
    return sum(d % f.p * f.p ** u for u, d in enumerate(digits))


def _ref_add(f, a, b, sign=1):
    return _ref_code(f, [x + sign * y for x, y in
                         zip(_ref_digits(f, a), _ref_digits(f, b))])


@given(st.sampled_from(CODEC_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_codec_and_additive_ops_match_per_digit_reference(pe, data):
    f = field_make(*pe)
    p, e, q = f.p, f.e, f.q
    shape = tuple(data.draw(st.lists(st.integers(1, 4), max_size=3)))
    size = int(np.prod(shape))
    codes = st.lists(st.integers(0, q - 1), min_size=size, max_size=size)
    a = np.array(data.draw(codes), dtype=np.int64).reshape(shape)
    b = np.array(data.draw(codes), dtype=np.int64).reshape(shape)
    flat_a, flat_b = a.reshape(-1).tolist(), b.reshape(-1).tolist()
    # digits: (e, *shape), entry u the coefficient of x^u; codes inverts it
    for x in (a, a.astype(f.dtype)):
        d = f.digits(x)
        assert d.shape == (e,) + shape
        assert d.reshape(e, -1).T.tolist() == [_ref_digits(f, c) for c in flat_a]
        back = f.codes(d)
        assert back.dtype == f.dtype and back.tolist() == a.tolist()
    # codes takes every digit mod p, negative and past p included
    raw = np.array(data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=e * size,
                                      max_size=e * size)), dtype=np.int64)
    want = [_ref_code(f, col) for col in raw.reshape(e, -1).T.tolist()]
    got = f.codes(raw.reshape((e,) + shape).copy())
    assert got.dtype == f.dtype and got.reshape(-1).tolist() == want
    # the vector ops, in int64 and in the field dtype, and the scalar ops
    add = [_ref_add(f, x, y) for x, y in zip(flat_a, flat_b)]
    sub = [_ref_add(f, x, y, -1) for x, y in zip(flat_a, flat_b)]
    neg = [_ref_add(f, 0, x, -1) for x in flat_a]
    for x, y in ((a, b), (a.astype(f.dtype), b.astype(f.dtype)),
                 (a, b.astype(f.dtype))):
        for got, want in ((f.add_vec(x, y), add), (f.sub_vec(x, y), sub),
                          (f.neg_vec(x), neg)):
            assert got.dtype == f.dtype and got.shape == shape
            assert got.reshape(-1).tolist() == want
    assert [f.add(x, y) for x, y in zip(flat_a, flat_b)] == add
    assert [f.sub(x, y) for x, y in zip(flat_a, flat_b)] == sub
    assert [f.neg(x) for x in flat_a] == neg
    # a 0-d operand broadcasts against an n-d one, on either side
    c = data.draw(st.integers(0, q - 1))
    for scalar in (c, np.asarray(c, dtype=f.dtype)):
        assert f.add_vec(scalar, a).reshape(-1).tolist() == \
            [_ref_add(f, c, x) for x in flat_a]
        assert f.sub_vec(a, scalar).reshape(-1).tolist() == \
            [_ref_add(f, x, c, -1) for x in flat_a]
        assert f.sub_vec(scalar, a).reshape(-1).tolist() == \
            [_ref_add(f, c, x, -1) for x in flat_a]
    # sums: of everything, and along every axis, counted from either end
    total = 0
    for x in flat_a:
        total = _ref_add(f, total, x)
    assert int(f.sum_vec(a)) == total
    for axis in range(len(shape)):
        fibers = np.moveaxis(a, axis, -1).reshape(-1, shape[axis]).tolist()
        want = []
        for fiber in fibers:
            acc = 0
            for x in fiber:
                acc = _ref_add(f, acc, x)
            want.append(acc)
        for ax in (axis, axis - len(shape)):
            got = f.sum_vec(a.astype(f.dtype), axis=ax)
            assert got.dtype == f.dtype
            assert got.reshape(-1).tolist() == want


def test_anchor_polynomials_are_verified():
    for (p, e), poly in _PRIMITIVE_POLYS.items():
        assert FieldTable(p, e).poly == poly
    # x^2 + 1 = (x - 2)(x + 2) over GF(5): x is not primitive modulo it
    with mock.patch.dict(ffla._PRIMITIVE_POLYS, {(5, 2): (1, 0)}):
        with pytest.raises(ValueError, match="not primitive"):
            FieldTable(5, 2)


def _shift_and_add_mul(f, a, b):
    """a * b without the log/exp tables: schoolbook over the digits of b,
    with a * x^i from repeated multiplication by x modulo the polynomial."""
    acc = 0
    for _ in range(f.e):
        for _ in range(b % f.p):
            acc = f.add(acc, a)
        a = f._mulx(a, f.poly)
        b //= f.p
    return acc


# every anchored field, plus GF(2^9) (q > 256, uint16 codes) from the
# lexicographic polynomial search
ORACLE_FIELDS = sorted(_PRIMITIVE_POLYS) + [(2, 9)]


@given(st.sampled_from(ORACLE_FIELDS), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 3 * 2 ** 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_products_match_shift_and_add(pe, n, m, k, seed):
    f = field_make(*pe)
    q = f.q
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(n, m))
    b = rng.integers(0, q, size=(n, m))
    # the units 1 and q-1, then a zero row of a and a zero column of b
    a[-1, -1] = 1
    b[-1, -1] = q - 1
    a[0, :] = 0
    b[:, 0] = 0
    c = int(rng.integers(0, q))
    want = np.array([[_shift_and_add_mul(f, int(x), int(y)) for x, y in zip(ra, rb)]
                     for ra, rb in zip(a, b)])
    for x, y in [(a, b), (a.astype(f.dtype), b.astype(f.dtype)),
                 (a, b.astype(f.dtype))]:
        got = f.mul_vec(x, y)
        assert got.dtype == f.dtype
        assert got.tolist() == want.tolist()
    assert [[f.mul(int(x), int(y)) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)] == want.tolist()
    # scalar times matrix, both ways round, as gauss and FMatrix.scale call it
    scaled = [[_shift_and_add_mul(f, c, int(y)) for y in rb] for rb in b]
    assert f.mul_vec(np.int64(c), b.astype(f.dtype)).tolist() == scaled
    assert f.mul_vec(b, np.int64(c)).tolist() == scaled
    # column times row, as the elimination update calls it
    col, row = a[:, :1], b[-1:, :]
    outer = [[_shift_and_add_mul(f, int(x), int(y)) for y in row[0]] for x in col[:, 0]]
    assert f.mul_vec(col, row).tolist() == outer
    # inverses of units, and zero refused
    units = a[a != 0]
    assert [_shift_and_add_mul(f, int(x), f.inv(int(x))) for x in units] \
        == [1] * units.size
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    # powers by square-and-multiply on the reference product; 0^k = 0
    def ref_pow(x, k):
        out, base = 1, x
        while k:
            if k & 1:
                out = _shift_and_add_mul(f, out, base)
            base = _shift_and_add_mul(f, base, base)
            k >>= 1
        return out
    assert f.pow_vec(a, k).tolist() == [[ref_pow(int(x), k) for x in ra] for ra in a]
    assert f.pow_vec(a.astype(f.dtype), k).dtype == f.dtype


def _naive_matmul(f, A, B):
    n, m = A.shape
    m2, k = B.shape
    out = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        for j in range(k):
            acc = 0
            for t in range(m):
                acc = f.add(acc, f.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def test_matmul_against_naive(f):
    q = f.p ** f.e
    rng = np.random.default_rng(3)
    for n, m, k in [(1, 1, 1), (2, 3, 2), (4, 4, 4), (5, 2, 6)]:
        A = rng.integers(0, q, size=(n, m)).astype(f.dtype)
        B = rng.integers(0, q, size=(m, k)).astype(f.dtype)
        assert np.array_equal(f.matmul(A, B), _naive_matmul(f, A, B).astype(f.dtype))


# every field in FIELDS, plus GF(2^9) (uint16 codes), GF(25) and GF(3)
MATMUL_FIELDS = sorted(set(FIELDS) | {(2, 9), (5, 2), (3, 1)})


def _block_switches(pe, kmax=1 << 17, N=None):
    """Inner dimensions k on each side of every change of t, the digits (or
    coefficients mod N) per packed block: t is the largest with
    (2t-1) * bitlen(k t (N-1)^2) <= 53, N = p for ``matmul``, and the last
    k allowing t is (2^s - 1) // (t (N-1)^2) for s = 53 // (2t-1)."""
    p, e = pe
    N = N or p
    ks = {1}
    for t in range(1, e + 1):
        last = ((1 << 53 // (2 * t - 1)) - 1) // (t * (N - 1) ** 2)
        if 1 <= last < kmax:
            ks |= {last, last + 1}
    return sorted(ks)


def _dot_oracle(f, A, B):
    """The product as one field sum of elementwise field products."""
    return f.sum_vec(f.mul_vec(A[:, :, None], B[None]), axis=1)


@given(st.sampled_from(MATMUL_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_matmul_matches_dot_oracle_at_block_switches(pe, data):
    """Random entries, and every entry the all-(p-1)-digit code q-1, which
    fills each packed slot to its largest value."""
    f = field_make(*pe)
    k = data.draw(st.sampled_from(_block_switches(pe)), label="k")
    side = 6 if k <= 64 else 2
    m = data.draw(st.integers(1, side), label="m")
    n = data.draw(st.integers(1, side), label="n")
    if data.draw(st.booleans(), label="all_max"):
        A = np.full((m, k), f.q - 1, dtype=f.dtype)
        B = np.full((k, n), f.q - 1, dtype=f.dtype)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        A = rng.integers(0, f.q, size=(m, k)).astype(f.dtype)
        B = rng.integers(0, f.q, size=(k, n)).astype(f.dtype)
    got = f.matmul(A, B)
    assert got.dtype == f.dtype
    assert np.array_equal(got, _dot_oracle(f, A, B))


@pytest.mark.parametrize("pe", MATMUL_FIELDS, ids=lambda pe: f"gf{pe[0]}^{pe[1]}")
def test_matmul_all_max_at_every_block_switch(pe):
    f = field_make(*pe)
    for k in _block_switches(pe):
        A = np.full((2, k), f.q - 1, dtype=f.dtype)
        B = np.full((k, 2), f.q - 1, dtype=f.dtype)
        assert np.array_equal(f.matmul(A, B), _dot_oracle(f, A, B)), k


def test_matmul_splits_an_inner_dimension_past_the_mantissa():
    """GF(65521): one digit product per slot, and k (p-1)^2 >= 2^53 from
    k = 2098177 on, where a single float64 dot product would round."""
    f = field_make(65521, 1)
    k = ((1 << 53) - 1) // (f.p - 1) ** 2 + 1
    A = np.full((1, k), f.q - 1, dtype=f.dtype)
    B = np.full((k, 1), f.q - 1, dtype=f.dtype)
    # (-1)(-1) summed k times
    assert f.matmul(A, B).tolist() == [[k % f.p]]
    rng = np.random.default_rng(4)
    A = rng.integers(0, f.q, size=(1, k)).astype(f.dtype)
    B = rng.integers(0, f.q, size=(k, 1)).astype(f.dtype)
    assert np.array_equal(f.matmul(A, B), _dot_oracle(f, A, B))


def ring_oracle(f, N, x, y):
    """x y over (Z/N)[t]/(F) with Python integers: the product polynomial in
    t of the coefficient matrices, reduced by t^e = -sum_j poly[j] t^j."""
    e = f.e
    xs = x.astype(np.int64).astype(object)
    ys = y.astype(np.int64).astype(object)
    coef = [0] * (2 * e - 1)
    for u in range(e):
        for v in range(e):
            coef[u + v] = coef[u + v] + xs[u] @ ys[v]
    for m in range(2 * e - 2, e - 1, -1):
        for j, c in enumerate(f.poly):
            coef[m - e + j] = coef[m - e + j] - c * coef[m]
    return np.array([(c % N).astype(np.int64) for c in coef[:e]])


@given(st.sampled_from([(2, 1), (2, 3), (2, 4), (3, 2), (5, 2), (7, 1)]),
       st.integers(1, 4), st.integers(1, 9), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_matmul_and_trace_match_integer_oracle(pe, level, n, small,
                                                    all_max, seed):
    """Batched products and traces over GR(p^(level+1), e).  With the
    mantissa cut to bitlen((N-1)^2) bits every inner dimension is split
    down to single columns, with one coefficient per slot, and the field
    product of a row of every code with its transpose is split too."""
    f = field_make(*pe)
    N = f.p ** (level + 1)
    if all_max:
        x = y = np.full((f.e, 3, n, n), N - 1)
    else:
        rng = np.random.default_rng(seed)
        x, y = rng.integers(0, N, size=(2, f.e, 3, n, n))
    want = ring_oracle(f, N, x, y)
    bits = ((N - 1) ** 2).bit_length() if small else ffla.MANTISSA
    with mock.patch.object(ffla, "MANTISSA", bits):
        prod = f.ring_matmul(x, y, N)
        tr = f.ring_matmul(x, y, N, trace=True)
        # the field product shares the packing and the split
        codes = np.arange(f.q, dtype=f.dtype).reshape(1, -1)
        assert np.array_equal(f.matmul(codes, codes.T),
                              _dot_oracle(f, codes, codes.T))
    assert prod.tolist() == want.tolist()
    assert tr.tolist() == (np.trace(want, axis1=-2, axis2=-1) % N).tolist()


@pytest.mark.parametrize("pe,level", [((2, 4), 1), ((2, 3), 3), ((3, 2), 1),
                                      ((5, 2), 1)], ids=str)
def test_ring_matmul_all_max_at_every_block_switch(pe, level):
    f = field_make(*pe)
    N = f.p ** (level + 1)
    for k in _block_switches(pe, 1 << 12, N):
        x = np.full((f.e, 2, k), N - 1)
        y = np.full((f.e, k, 2), N - 1)
        assert f.ring_matmul(x, y, N).tolist() == \
            ring_oracle(f, N, x, y).tolist(), k


# -- one BLAS thread inside the packed product --------------------------------

BLAS = ffla._blas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None,
                                    reason="numpy is not linked to OpenBLAS")


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on two threads for the test, restored after; yields
    the getter."""
    get, put = BLAS
    before = get()
    put(2)
    yield get
    put(before)


def _packed_products(seed):
    """matmul over GF(4) and GF(25) at mid-size shapes where OpenBLAS
    threads, and a product and a trace over GR(4, 2)."""
    rng = np.random.default_rng(seed)
    out = []
    for pe in [(2, 2), (5, 2)]:
        f = field_make(*pe)
        a = rng.integers(0, f.q, (100, 196)).astype(f.dtype)
        b = rng.integers(0, f.q, (196, 100)).astype(f.dtype)
        out.append(f.matmul(a, b))
    f = field_make(2, 2)
    x, y = rng.integers(0, 4, size=(2, f.e, 3, 40, 40))
    out += [f.ring_matmul(x, y, 4), f.ring_matmul(x, y, 4, trace=True)]
    return out


@needs_openblas
def test_packed_products_restore_the_blas_thread_count(two_blas_threads):
    get = two_blas_threads
    _packed_products(0)
    assert get() == 2


@needs_openblas
def test_packed_products_run_on_one_blas_thread(monkeypatch, two_blas_threads):
    """The trace einsum runs inside the pinned loop: it sees one thread, and
    the count is back at two after the product and after a raise in it."""
    get = two_blas_threads
    seen = []
    einsum = np.einsum

    def spy(*args):
        seen.append(get())
        return einsum(*args)

    f = field_make(2, 2)
    x = np.ones((f.e, 4, 4), dtype=np.int64)
    monkeypatch.setattr(ffla.np, "einsum", spy)
    f.ring_matmul(x, x, 4, trace=True)
    assert seen and set(seen) == {1}
    assert get() == 2

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ffla.np, "einsum", boom)
    with pytest.raises(RuntimeError, match="boom"):
        f.ring_matmul(x, x, 4, trace=True)
    assert get() == 2


def test_packed_product_pins_and_restores_through_the_resolver(monkeypatch):
    """With a stand-in (get, set) pair: one thread during the product and
    the count found restored after it, also when the product raises."""
    log = []
    monkeypatch.setattr(ffla, "_blas_threads",
                        lambda: (lambda: log.append("get") or 7, log.append))
    f = field_make(2, 2)
    a = np.ones((3, 3), dtype=f.dtype)
    f.matmul(a, a)
    assert log == ["get", 1, 7]
    log.clear()
    with pytest.raises(ValueError):
        f._packed_product(np.ones((1, 2, 3)), np.ones((1, 4, 5)), 1, 8, 2)
    assert log == ["get", 1, 7]


def test_products_do_not_depend_on_the_pin(monkeypatch):
    """Every packed slot sum is an exact integer below 2^53, so the thread
    count cannot change a product."""
    pinned = _packed_products(1)
    monkeypatch.setattr(ffla, "_blas_threads", lambda: None)
    for x, y in zip(pinned, _packed_products(1)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_gauss_rank_transpose(f):
    q = f.p ** f.e
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = rng.integers(1, 7, size=2)
        A = FMatrix(f, rng.integers(0, q, size=(n, m)).astype(f.dtype))
        r = gauss(A)
        rt = gauss(A.T)
        assert r.rank == rt.rank
        # kernel rows annihilate from the right: A @ k^T = 0
        if r.kernel.a.shape[0]:
            prod = f.matmul(A.a, np.ascontiguousarray(r.kernel.a.T))
            assert not prod.any()
        assert r.kernel.a.shape[0] + r.rank == m
        # rref pivots are unit columns
        for row, col in enumerate(r.pivots):
            assert r.rref.a[row, col] == 1


def _scalar_kernel(f, pivots, rref, ncols):
    """Kernel basis built one entry at a time from an RREF."""
    free = [j for j in range(ncols) if j not in pivots]
    kern = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        kern[i, fc] = 1
        for k, pv in enumerate(pivots):
            kern[i, pv] = f.neg(int(rref[k][fc]))
    return kern


@given(st.sampled_from([(3, 1), (2, 2), (5, 1), (3, 2), (2, 6), (5, 2)]),
       st.integers(0, 7), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_gauss_kernel_matches_scalar_construction(pe, n, m, seed):
    f = field_make(*pe)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.q, size=(n, m))
    # sparse rows and repeated rows give rank-deficient inputs
    a[rng.random(size=(n, m)) < 0.4] = 0
    if n >= 2:
        a[-1] = a[0]
    res = gauss(FMatrix(f, a.astype(f.dtype)))
    assert res.kernel.a.dtype == f.dtype
    assert res.kernel.a.tolist() == _scalar_kernel(f, res.pivots, res.rref.a, m).tolist()


def _scalar_rref(f, a):
    """Gauss-Jordan one field operation at a time (f.mul, f.sub, f.inv):
    leftmost pivot column, first nonzero row from the current one down."""
    rows = [[int(x) for x in r] for r in a]
    pivots = []
    row = 0
    for col in range(a.shape[1]):
        piv = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = f.inv(rows[row][col])
        rows[row] = [f.mul(inv, x) for x in rows[row]]
        for i in range(len(rows)):
            fac = rows[i][col]
            if i != row and fac:
                rows[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
    return pivots, rows


def _gauss_input(f, kind, n, m, rng):
    """Test matrices shaped like the elimination's callers."""
    q = f.q
    if kind == "stacked":
        # [A - I; B - I; ...] as fixed_point_rows builds it, from monomial
        # (permutation times units) and random square blocks
        blocks = []
        for b in range(1 + m % 3):
            if b % 2 == 0:
                g = np.zeros((n, n), dtype=np.int64)
                g[np.arange(n), rng.permutation(n)] = rng.integers(1, q, size=n)
            else:
                g = rng.integers(0, q, size=(n, n))
            blocks.append(f.sub_vec(g, np.eye(n, dtype=np.int64)))
        return np.vstack(blocks)
    a = rng.integers(0, q, size=(n, m))
    if kind == "sparse":
        a[rng.random(size=(n, m)) < 0.75] = 0
    elif kind == "repeated" and n >= 2:
        a[rng.integers(0, n, size=n // 2)] = a[rng.integers(0, n, size=n // 2)]
    elif kind == "low_rank":
        k = int(rng.integers(0, min(n, m) + 1))
        a = f.matmul(rng.integers(0, q, size=(n, k)), rng.integers(0, q, size=(k, m)))
    return a


@given(st.sampled_from([(2, 2), (2, 6), (2, 9), (3, 1), (5, 2)]),
       st.sampled_from(["stacked", "sparse", "repeated", "low_rank", "random"]),
       st.integers(0, 9), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_gauss_matches_scalar_gauss_jordan(pe, kind, n, m, seed):
    f = field_make(*pe)
    a = _gauss_input(f, kind, n, m, np.random.default_rng(seed)).astype(f.dtype)
    M = FMatrix(f, a)
    before = M.a.copy()
    res = gauss(M)
    pivots, rows = _scalar_rref(f, a)
    assert np.array_equal(M.a, before)
    assert res.rank == len(pivots)
    assert res.pivots == tuple(pivots)
    assert res.rref.a.dtype == f.dtype and res.rref.a.shape == a.shape
    assert res.rref.a.tolist() == rows
    assert res.kernel.a.dtype == f.dtype
    assert res.kernel.a.tolist() == _scalar_kernel(f, pivots, rows, a.shape[1]).tolist()


def test_pow_vec_matches_pow(f):
    a = np.arange(f.q)
    for n in range(-3, f.q + 2):
        if n < 0:
            with pytest.raises(ZeroDivisionError):
                f.pow(0, n)
            with pytest.raises(ZeroDivisionError):
                f.pow_vec(a, n)
            a_n = a[1:]
        else:
            a_n = a
        assert f.pow_vec(a_n, n).tolist() == [f.pow(int(x), n) for x in a_n]


def test_gauss_on_identity_and_zero(f):
    I5 = FMatrix.identity(f, 5)
    r = gauss(I5)
    assert r.rank == 5 and r.kernel.a.shape[0] == 0
    Z = FMatrix(f, np.zeros((3, 4), dtype=f.dtype))
    rz = gauss(Z)
    assert rz.rank == 0 and rz.kernel.a.shape[0] == 4


@pytest.mark.parametrize("pe", [(2, 2), (3, 1), (2, 8), (2, 16)],
                         ids=lambda pe: f"gf{pe[0]}^{pe[1]}")
def test_fmatrix_rejects_codes_out_of_range_before_the_cast(pe):
    """Codes q and above, among them 257 and 65536, and -1 would wrap in the
    uint8 or uint16 field dtype; every one is refused, and q - 1 and 0 are
    kept."""
    f = field_make(*pe)
    for bad in sorted({f.q, 65536, -1} | ({257} if f.q <= 257 else set())):
        for dtype in (np.int64, object):
            with pytest.raises(ValueError, match="out of field range"):
                FMatrix(f, np.array([[bad, 1]], dtype=dtype))
    for good in (np.array([[f.q - 1, 0]]), np.array([[f.q - 1, 0]], f.dtype)):
        assert FMatrix(f, good).a.tolist() == [[f.q - 1, 0]]


def test_inverse_roundtrip(f):
    q = f.p ** f.e
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        A = FMatrix(f, rng.integers(0, q, size=(4, 4)).astype(f.dtype))
        if A.rank() < 4:
            continue
        assert A @ A.inverse() == FMatrix.identity(f, 4)
        assert A.inverse() @ A == FMatrix.identity(f, 4)
        done += 1


def test_kron_rank_multiplies(f):
    q = f.p ** f.e
    rng = np.random.default_rng(9)
    for _ in range(10):
        A = FMatrix(f, rng.integers(0, q, size=(3, 4)).astype(f.dtype))
        B = FMatrix(f, rng.integers(0, q, size=(2, 3)).astype(f.dtype))
        K = kron(A, B)
        assert K.a.shape == (6, 12)
        assert K.rank() == A.rank() * B.rank()
        # kron entry formula
        assert K.a[1 * 2 + 0, 2 * 3 + 1] == f.mul(int(A.a[1, 2]), int(B.a[0, 1]))


def test_solve_right(f):
    q = f.p ** f.e
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = FMatrix(f, rng.integers(0, q, size=(4, 3)).astype(f.dtype))
        X = FMatrix(f, rng.integers(0, q, size=(3, 2)).astype(f.dtype))
        B = A @ X
        Y = solve_right(A, B)
        assert Y is not None
        assert (A @ Y).a.tolist() == B.a.tolist()
    # inconsistent system
    A = FMatrix(f, np.zeros((2, 2), dtype=f.dtype))
    B = FMatrix.identity(f, 2)
    assert solve_right(A, B) is None


def test_embed_from_is_field_homomorphism():
    for (ps, es), (pb, eb) in [((2, 1), (2, 2)), ((2, 2), (2, 6)),
                               ((2, 1), (2, 6)), ((5, 1), (5, 2))]:
        sub = field_make(ps, es)
        big = field_make(pb, eb)
        emb = big.embed_from(sub)
        qs = ps ** es
        assert emb[0] == 0 and emb[1] == 1
        for a in range(qs):
            for b in range(qs):
                assert emb[sub.add(a, b)] == big.add(emb[a], emb[b])
                assert emb[sub.mul(a, b)] == big.mul(emb[a], emb[b])


def test_pow_vec_and_frobenius(f):
    q = f.p ** f.e
    a = np.arange(q, dtype=np.int64)
    fr = f.frobenius_vec(a)
    pw = f.pow_vec(a, f.p)
    assert list(fr) == list(pw)
    assert list(f.pow_vec(a, q)) == list(a)


def _gf2_matrix(draw, rows, cols, kind):
    """A 0/1 matrix: dense, sparse, all zero, or with repeated rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.uint8)
    density = 0.08 if kind == "sparse" else 0.5
    a = (rng.random((rows, cols)) < density).astype(np.uint8)
    if kind == "duplicate" and rows:
        a = a[rng.integers(0, max(1, rows // 3), size=rows)]
    return a


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_gf2_bitpacked_agrees_with_generic(data):
    """The packed GF(2) product, in both orientations, and the packed row
    insertion agree with the same system embedded in GF(4), where the
    packed path cannot apply.  Shapes run 0..80, tall ones far more rows
    than columns, on dense, sparse, all-zero and duplicate-row inputs."""
    f2 = field_make(2, 1)
    f4 = field_make(2, 2)
    kinds = st.sampled_from(["dense", "sparse", "zero", "duplicate"])
    if data.draw(st.booleans()):
        rows, k, cols = (data.draw(st.integers(0, 80)) for _ in range(3))
    else:
        rows = data.draw(st.integers(40, 80))
        k, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a = _gf2_matrix(data.draw, rows, k, data.draw(kinds))
    b = _gf2_matrix(data.draw, k, cols, data.draw(kinds))
    # (a, b) and (b^T, a^T) compare their nonzero counts the other way
    # round, so one of the two runs the transposed product
    for x, y in ((a, b), (b.T, a.T)):
        got = f2.matmul(x, y)
        assert got.dtype == f2.dtype and got.flags.c_contiguous
        assert np.array_equal(got, f4.matmul(x, y))
    for m in (a, b):
        g2 = gauss(FMatrix(f2, m))
        g4 = gauss(FMatrix(f4, m.astype(f4.dtype)))
        assert (g2.rank, g2.pivots) == (g4.rank, g4.pivots)
        assert np.array_equal(g2.rref.a, g4.rref.a)
        assert np.array_equal(g2.kernel.a, g4.kernel.a)
