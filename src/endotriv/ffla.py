"""Exact dense linear algebra over small finite fields GF(p^e) with p^e <= 2^16.

Field elements are stored as integer codes: the code of sum(d_i * x^i) is
sum(d_i * p^i) with digits 0 <= d_i < p, so code arithmetic never carries
between digits.  Multiplication runs through discrete log/exp tables over a
fixed primitive polynomial, in zero-absorbing form: log[0] = 2(q-1), and exp
has 4(q-1)+1 entries, gen^(k mod (q-1)) below 2(q-1) and 0 from there on.
The log-sum of two units stays below 2(q-1), and any sum involving a zero
lands at 2(q-1) or above, so every product, scalar or broadcast, is the one
lookup exp[log[a] + log[b]] with no zero mask and no reduction.  The tables
hold about 5q entries, 1 MiB at the largest field q = 2^16, so this one path
serves every field size.  Matrix products for q > 2 pack the digits of each
code, in blocks of t, s bits apart into one float64 (Kronecker
substitution), so one BLAS call per pair of blocks yields every
digit-product coefficient; that is exact while (2t-1) * s <= 53 with
2^s > k * t * (p-1)^2 for inner dimension k, and t shrinks as k grows.  For
GF(2) matrices the rows of the right factor are bit-packed into uint64 words
and XORed once per nonzero entry of the left factor (``gf2``), and the
factor with fewer nonzero entries goes on the left.  The same packed
product, with coefficients in [0, N) in place of digits, multiplies matrices
over the Galois rings (Z/p^j)[x]/(F), F the integer lift of the field's
polynomial (``ring_matmul``).

The packed product is the package's only float BLAS call, and it runs on one
OpenBLAS thread: idle OpenBLAS workers busy-wait after a threaded product,
which costs CPU on mid-size products and gains little wall time.  The thread
count is set to one around the products and restored after, and cannot
change a result, since every packed slot sum is an exact integer.

Row reduction (``gauss``) for q > 2 works in the field dtype (uint8/uint16)
with no int64 copy.  Each pivot updates only the columns from the pivot
column on, since everything left of it is already reduced, and in
characteristic 2, where addition of codes is XOR, the update is applied in
place with ``^=``.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from . import gf2

__all__ = [
    "FieldTable",
    "FMatrix",
    "GaussResult",
    "field_make",
    "gauss",
    "kron",
]

MAX_Q = 1 << 16

# float64 holds every integer below 2^MANTISSA exactly; the packed products
# keep every slot sum below it
MANTISSA = 53

# Anchor table of primitive polynomials, coefficients (c_0, ..., c_{e-1}) of
# the monic polynomial x^e + c_{e-1} x^{e-1} + ... + c_0.  Every entry is
# verified at construction time (the exp table must enumerate all q-1 units);
# sizes not listed fall back to a deterministic lexicographic search.
_PRIMITIVE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1,),
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0),
    (3, 1): (1,),
    (3, 2): (2, 2),
    (3, 3): (1, 2, 0),
    (5, 1): (3,),
    (5, 2): (2, 4),
    (7, 1): (4,),
    (7, 2): (3, 6),
    (11, 1): (9,),
    (13, 1): (11,),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _code_to_digits(code: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return out


def _digits_to_code(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _pack(c: np.ndarray, t: int, s: int) -> np.ndarray:
    """Coefficient stack (e, ...) packed t to a float64, s bits apart:
    block b holds sum_i c[b*t+i] * 2^(s*i), for ceil(e/t) blocks."""
    out = c[::t].astype(float)
    for i in range(1, t):
        part = c[i::t]
        out[: len(part)] += part * 2.0 ** (s * i)
    return out


@cache
def _blas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy calls, or
    None when they are not found.  dlsym on numpy's own extension module
    also searches the libraries it links, so this finds numpy's OpenBLAS
    under either the numpy-wheel or the system-build symbol names."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads")):
        try:
            return getattr(lib, get), getattr(lib, put)
        except AttributeError:
            pass
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the
    count found on entry; do nothing when ``_blas_threads`` finds none."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _mod(x: np.ndarray, N: int) -> None:
    """x mod N in place, for nonnegative int64 x."""
    if N & (N - 1):
        x %= N
    else:
        x &= N - 1


class FieldTable:
    """Arithmetic tables for GF(p^e).

    Attributes:
        p, e, q: characteristic, extension degree, order q = p**e.
        poly: coefficient tuple of the primitive polynomial used.
        gen: code of the fixed primitive element (x for e >= 2).
        exp, log: zero-absorbing tables (see the module docstring):
            exp[k] = gen^(k mod (q-1)) for k < 2(q-1) and 0 above,
            log[exp[k]] = k for k < q-1 and log[0] = 2(q-1).
    """

    def __init__(self, p: int, e: int, poly: Optional[tuple[int, ...]] = None):
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if p <= MAX_Q and not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        # p >= 2 from here, so a huge p or e fails on size before any trial
        # division or big power is computed
        if p > MAX_Q or e >= MAX_Q.bit_length() or p**e > MAX_Q:
            raise ValueError(f"field size {p}^{e} exceeds {MAX_Q}")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.dtype = np.uint8 if q <= 256 else np.uint16
        if poly is None:
            poly = _PRIMITIVE_POLYS.get((p, e))
        if poly is not None:
            powers = self._unit_powers(poly)
            if powers is None:
                raise ValueError(f"polynomial {poly} is not primitive for GF({p}^{e})")
        else:
            powers = None
            for poly in self._candidate_polys():
                powers = self._unit_powers(poly)
                if powers is not None:
                    break
            if powers is None:
                raise ValueError(f"no primitive polynomial found for GF({p}^{e})")
        self.poly = tuple(poly)
        n = q - 1
        self.exp = np.zeros(4 * n + 1, dtype=self.dtype)
        self.exp[: 2 * n] = powers + powers
        self.log = np.full(q, 2 * n, dtype=np.intp)
        self.log[powers] = np.arange(n)
        self.gen = int(self.exp[1])
        self._reds: dict[int, np.ndarray] = {}
        self._embed_cache: dict[tuple[int, int], np.ndarray] = {}
        self._packings: dict[tuple[int, int], np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    def _candidate_polys(self):
        # lexicographic by integer value of the coefficient code
        for val in range(self.q):
            yield tuple(_code_to_digits(val, self.p, self.e))

    def _mulx(self, code: int, poly: tuple[int, ...]) -> int:
        p, e = self.p, self.e
        shifted = code * p
        top, low = divmod(shifted, p**e)
        if top == 0:
            return low
        ld = _code_to_digits(low, p, e)
        for i, c in enumerate(poly):
            ld[i] = (ld[i] - top * c) % p
        return _digits_to_code(ld, p)

    def _unit_powers(self, poly: tuple[int, ...]) -> Optional[list[int]]:
        """[x^0, ..., x^(q-2)] modulo poly, or None if x is not primitive."""
        q = self.q
        powers = [1]
        c = 1
        for _ in range(q - 2):
            c = self._mulx(c, poly)
            if c == 1 or c == 0:
                return None
            powers.append(c)
        if self._mulx(c, poly) != 1:
            return None
        if len(set(powers)) != q - 1:
            return None
        return powers

    def _reduction_table(self, N: int) -> np.ndarray:
        """red[m, k]: the coefficient of x^k in x^m modulo F and N, for
        m < 2e-1, F the monic integer lift of ``poly``; N = p gives the
        field's own reduction."""
        red = self._reds.get(N)
        if red is None:
            e = self.e
            red = np.zeros((2 * e - 1, e), dtype=np.int64)
            red[:e] = np.eye(e, dtype=np.int64)
            for m in range(e, 2 * e - 1):
                # x^m = x * x^(m-1), and x^e = -(c_0 + ... + c_(e-1) x^(e-1))
                red[m, 1:] = red[m - 1, :-1]
                red[m] -= red[m - 1, -1] * np.array(self.poly)
                red[m] %= N
            self._reds[N] = red
        return red

    # -- scalar ops -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da = _code_to_digits(a, self.p, self.e)
        db = _code_to_digits(b, self.p, self.e)
        return _digits_to_code([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        da = _code_to_digits(a, self.p, self.e)
        return _digits_to_code([(-x) % self.p for x in da], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[self.q - 1 - self.log[a]])

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return int(self.exp[(self.log[a] * n) % (self.q - 1)])

    def root_of_unity(self, m: int) -> int:
        """Canonical primitive m-th root of unity gen^((q-1)/m); m must divide q-1."""
        if m < 1 or (self.q - 1) % m != 0:
            raise ValueError(f"no primitive {m}-th root of unity in GF({self.p}^{self.e})")
        z = int(self.exp[(self.q - 1) // m])
        if self.pow(z, m) != 1:
            raise RuntimeError(f"GF({self.p}^{self.e}) tables are inconsistent: "
                               f"gen^((q-1)/{m}) has order other than {m}")
        return z

    # -- vectorized ops on code arrays ---------------------------------------

    def add_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            # codes add by XOR in any integer dtype; no int64 widening
            return np.bitwise_xor(a, b).astype(self.dtype, copy=False)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pk = 1
        for _ in range(self.e):
            da = (a // pk) % self.p
            db = (b // pk) % self.p
            out += ((da + db) % self.p) * pk
            pk *= self.p
        return out.astype(self.dtype)

    def neg_vec(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.astype(self.dtype)
        out = np.zeros(a.shape, dtype=np.int64)
        pk = 1
        for _ in range(self.e):
            da = (a // pk) % self.p
            out += ((-da) % self.p) * pk
            pk *= self.p
        return out.astype(self.dtype)

    def sub_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_vec(a, self.neg_vec(b))

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.exp[self.log[a] + self.log[b]]

    def pow_vec(self, a: np.ndarray, n: int) -> np.ndarray:
        """Elementwise a^n, as ``pow`` computes it: 0^0 = 1, 0^n = 0 for
        n > 0, and ZeroDivisionError for a zero entry when n < 0."""
        log_zero = 2 * (self.q - 1)
        la = self.log[a]
        zero = la == log_zero
        if n < 0 and np.any(zero):
            raise ZeroDivisionError("inverse of zero")
        return self.exp[np.where(zero, log_zero if n else 0, la * n % (self.q - 1))]

    def frobenius_vec(self, a: np.ndarray) -> np.ndarray:
        return self.pow_vec(a, self.p)

    def sum_vec(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Field sum along an axis of a code array."""
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis).astype(self.dtype)
        out = 0
        pk = 1
        for _ in range(self.e):
            da = (a // pk) % self.p
            out = out + (da.sum(axis=axis) % self.p) * pk
            pk *= self.p
        return np.asarray(out, dtype=self.dtype)

    # -- matrix products ------------------------------------------------------

    def _slots(self, k: int, N: int) -> Optional[tuple[int, int]]:
        """(t, s) for a packed product of coefficients in [0, N) with inner
        dimension k: t coefficients per float64, s bits apart.  A slot sums
        at most k*t*(N-1)^2, which must stay below 2^s, and the 2t-1 slots
        of a product must fit the mantissa, (2t-1)*s <= MANTISSA; t is the
        largest that allows both.  None when k*(N-1)^2 >= 2^MANTISSA, where
        even t = 1 could round: the caller splits k."""
        sq = (N - 1) ** 2
        if k * sq >= 1 << MANTISSA:
            return None
        t = next(t for t in range(self.e, 0, -1)
                 if k * t * sq < 1 << (MANTISSA // (2 * t - 1)))
        return t, MANTISSA // (2 * t - 1)

    def _packing(self, t: int, s: int) -> np.ndarray:
        """Gather table for ``matmul``: enc[b, code] packs digits
        b*t .. b*t+t-1 of the code s bits apart into one float64."""
        enc = self._packings.get((t, s))
        if enc is None:
            codes = np.arange(self.q)
            enc = _pack(np.stack([codes // self.p**i % self.p
                                  for i in range(self.e)]), t, s)
            self._packings[t, s] = enc
        return enc

    def _packed_product(self, pa: np.ndarray, pb: np.ndarray, t: int, s: int,
                        N: int, trace: bool = False) -> list[np.ndarray]:
        """Coefficients of x^0 .. x^(e-1), int64 in [0, N), of the product
        modulo F and N of two packed operands (``_pack``), or with ``trace``
        of its diagonal.

        One float64 BLAS product of two packed blocks holds every
        coefficient sum_(u+v=m) a_u b_v of those blocks in its own s-bit
        slot m (Kronecker substitution), exact by the choice of (t, s) in
        ``_slots``: ceil(e/t)^2 BLAS calls in all, one for GF(4) up to
        k = 65535, nine for GF(64) at k = 729.  The slots are read back as
        integers by shift and mask, and the coefficients of x^m for m >= e
        are folded in by the reduction table.  The diagonal of a product
        takes one einsum per pair of blocks instead.  The packed operands
        are released once the last BLAS product is taken, before its slots
        are decoded.  The products run on one OpenBLAS thread
        (``_one_blas_thread``).
        """
        e = self.e
        # coef[m]: the coefficient of x^m in the unreduced product
        coef = [None] * (2 * e - 1)
        last = (len(pa) - 1, len(pb) - 1)
        with _one_blas_thread():
            for i in range(len(pa)):
                for j in range(len(pb)):
                    if trace:
                        prod = np.einsum("...jk,...kj->...j", pa[i], pb[j])
                    else:
                        prod = pa[i] @ pb[j]
                    if (i, j) == last:
                        del pa, pb
                    prod = prod.astype(np.int64)
                    top = min(t, e - i * t) + min(t, e - j * t) - 2
                    # top slot first: slot 0 is then masked in place in prod
                    for m in range(top, -1, -1):
                        slot = prod >> (s * m) if m else prod
                        if m < top:
                            slot &= (1 << s) - 1
                        d = (i + j) * t + m
                        if coef[d] is None:
                            coef[d] = slot
                        else:
                            coef[d] += slot
        red = self._reduction_table(N)
        for m in range(e, 2 * e - 1):
            _mod(coef[m], N)
        for i in range(e):
            ci = coef[i]
            for m in range(e, 2 * e - 1):
                r = int(red[m, i])
                if r:
                    ci += r * coef[m] if r > 1 else coef[m]
            _mod(ci, N)
        return coef[:e]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of code arrays.

        GF(2) XORs the bit-packed rows of b, one per nonzero entry of a
        (``gf2.mul_packed``), and takes (b^T a^T)^T when b has fewer
        nonzero entries than a.  Every other field gathers the
        packed digits of each code from a table (``_packing``) and takes
        the packed product (``_packed_product``) with N = p.  An inner
        dimension with k*(p-1)^2 >= 2^MANTISSA is split in halves.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape[1] != b.shape[0]:
            raise ValueError("matmul shape mismatch")
        rows, k = a.shape
        cols = b.shape[1]
        if rows == 0 or cols == 0 or k == 0:
            return np.zeros((rows, cols), dtype=self.dtype)
        if self.q == 2:
            if np.count_nonzero(b) < np.count_nonzero(a):
                return np.ascontiguousarray(gf2.mul_packed(b.T, a.T).T,
                                            dtype=self.dtype)
            return gf2.mul_packed(a, b).astype(self.dtype, copy=False)
        p = self.p
        slots = self._slots(k, p)
        if slots is None:
            h = k // 2
            return self.add_vec(self.matmul(a[:, :h], b[:h]), self.matmul(a[:, h:], b[h:]))
        t, s = slots
        enc = self._packing(t, s)
        coef = self._packed_product(enc[:, a], enc[:, b], t, s, p)
        out = coef[0]
        for i in range(1, self.e):
            ci = coef[i]
            ci *= p**i
            out += ci
        return out.astype(self.dtype)

    def ring_matmul(self, x: np.ndarray, y: np.ndarray, N: int,
                    trace: bool = False) -> np.ndarray:
        """Product x y of matrix stacks over R = (Z/N)[t]/(F), F the monic
        integer lift of ``poly`` (the Galois ring GR(p^j, e) for N = p^j),
        or with ``trace`` its trace.

        x and y are integer stacks (e, ..., r, k) and (e, ..., k, c): the
        first axis holds the coefficients of t^0 .. t^(e-1), in [0, N).
        They are packed as ``matmul`` packs digits, with the slot width that
        N calls for, and multiplied by the same ``_packed_product``; an
        inner dimension with k*(N-1)^2 >= 2^MANTISSA is split in halves.
        Returns int64 coefficients in [0, N): (e, ..., r, c), or (e, ...)
        for a trace.
        """
        k = x.shape[-1]
        slots = self._slots(k, N)
        if slots is None:
            h = k // 2
            out = (self.ring_matmul(x[..., :h], y[..., :h, :], N, trace)
                   + self.ring_matmul(x[..., h:], y[..., h:, :], N, trace))
            _mod(out, N)
            return out
        t, s = slots
        out = np.stack(self._packed_product(_pack(x, t, s), _pack(y, t, s),
                                            t, s, N, trace))
        if trace:
            out = out.sum(-1)
            _mod(out, N)
        return out

    # -- subfield embedding ---------------------------------------------------

    def embed_from(self, sub: "FieldTable") -> np.ndarray:
        """Code-translation table realizing a field embedding sub -> self.

        Requires same characteristic and sub.e dividing self.e.  The choice is
        deterministic: the first multiplicative embedding (by power of the
        canonical generator) that is additive on all of sub.
        """
        key = (sub.p, sub.e)
        if key in self._embed_cache:
            return self._embed_cache[key]
        if sub.p != self.p or self.e % sub.e != 0:
            raise ValueError("no subfield embedding")
        if sub.q == 2:
            table = np.array([0, 1], dtype=np.int64)
            self._embed_cache[key] = table
            return table
        step = (self.q - 1) // (sub.q - 1)
        for c in range(1, sub.q - 1):
            if np.gcd(c, sub.q - 1) != 1:
                continue
            table = np.zeros(sub.q, dtype=np.int64)
            for k in range(sub.q - 1):
                table[sub.exp[k]] = self.exp[(k * c * step) % (self.q - 1)]
            ok = True
            for x in range(sub.q):
                if not ok:
                    break
                for y in range(sub.q):
                    if table[sub.add(x, y)] != self.add(int(table[x]), int(table[y])):
                        ok = False
                        break
            if ok:
                self._embed_cache[key] = table
                return table
        raise ValueError("no additive embedding found")

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldTable)
            and self.p == other.p
            and self.e == other.e
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.poly))


_FIELD_CACHE: dict[tuple[int, int], FieldTable] = {}


def field_make(p: int, e: int) -> FieldTable:
    """Return the canonical FieldTable for GF(p^e) (cached)."""
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldTable(p, e)
    return _FIELD_CACHE[key]


class FMatrix:
    """Dense matrix over a FieldTable; entries are field codes in a numpy array."""

    __slots__ = ("field", "a")

    def __init__(self, field: FieldTable, a: np.ndarray):
        raw = np.asarray(a)
        if raw.ndim != 2:
            raise ValueError("FMatrix needs a 2-d array")
        # checked before the cast to the unsigned field dtype, which would
        # wrap 257 to 1 and -1 to q - 1
        if raw.size and (int(raw.max()) >= field.q or (
                raw.dtype != field.dtype and int(raw.min()) < 0)):
            raise ValueError("entry code out of field range")
        arr = np.ascontiguousarray(raw, dtype=field.dtype)
        self.field = field
        self.a = arr

    @classmethod
    def identity(cls, field: FieldTable, n: int) -> "FMatrix":
        return cls(field, np.eye(n, dtype=field.dtype))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def T(self) -> "FMatrix":
        return FMatrix(self.field, self.a.T.copy())

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        return FMatrix(self.field, self.field.matmul(self.a, other.a))

    def __add__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.field, self.field.add_vec(self.a, other.a))

    def __sub__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.field, self.field.sub_vec(self.a, other.a))

    def __neg__(self) -> "FMatrix":
        return FMatrix(self.field, self.field.neg_vec(self.a))

    def scale(self, c: int) -> "FMatrix":
        return FMatrix(self.field, self.field.mul_vec(self.a, np.int64(c)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        return hash((self.a.shape, self.a.tobytes()))

    def is_zero(self) -> bool:
        return not np.any(self.a)

    def rank(self) -> int:
        return gauss(self).rank

    def inverse(self) -> "FMatrix":
        n, m = self.shape
        if n != m:
            raise ValueError("inverse of non-square matrix")
        aug = FMatrix(self.field, np.hstack([self.a, np.eye(n, dtype=self.field.dtype)]))
        res = gauss(aug)
        if res.rank < n:
            raise ZeroDivisionError("matrix is singular")
        return FMatrix(self.field, res.rref.a[:, n:])

    def power(self, n: int) -> "FMatrix":
        if self.shape[0] != self.shape[1]:
            raise ValueError("power of non-square matrix")
        if n < 0:
            return self.inverse().power(-n)
        out = FMatrix.identity(self.field, self.shape[0])
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"FMatrix({self.field!r}, shape={self.shape})"


@dataclass(frozen=True)
class GaussResult:
    """Row reduction output: rank, pivot columns, RREF, and right kernel basis.

    kernel rows k satisfy M @ k = 0 (each row is one basis vector of the
    null space of the input, in the deterministic free-column order).
    """

    rank: int
    pivots: tuple[int, ...]
    rref: FMatrix
    kernel: FMatrix


def gauss(M: FMatrix) -> GaussResult:
    """Deterministic reduced row echelon form: leftmost pivot, first nonzero row.

    GF(2) runs on bit-packed rows (``gf2.rref_packed``).  Every other field
    is eliminated on a copy of ``M.a`` in the field dtype, one pivot column
    at a time, and each pivot touches only the window of columns ``col:``:
    the pivot row and every row below it are zero left of ``col``, so the
    columns there cannot change.  The pivot row is normalised once; the
    update is one exp/log lookup (when more rows need clearing than the
    field has units, the pivot row is scaled by every unit once and the
    update gathers those rows).  In characteristic 2 it is applied in place
    by XOR of codes; for odd p by ``sub_vec`` on the window.
    """
    field = M.field
    r, c = M.shape
    if field.q == 2:
        rank, pivots, rows = gf2.rref_packed(gf2.pack_rows(M.a), c)
        work = gf2.unpack_rows(rows, c).astype(field.dtype)
    else:
        work = M.a.copy()
        exp, log = field.exp, field.log
        units = field.q - 1
        pivots = []
        row = 0
        for col in range(c):
            if row >= r:
                break
            nz = work[row:, col].nonzero()[0]
            if nz.size == 0:
                continue
            piv = row + int(nz[0])
            if piv != row:
                work[[row, piv], col:] = work[[piv, row], col:]
            prow = field.mul_vec(work[row, col:], np.int64(field.inv(int(work[row, col]))))
            work[row, col:] = prow
            others = work[:, col].nonzero()[0]
            others = others[others != row]
            if others.size:
                lf, lp = log[work[others, col]], log[prow]
                if others.size > units:
                    prod = exp[np.arange(units)[:, None] + lp][lf]
                else:
                    prod = exp[lf[:, None] + lp]
                if field.p == 2:
                    work[others, col:] ^= prod
                else:
                    work[others, col:] = field.sub_vec(work[others, col:], prod)
            pivots.append(col)
            row += 1
        pivots = tuple(pivots)
    rank = len(pivots)
    pivset = set(pivots)
    free = [j for j in range(c) if j not in pivset]
    # kernel row i: 1 at free column free[i], -work[k, free[i]] at pivots[k]
    kern = np.zeros((len(free), c), dtype=field.dtype)
    kern[np.arange(len(free)), free] = 1
    kern[:, list(pivots)] = field.neg_vec(work[:rank, free]).T
    return GaussResult(rank, tuple(pivots), FMatrix(field, work), FMatrix(field, kern))


def kron(A: FMatrix, B: FMatrix) -> FMatrix:
    """Kronecker product over the common field."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    f = A.field
    ra, ca = A.shape
    rb, cb = B.shape
    out = f.exp[f.log[A.a][:, None, :, None] + f.log[B.a][None, :, None, :]]
    return FMatrix(f, out.reshape(ra * rb, ca * cb))


def solve_right(A: FMatrix, B: FMatrix) -> Optional[FMatrix]:
    """Solve A @ X = B; returns None if inconsistent.

    When the solution is not unique the free coordinates are set to zero.
    """
    if A.field != B.field:
        raise ValueError("field mismatch")
    f = A.field
    n, m = A.shape
    if B.shape[0] != n:
        raise ValueError("shape mismatch")
    aug = FMatrix(f, np.hstack([A.a, B.a]))
    res = gauss(aug)
    main_pivots = [p for p in res.pivots if p < m]
    if len(main_pivots) != len(res.pivots):
        return None
    X = np.zeros((m, B.shape[1]), dtype=f.dtype)
    for k, pv in enumerate(main_pivots):
        X[pv] = res.rref.a[k, m:]
    # consistency check against the original system
    if not np.array_equal(f.matmul(A.a, X), B.a):
        return None
    return FMatrix(f, X)
