"""Endomorphism-algebra decomposition engine.

Splits an induced module lambda^G into indecomposable summands by computing
its Hecke endomorphism algebra on double cosets, finding the radical of that
algebra, extracting a complete set of orthogonal primitive idempotents, and
realizing their images.  Also provides irreducibility testing and chopping
into composition factors for the summands themselves.  The irreducibility
test is Holt and Rees's exact form of the MeatAxe (J. Austral. Math. Soc. A
57, 1994): for each random algebra element it spins one null vector and
then one null vector of the transpose, at most two spins (see
``is_irreducible``).

The radical (Cohen, Ivanyos and Wales, JPAA 117/118, 1997) is batched.  Its
level-0 Gram matrix, the trace form tr(L_a L_b), is one product of the
flattened L_a with the flattened transposed L_b.  Level i >= 1 uses
g_i(A) = Tr(A^(p^i)) / p^i mod p, with A lifted digit by digit to the Galois
ring GR(p^(i+1), e) = (Z/p^(i+1))[t]/(F), F the monic integer lift of the
field's primitive polynomial (see ``algebra_radical`` for why g_i is well
defined and p^i-semilinear).  The Gram matrix g_i(L_a L_b) is symmetric, so
only pairs a <= b are formed, in passes of at most RADICAL_PASS_CELLS cells;
a pass is i - 1 p-th powers and one folded trace of batched Galois-ring
products (``FieldTable.ring_matmul``, the packed float64 product of
``FieldTable.matmul`` with coefficients mod p^(i+1)), with no characteristic
polynomial.  The chain stops at a level that repeats the dimension of the
one before once that level is certified a nilpotent left ideal, hence J;
its last level must pass the same certificate or the radical raises.
Products in the Hecke algebra are contractions with its structure tensor,
and realizing an element is one contraction with the double-coset value
table and one gather.

A Hecke algebra A computes one radical, J(A), from its left-regular
matrices; a corner eAe reads its semisimple dimension off
J(eAe) = e J(A) e.  A Krylov minimal polynomial is one Gauss-Jordan on the
columns v, z v, ..., z^n v, and its rows give an idempotent polynomial in a
corner element x as one product with e, x, x^2, ...  A summand with
idempotent E = C R (C its pivot columns, R its RREF rows) has R C = 1, so a
generator g acts on it as R (g C).  ``chop`` reads the actions on an
invariant subspace and its quotient at the pivot columns of the subspace's
RREF, with no change-of-basis inverse.  Every code array here, polynomials
and algebra elements included, is in the field dtype.

All randomized steps draw from an explicitly passed random.Random, so a run
is reproducible from its seed.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ffla import FieldTable, FMatrix, gauss
from .modrep import InducedContext, LinearCharacter, ModuleRep

__all__ = [
    "HeckeEnd",
    "Summand",
    "split_summands",
    "algebra_radical",
    "charpoly",
    "elem_symmetric_coeff",
    "factor_poly",
    "is_irreducible",
    "chop",
    "composition_factor_dims",
    "NeedSplittingField",
]


class NeedSplittingField(RuntimeError):
    """Raised when idempotent extraction cannot certify a corner as local
    over the working field; retry over an extension."""


# ---------------------------------------------------------------------------
# dense polynomials over a FieldTable: arrays of codes in the field dtype,
# ascending degree, no trailing zeros (zero polynomial is length 0)

def pstrip(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def pdeg(a: np.ndarray) -> int:
    return len(a) - 1


def padd(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=f.dtype)
    out[: len(a)] = a
    out[: len(b)] = f.add_vec(out[: len(b)], b)
    return pstrip(out)


def psub(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return padd(f, a, f.neg_vec(b))


def pscale(f: FieldTable, c: int, a: np.ndarray) -> np.ndarray:
    if c == 0:
        return a[:0]
    return f.mul_vec(c, a)


def pmul(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    out = np.zeros(len(a) + len(b) - 1, dtype=f.dtype)
    for i, c in enumerate(a):
        if c:
            out[i: i + len(b)] = f.add_vec(out[i: i + len(b)],
                                           pscale(f, int(c), b))
    return pstrip(out)


def pdivmod(f: FieldTable, a: np.ndarray, b: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    if len(b) == 0:
        raise ValueError("polynomial division by zero")
    a = a.copy()
    binv = f.inv(int(b[-1]))
    q = np.zeros(max(len(a) - len(b) + 1, 0), dtype=f.dtype)
    while len(a) >= len(b):
        c = f.mul(int(a[-1]), binv)
        k = len(a) - len(b)
        q[k] = c
        a[k: k + len(b)] = f.sub_vec(a[k:], pscale(f, c, b))
        a = pstrip(a[:-1])
    return pstrip(q), a


def pmod(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return pdivmod(f, a, b)[1]


def pmonic(f: FieldTable, a: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        raise ValueError("the zero polynomial has no monic multiple")
    return pscale(f, f.inv(int(a[-1])), a)


def pgcd(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    while len(b) > 0:
        a, b = b, pmod(f, a, b)
    return pmonic(f, a) if len(a) else a


def pxgcd(f: FieldTable, a: np.ndarray, b: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, u, v) with u a + v b = g, g monic gcd."""
    one = np.array([1], dtype=f.dtype)
    zero = one[:0]
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while len(r1) > 0:
        q, r = pdivmod(f, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(f, u0, pmul(f, q, u1))
        v0, v1 = v1, psub(f, v0, pmul(f, q, v1))
    if len(r0) == 0:
        return r0, u0, v0
    c = f.inv(int(r0[-1]))
    return pscale(f, c, r0), pscale(f, c, u0), pscale(f, c, v0)


def pderiv(f: FieldTable, a: np.ndarray) -> np.ndarray:
    # the field element k * 1 has the code k mod p
    ks = np.arange(1, len(a)) % f.p
    return pstrip(f.mul_vec(a[1:], ks))


def ppow_mod(f: FieldTable, a: np.ndarray, n: int, m: np.ndarray) -> np.ndarray:
    out = np.array([1], dtype=f.dtype)
    a = pmod(f, a, m)
    while n:
        if n & 1:
            out = pmod(f, pmul(f, out, a), m)
        a = pmod(f, pmul(f, a, a), m)
        n >>= 1
    return out


def pth_root_poly(f: FieldTable, a: np.ndarray) -> np.ndarray:
    """For a = h(t^p), return h with p-th roots taken on coefficients."""
    if (len(a) - 1) % f.p != 0:
        raise ValueError(f"degree {len(a) - 1} is not a multiple of p = {f.p}")
    coeffs = a[:: f.p]
    # p-th root on F_q is Frobenius applied e-1 times
    for _ in range(f.e - 1):
        coeffs = f.frobenius_vec(coeffs)
    return pstrip(coeffs)


def squarefree_parts(f: FieldTable, a: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """[(g, m)] with a = prod g^m up to a constant, g squarefree, pairwise
    coprime; standard characteristic-p refinement."""
    a = pmonic(f, a)
    if pdeg(a) == 0:
        return []
    d = pderiv(f, a)
    if len(d) == 0:
        return [(g, f.p * m) for g, m in squarefree_parts(f, pth_root_poly(f, a))]
    out: list[tuple[np.ndarray, int]] = []
    c = pgcd(f, a, d)
    w = pdivmod(f, a, c)[0]
    i = 1
    while pdeg(w) > 0:
        y = pgcd(f, w, c)
        z = pdivmod(f, w, y)[0]
        if pdeg(z) > 0:
            out.append((pmonic(f, z), i))
        w = y
        c = pdivmod(f, c, y)[0]
        i += 1
    if pdeg(c) > 0:
        # leftover: factors with multiplicity divisible by p; c has zero
        # derivative, so the recursion scales those multiplicities itself
        out.extend(squarefree_parts(f, c))
    return out


def _ddf(f: FieldTable, a: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Distinct-degree split of a squarefree monic poly: [(product, d)]."""
    out = []
    t = np.array([0, 1], dtype=f.dtype)
    h = t.copy()
    d = 0
    while pdeg(a) > 0:
        d += 1
        if 2 * d > pdeg(a):
            out.append((a, pdeg(a)))
            break
        h = ppow_mod(f, h, f.q, a)
        g = pgcd(f, psub(f, h, t), a)
        if pdeg(g) > 0:
            out.append((g, d))
            a = pdivmod(f, a, g)[0]
            h = pmod(f, h, a)
    return out


def _edf(f: FieldTable, a: np.ndarray, d: int, rng: random.Random
         ) -> list[np.ndarray]:
    """Equal-degree split (all irreducible factors have degree d)."""
    if pdeg(a) == d:
        return [pmonic(f, a)]
    while True:
        r = np.array([rng.randrange(f.q) for _ in range(pdeg(a))], dtype=f.dtype)
        r = pstrip(r)
        if pdeg(r) < 1:
            continue
        if f.p == 2:
            # trace map over GF(2): r + r^2 + r^4 + ... splits the roots
            acc = pmod(f, r, a)
            s = acc.copy()
            for _ in range(f.e * d - 1):
                acc = pmod(f, pmul(f, acc, acc), a)
                s = padd(f, s, acc)
            g = pgcd(f, s, a)
        else:
            b = ppow_mod(f, r, (f.q ** d - 1) // 2, a)
            g = pgcd(f, psub(f, b, np.array([1], dtype=f.dtype)), a)
        if 0 < pdeg(g) < pdeg(a):
            left = _edf(f, g, d, rng)
            right = _edf(f, pdivmod(f, a, g)[0], d, rng)
            return left + right


def factor_poly(f: FieldTable, a: np.ndarray, rng: random.Random
                ) -> list[tuple[np.ndarray, int]]:
    """Monic irreducible factors with multiplicities, deterministically
    ordered by (degree, coefficient tuple)."""
    found: dict[tuple[int, ...], int] = {}
    for g, mult in squarefree_parts(f, a):
        for prod, d in _ddf(f, g):
            for irr in _edf(f, prod, d, rng):
                key = tuple(int(v) for v in irr)
                found[key] = found.get(key, 0) + mult
    items = [(np.array(k, dtype=f.dtype), m) for k, m in found.items()]
    items.sort(key=lambda t: (len(t[0]), tuple(int(v) for v in t[0])))
    return items


# ---------------------------------------------------------------------------
# characteristic polynomial of one matrix: the radical no longer uses it; it
# is the reference that the radical's tests build their charpoly chain on,
# and bench/tracer.py times both functions by name

def charpoly(f: FieldTable, M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial (ascending coefficients, length n+1)
    via Hessenberg reduction."""
    n = M.shape[0]
    H = M.astype(f.dtype)
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if H[i, j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[[j + 1, piv], :] = H[[piv, j + 1], :]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        inv = f.inv(int(H[j + 1, j]))
        for i in range(j + 2, n):
            if H[i, j]:
                c = f.mul(int(H[i, j]), inv)
                H[i, :] = f.sub_vec(H[i, :], f.mul_vec(c, H[j + 1, :]))
                H[:, j + 1] = f.add_vec(H[:, j + 1], f.mul_vec(c, H[:, i]))
    # p_k(t) = (t - H[k-1,k-1]) p_{k-1} - sum_i H[i-1,k-1] (prod subdiag) p_{i-1}
    polys = [np.array([1], dtype=f.dtype)]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = np.zeros(k + 1, dtype=f.dtype)
        term[1:] = prev
        c0 = int(H[k - 1, k - 1])
        if c0:
            term[: len(prev)] = f.sub_vec(term[: len(prev)],
                                          f.mul_vec(c0, prev))
        run = 1
        for i in range(k - 1, 0, -1):
            run = f.mul(run, int(H[i, i - 1]))
            if run == 0:
                break
            c = f.mul(int(H[i - 1, k - 1]), run)
            if c:
                pi = polys[i - 1]
                term[: len(pi)] = f.sub_vec(term[: len(pi)], pscale(f, c, pi))
        polys.append(term)
    return polys[n]


def elem_symmetric_coeff(f: FieldTable, M: np.ndarray, k: int) -> int:
    """e_k of the eigenvalues: (-1)^k times the coefficient of t^(n-k) of
    the characteristic polynomial."""
    c = int(charpoly(f, M)[M.shape[0] - k])
    return f.neg(c) if k % 2 else c


# ---------------------------------------------------------------------------
# radical of an associative unital algebra given by left-regular matrices

# Upper bound on the cells (pairs x n x n) that one pass of a radical level
# works on.  A pass lifts its pairs and holds a few int64 and packed
# float64 stacks of that size per coefficient of the Galois ring, which
# bounds a level's temporaries.  Of 2^13 .. 2^16, 2^14 ran the catalog
# corners about as fast as any (3A7's fastest), and their radicals then
# peak below 4 MiB of heap; 2^16 doubles the 3A7 time and heap.
RADICAL_PASS_CELLS = 1 << 14


def _ring_pow(f: FieldTable, N: int, x: np.ndarray, n: int) -> np.ndarray:
    """x^n over GR(N, e) for n >= 1, by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else f.ring_matmul(out, x, N)
        n >>= 1
        if not n:
            return out
        x = f.ring_matmul(x, x, N)


def _trace_form(f: FieldTable, a: np.ndarray, b: np.ndarray, i: int
                ) -> np.ndarray:
    """g_i(A B) as codes, for paired stacks a, b of n x n matrices lifted to
    GR(p^(i+1), e) (coefficient axis first).

    A B is raised to the p^i-th power by i - 1 p-th powers, and the last one
    is folded into the trace as Tr(X^(p-1) X).
    """
    p = f.p
    N = p ** (i + 1)
    x = f.ring_matmul(a, b, N)
    for _ in range(i - 1):
        x = _ring_pow(f, N, x, p)
    tr = f.ring_matmul(_ring_pow(f, N, x, p - 1), x, N, trace=True)
    if (tr % p ** i).any():
        raise RuntimeError(f"a level-{i} trace is not divisible by {p}^{i}")
    return f.codes(tr // p ** i)


def _nilpotent_left_ideal(f: FieldTable, reg: np.ndarray, ideal: np.ndarray,
                          pivots: Sequence[int]) -> bool:
    """Whether the row span I of ``ideal`` is a nilpotent left ideal.

    ``ideal`` is in RREF with pivot columns ``pivots``, and ``reg`` is the
    (d, d, d) stack of the left-regular matrices L_k.  A I <= I holds when
    every row s L_k^T = (L_k s)^T equals its entries at the pivots times
    ``ideal``: one stacked product and one more for the reduction.  Then
    I^(k+1) = I I^k <= I^k, and the rows x L_s^T = (s x)^T for x in I^k
    and s in I span I^(k+1): one stacked product and one ``gauss`` per
    step.  I is nilpotent when the chain reaches 0, and is not once its
    rank stops falling.
    """
    r, d = ideal.shape
    if r == 0:
        return True
    # reg_t[y, k d + x] = L_k[x, y], so block k of row s of ideal @ reg_t
    # is L_k s; mats_t lays out the L_s of the rows s of ideal the same way
    reg_t = reg.transpose(2, 0, 1).reshape(d, d * d)
    images = f.matmul(ideal, reg_t).reshape(r * d, d)
    if not np.array_equal(f.matmul(images[:, list(pivots)], ideal), images):
        return False
    mats = f.matmul(ideal, reg.reshape(d, d * d)).reshape(r, d, d)
    mats_t = mats.transpose(2, 0, 1).reshape(d, r * d)
    power = ideal
    while True:
        red = gauss(FMatrix(f, f.matmul(power, mats_t).reshape(-1, d)))
        if red.rank == 0:
            return True
        if red.rank >= power.shape[0]:
            return False
        power = red.rref.a[: red.rank]


def algebra_radical(f: FieldTable, reg: Sequence[np.ndarray]) -> FMatrix:
    """Row basis (coordinates) of the Jacobson radical, in RREF.

    reg[k] is the left-multiplication matrix L_k of basis element k acting
    on coordinate columns.  Level 0 keeps the x in the algebra with
    Tr(L_x L_y) = 0; level i >= 1 cuts I_(i-1), the result of level i - 1,
    down to the x with g_i(L_x L_y) = 0 for y in I_(i-1), while p^i <= d.
    Over a perfect field the last I_i is the radical (Cohen, Ivanyos and
    Wales, JPAA 117/118, 1997).

    The chain stops early, and every radical it returns is certified:

    - Every level keeps J = J(A): J <= I_i.  For x in J and any y, xy is
      in J, so L_x L_y = L_(xy) is nilpotent.  g_i does not depend on the
      lift (below), so lift L_(xy) strictly upper triangular in a basis
      that makes it so: every power then has trace 0.
    - A nilpotent left ideal lies in J.
    - So once I_i is a left ideal (A I_i <= I_i) with I_i^k = 0 for some
      k, I_i = J.  After each level i >= 1 whose I_i has the dimension of
      I_(i-1), ``_nilpotent_left_ideal`` tests this, and the chain stops
      if it holds.  A chain that runs to its end tests its last I_i the
      same way, and raises RuntimeError if the test fails.

    g_i(A) = Tr(A'^(p^i)) / p^i mod p, where A' is any lift of A to the
    Galois ring R = GR(p^(i+1), e), whose residue field is GF(p^e):

    - g_i does not depend on the lift: Tr((A' + pB)^(p^i)) and Tr(A'^(p^i))
      agree mod p^(i+1), because the words of the expansion with j >= 1
      factors pB fall into rotation orbits of size p^(i-s), p^s dividing j,
      each a multiple of p^(j+i-s) with j >= p^s > s.
    - p^i divides the trace on I_(i-1): by the Gauss (Fermat) congruence
      Tr(A'^(p^j)) = phi(Tr(A'^(p^(j-1)))) mod p^j, phi the Frobenius of R,
      and by the levels j < i, which make Tr(A'^(p^j)) = 0 mod p^(j+1) for
      A = L_a L_b with a, b in I_(i-1).  A trace that is not divisible
      raises RuntimeError.
    - g_i is p^i-semilinear in x: the Teichmueller lift c' of a scalar c
      gives Tr((c'A')^(p^i)) = c'^(p^i) Tr(A'^(p^i)), so g_i(cA) =
      c^(p^i) g_i(A), and the mixed words of (A' + B')^(p^i) fall into
      rotation orbits whose size p^(i-s) times the p^(s+1) that level s
      puts in their traces makes them vanish mod p^(i+1).

    So level i solves a linear system in Frobenius-twisted unknowns.  The
    Gram matrix g_i(L_a L_b) is symmetric, because (AB)^n and (BA)^n have
    the same trace, so levels i >= 1 form only the products with a <= b.

    That g_i cuts out the same I_i as the published chain, whose level i
    is e_(p^i)(L_x L_y) = 0, is not proved here for e > 1, where the lift
    is to a Galois ring rather than to the integers.  The certificate makes
    the returned radical J either way; the equality of the levels rests on
    tests, a hypothesis oracle against the e_(p^i) chain on group algebras
    in random bases over GF(4), GF(8), GF(9) and GF(25).
    """
    d = len(reg)
    stack = np.asarray(reg, dtype=f.dtype)
    flat = stack.reshape(d, d * d)
    cur = np.eye(d, dtype=f.dtype)
    pivots = tuple(range(d))
    i = 0
    tested = False
    while f.p ** i <= d:
        m = cur.shape[0]
        mats = f.matmul(cur, flat).reshape(m, d, d)
        if i == 0:
            flat_t = mats.transpose(0, 2, 1).reshape(m, d * d)
            gamma = f.matmul(mats.reshape(m, d * d), flat_t.T)
        else:
            # digit u of a code is the coefficient of t^u in its lift
            digits = f.digits(mats)
            gamma = np.zeros((m, m), dtype=f.dtype)
            ia, ib = np.triu_indices(m)
            step = max(1, RADICAL_PASS_CELLS // (d * d))
            for s in range(0, len(ia), step):
                ca, cb = ia[s: s + step], ib[s: s + step]
                vals = _trace_form(f, digits[:, ca], digits[:, cb], i)
                gamma[ca, cb] = vals
                gamma[cb, ca] = vals
        eta = gauss(FMatrix(f, gamma.T)).kernel.a
        if eta.shape[0] == 0:
            return FMatrix(f, cur[:0])
        shift = (-i) % f.e
        xi = f.pow_vec(eta, f.p ** shift)
        new = f.matmul(xi, cur)
        red = gauss(FMatrix(f, new))
        cur, pivots = red.rref.a[: red.rank], red.pivots
        tested = i >= 1 and red.rank == m
        if tested and _nilpotent_left_ideal(f, stack, cur, pivots):
            return FMatrix(f, cur)
        i += 1
    if not tested and _nilpotent_left_ideal(f, stack, cur, pivots):
        return FMatrix(f, cur)
    raise RuntimeError(f"the last radical level, of dimension {cur.shape[0]}, "
                       f"is not a nilpotent left ideal")


# ---------------------------------------------------------------------------
# Hecke endomorphism algebra of an induced character

# random corner elements drawn before a corner that neither splits nor is
# certified local raises NeedSplittingField
SPLIT_TRIES = 40


class HeckeEnd:
    """End_kG(lambda^G) on its double-coset basis.

    Basis elements F_a live on the lambda-good (N,N) double cosets; the
    realization sends F_a to the dim x dim matrix F_a(t_i t_j^-1), which
    commutes with the induced action.  Structure constants come from
    convolution over N-cosets.
    """

    def __init__(self, ctx: InducedContext, lam: LinearCharacter):
        self.ctx = ctx
        self.lam = lam
        self.f = lam.field
        f = self.f
        self.good = ctx.good_dcs(lam)
        self.dim_alg = len(self.good)
        lamg = ctx.lambda_on_g(lam)
        trans = np.array(ctx.transversal, dtype=np.int64)
        pair = ctx.pairprod
        self.fvals = np.zeros((self.dim_alg, ctx.G.order), dtype=f.dtype)
        for pos, a in enumerate(self.good):
            mask = ctx.dc_of == a
            self.fvals[pos, mask] = lamg[mask]
        # structure constants c[d][a, b] with F_a F_b = sum_d c F_d,
        # via c = sum over cosets t_j of F_a(rep_d t_j^-1) F_b(t_j)
        m_f = np.ascontiguousarray(self.fvals[:, trans].T)
        self.structure = np.zeros((self.dim_alg,) * 3, dtype=f.dtype)
        for dpos, dcid in enumerate(self.good):
            row = pair[ctx.dc_rep_coset(dcid)]
            self.structure[dpos] = f.matmul(self.fvals[:, row], m_f)
        # identity coordinates: the double coset of 1 is N itself, id 0
        if self.good[0] != 0:
            raise RuntimeError("the double coset of 1 is not the first "
                               "lambda-good double coset")
        self.unit = np.zeros(self.dim_alg, dtype=f.dtype)
        self.unit[0] = 1
        # the structure tensor laid out for contraction with coordinate rows:
        # x @ _left is L_x flattened (L_x[d, b] = sum_a c[d, a, b] x_a), the
        # left-multiplication matrix, and x @ _right is R_x flattened
        # (R_x[d, a] = sum_b c[d, a, b] x_b)
        dd = self.dim_alg * self.dim_alg
        self._left = np.ascontiguousarray(
            self.structure.transpose(1, 0, 2)).reshape(-1, dd)
        self._right = np.ascontiguousarray(
            self.structure.transpose(2, 0, 1)).reshape(-1, dd)

    def _contract(self, layout: np.ndarray, xs: np.ndarray) -> np.ndarray:
        n = self.dim_alg
        return self.f.matmul(np.atleast_2d(xs), layout).reshape(-1, n, n)

    def left_mul(self, x: np.ndarray) -> np.ndarray:
        """L_x: the matrix of y -> x y on coordinate columns."""
        return self._contract(self._left, x)[0]

    def right_mul(self, x: np.ndarray) -> np.ndarray:
        """R_x: the matrix of y -> y x on coordinate columns."""
        return self._contract(self._right, x)[0]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.f.matmul(y[None, :], self.left_mul(x).T)[0]

    def realize(self, x: np.ndarray) -> FMatrix:
        """sum_a x_a F_a as a dim x dim matrix: the values of that function
        on G, one contraction with fvals, gathered at t_i t_j^-1."""
        f = self.f
        vals = f.matmul(np.asarray(x)[None, :], self.fvals)[0]
        return FMatrix(f, vals[self.ctx.pairprod])

    # -- idempotent machinery -------------------------------------------------

    @functools.cached_property
    def radical(self) -> np.ndarray:
        """Row basis of J(A), from the left-regular matrices L_k."""
        n = self.dim_alg
        return algebra_radical(self.f, self._left.reshape(n, n, n)).a

    def _corner(self, e: np.ndarray) -> tuple[np.ndarray, int]:
        """(row basis of eAe, dim of eAe / J(eAe)).  Column k of R_e L_e is
        e F_k e, and J(eAe) = e J(A) e is spanned by the rows of
        J (R_e L_e)^T."""
        f = self.f
        rows = f.matmul(self.right_mul(e), self.left_mul(e)).T
        red = gauss(FMatrix(f, rows))
        rad = gauss(FMatrix(f, f.matmul(self.radical, rows))).rank
        return red.rref.a[: red.rank], red.rank - rad

    def _split_corner(self, e: np.ndarray, rng: random.Random
                      ) -> list[np.ndarray]:
        f = self.f
        basis, sdim = self._corner(e)
        if sdim == 1:
            return [e]
        m = basis.shape[0]
        for _ in range(SPLIT_TRIES):
            coeffs = np.array([[rng.randrange(f.q) for _ in range(m)]], dtype=f.dtype)
            x = f.matmul(coeffs, basis)[0]
            # e x = x, so the Krylov rows of R_x on e are e, x, x^2, ...
            mp, powers = _krylov(f, FMatrix(f, self.right_mul(x)), e)
            fac = factor_poly(f, mp, rng)
            if len(fac) >= 2:
                g0, m0 = fac[0]
                part = g0
                for _ in range(m0 - 1):
                    part = pmul(f, part, g0)
                rest = pdivmod(f, mp, part)[0]
                g, u, v = pxgcd(f, rest, part)
                if pdeg(g) != 0 or int(g[0]) != 1:
                    raise RuntimeError("minimal polynomial factors are not coprime")
                # idempotent: (u * rest) = 1 mod part, 0 mod rest
                eps_poly = pmod(f, pmul(f, u, rest), mp)
                eps = f.matmul(eps_poly[None, :], powers[: len(eps_poly)])[0]
                if not np.array_equal(self.mul(eps, eps), eps):
                    raise RuntimeError("split element is not idempotent")
                other = f.sub_vec(e, eps)
                if self.mul(eps, other).any():
                    raise RuntimeError("split idempotents are not orthogonal")
                return (self._split_corner(eps, rng)
                        + self._split_corner(other, rng))
            g0, _ = fac[0]
            if pdeg(g0) == sdim:
                # residue field is generated by the image of x: local corner
                return [e]
        raise NeedSplittingField(
            f"could not split or certify corner of dim {m} over GF({f.q})")

    def primitive_idempotents(self, rng: random.Random) -> list[np.ndarray]:
        prims = self._split_corner(self.unit, rng)
        # consistency: orthogonal decomposition of the identity
        total = np.zeros(self.dim_alg, dtype=self.f.dtype)
        for e in prims:
            total = self.f.add_vec(total, e)
        if not np.array_equal(total, self.unit):
            raise RuntimeError("primitive idempotents do not sum to the unit")
        return prims


# ---------------------------------------------------------------------------
# summand realization

@dataclass
class Summand:
    """Indecomposable direct summand of an induced module."""
    rep: ModuleRep
    dim: int
    idem: np.ndarray
    basis_cols: FMatrix          # dim(V) x dim embedding of the summand


def split_summands(ctx: InducedContext, lam: LinearCharacter,
                   induced: ModuleRep, rng: random.Random) -> list[Summand]:
    """Decompose lambda^G into indecomposables via its Hecke algebra."""
    f = lam.field
    hecke = HeckeEnd(ctx, lam)
    prims = hecke.primitive_idempotents(rng)
    out = []
    total = 0
    for e in prims:
        E = hecke.realize(e)
        red = gauss(E)
        r = red.rank
        C = FMatrix(f, np.ascontiguousarray(E.a[:, red.pivots]))
        # E = C R for the RREF rows R, and E^2 = E gives R C = 1, so the
        # generator g acts on the summand as R (g C)
        images = np.hstack([f.matmul(g.a, C.a) for g in induced.gen_mats])
        acts = f.matmul(red.rref.a[:r], images)
        if not np.array_equal(f.matmul(C.a, acts), images):
            raise RuntimeError("summand basis not invariant")
        mats = [FMatrix(f, acts[:, k * r:(k + 1) * r])
                for k in range(len(induced.gen_mats))]
        rep = ModuleRep(induced.table, f, mats)
        out.append(Summand(rep, r, e, C))
        total += r
    if total != induced.dim:
        raise RuntimeError(f"summand dimensions add to {total}, "
                           f"expected {induced.dim}")
    # the bytes of the field-dtype codes order as those of the same codes in
    # any wider unsigned or nonnegative dtype: a wider entry only adds zero
    # high-order bytes
    order = sorted(range(len(out)), key=lambda i: (out[i].dim,
                                                   out[i].idem.tobytes()))
    return [out[i] for i in order]


# ---------------------------------------------------------------------------
# spinning, irreducibility (Holt-Rees: random algebra elements, exact
# verdicts), composition factors

def spin(f: FieldTable, mats: Sequence[FMatrix], seeds: np.ndarray) -> FMatrix:
    """Smallest invariant subspace (column action) containing the seed rows,
    as its RREF row basis.

    Each round stacks the span with its images under every generator and
    reduces the stack with one Gauss-Jordan, until the rank stops growing
    or fills the space.
    """
    seeds = np.atleast_2d(seeds)
    n = seeds.shape[1]
    tns = [np.ascontiguousarray(m.a.T) for m in mats]
    red = gauss(FMatrix(f, seeds))
    span = red.rref.a[: red.rank]
    while span.shape[0] < n:
        red = gauss(FMatrix(f, np.vstack([span] + [f.matmul(span, t)
                                                   for t in tns])))
        if red.rank == span.shape[0]:
            break
        span = red.rref.a[: red.rank]
    return FMatrix(f, span)


def _random_algebra_elem(f: FieldTable, mats: Sequence[FMatrix],
                         rng: random.Random) -> FMatrix:
    n = mats[0].a.shape[0]
    acc = FMatrix(f, np.zeros((n, n), dtype=f.dtype))
    for _ in range(3):
        m = FMatrix.identity(f, n)
        for _ in range(rng.randrange(1, 4)):
            m = m @ mats[rng.randrange(len(mats))]
        c = rng.randrange(1, f.q)
        acc = acc + m.scale(c)
    return acc


def _krylov(f: FieldTable, z: FMatrix, v: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """(minimal polynomial of z on the cyclic subspace generated by v, its
    Krylov rows v, z v, ..., z^(d-1) v with d the degree).

    One Gauss-Jordan on the columns v, z v, ..., z^n v: the first d are the
    pivots, and the kernel row of free column d is the polynomial.
    """
    n = z.a.shape[0]
    zt = np.ascontiguousarray(z.a.T)
    rows = np.zeros((n + 1, n), dtype=f.dtype)
    rows[0] = v
    for k in range(n):
        rows[k + 1] = f.matmul(rows[k: k + 1], zt)[0]
    red = gauss(FMatrix(f, rows.T))
    d = red.rank
    return red.kernel.a[0, : d + 1], rows[:d]


def _mat_poly(f: FieldTable, poly: np.ndarray, z: FMatrix) -> FMatrix:
    n = z.a.shape[0]
    acc = FMatrix(f, np.zeros((n, n), dtype=f.dtype))
    ident = FMatrix.identity(f, n)
    for c in poly[::-1]:
        acc = acc @ z
        if c:
            acc = acc + ident.scale(int(c))
    return acc


def is_irreducible(f: FieldTable, mats: Sequence[FMatrix], rng: random.Random
                   ) -> tuple[bool, Optional[FMatrix]]:
    """Holt-Rees irreducibility test: at most two spins per algebra element.

    Returns (True, None), or (False, row basis of a proper nonzero invariant
    subspace).  For a random algebra element z, let g0 be an irreducible
    factor of the minimal polynomial of z on a cyclic subspace (so g0(z) is
    singular) and N = null g0(z).  Spin one nonzero vector of N, then one
    nonzero vector of null g0(z)^T under the transposed generators; a proper
    span is a witness (the annihilator of the second one).  If both spans are
    the whole space and dim N = deg g0, the module is irreducible; otherwise
    draw another z (Holt and Rees, J. Austral. Math. Soc. A 57, 1994).

    Lemma: when dim N = deg g0, every proper nonzero submodule W contains N
    or has all of null g0(z)^T in its annihilator W^perp.  Proof: N is one
    line over the field k[z]/(g0), and W meets N in a k[z]-subspace, so
    W cap N is 0 or N.  If W cap N = 0, g0(z) is injective, hence invertible,
    on W; so W lies in the image of g0(z), and W^perp contains null g0(z)^T.
    Either way one of the two spins stays inside a proper submodule.
    """
    n = mats[0].a.shape[0]
    if n == 1:
        return True, None
    q = f.q
    tmats = [FMatrix(f, np.ascontiguousarray(m.a.T)) for m in mats]
    for _ in range(80):
        z = _random_algebra_elem(f, mats, rng)
        if z.is_zero():
            continue
        v = np.array([rng.randrange(q) for _ in range(n)], dtype=f.dtype)
        if not v.any():
            continue
        mp = _krylov(f, z, v)[0]
        fac = factor_poly(f, mp, rng)
        if len(fac) == 1 and fac[0][1] == 1 and pdeg(fac[0][0]) == n:
            # the algebra contains a field of degree n, so the module is a
            # one-dimensional space over it: irreducible
            return True, None
        g0 = fac[0][0]
        w = _mat_poly(f, g0, z)
        null = gauss(w).kernel
        span = spin(f, mats, null.a[0])
        if span.shape[0] < n:
            return False, span
        spant = spin(f, tmats, gauss(w.T).kernel.a[0])
        if spant.shape[0] < n:
            # annihilator of the dual-side submodule is invariant
            ann = gauss(spant).kernel
            if not 0 < ann.a.shape[0] < n:
                raise RuntimeError("dual annihilator is not a proper subspace")
            return False, ann
        if null.shape[0] == pdeg(g0):
            return True, None
    raise RuntimeError("no usable singular element found")


def chop(f: FieldTable, mats: Sequence[FMatrix], rng: random.Random
         ) -> list[list[FMatrix]]:
    """Composition factors (as generator-matrix lists), recursively."""
    n = mats[0].a.shape[0]
    if n == 0:
        return []
    ok, wit = is_irreducible(f, mats, rng)
    if ok:
        return [list(mats)]
    # W is the row span of the RREF w, and wt = w^T has the identity at
    # rows piv; in the basis (w^T, e_rest), g acts on W as (g w^T)[piv] and
    # on V/W as g[rest, rest] - w[:, rest]^T g[piv, rest]
    red = gauss(wit)
    piv = list(red.pivots)
    rest = [c for c in range(n) if c not in red.pivots]
    wt = np.ascontiguousarray(red.rref.a[: red.rank].T)
    w_rest = wt[rest]
    subs, quots = [], []
    for m in mats:
        gw = f.matmul(m.a, wt)
        act = gw[piv]
        if not np.array_equal(gw[rest], f.matmul(w_rest, act)):
            raise RuntimeError("invariant subspace not respected")
        subs.append(FMatrix(f, act))
        quots.append(FMatrix(f, f.sub_vec(m.a[np.ix_(rest, rest)],
                                          f.matmul(w_rest, m.a[np.ix_(piv, rest)]))))
    return chop(f, subs, rng) + chop(f, quots, rng)


def composition_factor_dims(f: FieldTable, mats: Sequence[FMatrix],
                            rng: random.Random) -> list[int]:
    return sorted(m[0].a.shape[0] for m in chop(f, mats, rng))
