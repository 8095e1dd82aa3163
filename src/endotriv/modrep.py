"""Modules for a finite group over GF(p^e): linear characters, induction
from a subgroup, restriction, tensor and dual, fixed points and Brauer
quotients.

A module is stored as one matrix per group generator (column-vector action,
so R(g) R(h) = R(gh)); matrices for arbitrary elements are evaluated through
the enumeration's parent chain and memoized read-only.  A tensor product
keeps its two factor modules, so an End module dual(U) tensor U or a tensor
power (repeated squaring of factor modules) forms the matrix of an element
as the kron of its factors' matrices, with no product.  Subgroups are group
tables enumerated on ambient indices (subgroup_table), so restriction reads
their generators directly.  Induction of a linear character lambda from N to
G uses a right transversal G = union of N t_i, with all coset and
double-coset combinatorics taken from the orbit labeller of G and cached per
(G, N) pair in an InducedContext so that every lambda reuses them.

Brauer quotients share one walk down the p-subgroup lattice per module: the
fixed space of a p-subgroup Q is the part of the fixed space of its first
maximal subgroup M fixed by g, the least element of Q outside M.  Each module
memoizes these fixed spaces by subgroup (as a set of table indices) for as
long as it lives.  The walk runs in coordinates of the fixed spaces: a fixed
basis is a product of gauss kernels, each the identity at its free columns,
so it is the identity at columns cols(Q) memoized beside it, and a vector of
fixed(Q) has its entries at cols(Q) as coordinates.  M is normal in Q, so
R(g) keeps fixed(M), and of the walk's block (R(g) - 1) fixed(M)^T only the
rows at cols(M) are formed: B, the matrix of R(g) - 1 on fixed(M) in its
coordinates.  [Q : M] = p, so the relative trace from M to Q is
sum_{k<p} R(g)^k, which is (R(g) - 1)^(p-1) in characteristic p: the trace
image of fixed(M) is (B^(p-1))[free]^T in coordinates of fixed(Q), memoized
with it.  Every other maximal subgroup M' of Q, with g' the least element
outside it, contributes fixed(M') ((R(g') - 1)^(p-1))[cols(Q)]^T, and the
traces are eliminated on their entries at cols(Q).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .ffla import FieldTable, FMatrix, gauss, kron
from .grp import AbelianPPrime, GroupTable, SubgroupOps

__all__ = [
    "LinearCharacter",
    "character_group",
    "ModuleRep",
    "InducedContext",
    "one_dim_module",
    "subgroup_table",
    "fixed_point_rows",
    "brauer_quotient",
    "BrauerQuotient",
]


class LinearCharacter:
    """p'-linear character of a group table, given by exponents against the
    invariant factors of its p'-abelianization.

    Values are field codes; the field must contain the needed roots of unity.
    """

    def __init__(self, ntable: GroupTable, ab: AbelianPPrime, field: FieldTable,
                 exps: Sequence[int]):
        if len(exps) != len(ab.orders):
            raise ValueError(f"{len(exps)} exponents for {len(ab.orders)} "
                             f"invariant factors")
        self.ntable = ntable
        self.ab = ab
        self.field = field
        self.exps = tuple(int(a) % d for a, d in zip(exps, ab.orders))
        roots = [field.root_of_unity(d) for d in ab.orders]
        vals = np.ones(ntable.order, dtype=field.dtype)
        for j, (r, a) in enumerate(zip(roots, self.exps)):
            if a == 0:
                continue
            # value contribution zeta_d^(a * coordinate); exponentiate via logs
            lstep = int(field.log[field.pow(r, a)])
            contrib = field.exp[(lstep * ab.proj[:, j]) % (field.q - 1)]
            vals = field.mul_vec(vals, contrib)
        self.vals = vals

    @property
    def order(self) -> int:
        o = 1
        for a, d in zip(self.exps, self.ab.orders):
            o = lcm(o, d // gcd(d, a))
        return o

    def value(self, i: int) -> int:
        return int(self.vals[i])

    def __repr__(self) -> str:
        return f"LinearCharacter{self.exps}"


def character_group(ntable: GroupTable, ab: AbelianPPrime,
                    field: FieldTable) -> list[LinearCharacter]:
    """All p'-linear characters, ordered by exponent tuple."""
    out = []
    tuples = [()]
    for d in ab.orders:
        tuples = [t + (a,) for t in tuples for a in range(d)]
    for t in sorted(tuples):
        out.append(LinearCharacter(ntable, ab, field, t))
    return out


class ModuleRep:
    """Matrix representation attached to a group table: one matrix per
    generator, and the matrix of any element memoized by ``at``.

    A tensor product keeps its two factor modules in ``factors``; the
    matrix of an element is then the kron of the factors' matrices of it,
    one gather and no product.  A module without factors multiplies down
    the enumeration's parent chain.  Generator matrices and every ``at``
    result are read-only: the memo hands them out, and ``restrict`` passes
    them on as generator matrices.
    """

    def __init__(self, table: GroupTable, field: FieldTable,
                 gen_mats: Sequence[FMatrix],
                 factors: tuple["ModuleRep", ...] = ()):
        if len(gen_mats) != len(table.gens):
            raise ValueError(f"{len(gen_mats)} matrices for {len(table.gens)} "
                             f"generators")
        self.table = table
        self.field = field
        self.gen_mats = list(gen_mats)
        self.factors = factors
        self.dim = gen_mats[0].a.shape[0] if gen_mats else 1
        ident = FMatrix.identity(field, self.dim)
        for m in [ident, *self.gen_mats]:
            m.a.flags.writeable = False
        self._memo: dict[int, FMatrix] = {0: ident}
        # fixed rows of nontrivial p-subgroups, the columns at which they are
        # the identity, and the trace image of fixed(M) for M the walk's
        # maximal subgroup in their coordinates, keyed by table indices
        # (_fixed)
        self._fixed: dict[frozenset[int],
                          tuple[FMatrix, np.ndarray, np.ndarray]] = {}

    def at(self, i: int) -> FMatrix:
        """Matrix of element i, memoized and read-only.  A generator's is its
        own matrix; any other is the kron of the factors' matrices, or for a
        module without factors the product down the parent chain."""
        memo = self._memo
        parent, genidx = self.table._parent, self.table._genidx
        # the elements to fill: i and, without factors, its parent chain
        # down to a memoized element
        stack = []
        j = i
        while j not in memo:
            stack.append(j)
            j = 0 if self.factors else parent[j]
        for j in reversed(stack):
            if parent[j] == 0:
                m = self.gen_mats[genidx[j]]
            elif self.factors:
                a, b = self.factors
                m = kron(a.at(j), b.at(j))
            else:
                m = memo[parent[j]] @ self.gen_mats[genidx[j]]
            m.a.flags.writeable = False
            memo[j] = m
        return memo[i]

    def restrict(self, sub: GroupTable) -> "ModuleRep":
        """Restriction to a subgroup table of self.table (subgroup_table)."""
        if not (isinstance(sub.ops, SubgroupOps) and sub.ops.ambient is self.table):
            raise ValueError("restriction to a table that is not a subgroup "
                             "table of the module's group")
        return ModuleRep(sub, self.field, [self.at(g) for g in sub.gens])

    def tensor(self, other: "ModuleRep") -> "ModuleRep":
        """self tensor other, keeping both as its factors."""
        if self.table is not other.table:
            raise ValueError("tensor of modules over different group tables")
        mats = [kron(a, b) for a, b in zip(self.gen_mats, other.gen_mats)]
        return ModuleRep(self.table, self.field, mats, (self, other))

    def tensor_power(self, m: int) -> "ModuleRep":
        """m-th tensor power (m >= 1) of m copies of self, by repeated
        squaring: kron is associative, so the bracketing is free, and m
        costs about 2 log2(m) tensor steps."""
        if m < 1:
            raise ValueError(f"tensor power {m} < 1")
        out, sq = None, self
        while True:
            if m & 1:
                out = sq if out is None else out.tensor(sq)
            m >>= 1
            if not m:
                return out
            sq = sq.tensor(sq)

    def dual(self) -> "ModuleRep":
        mats = [m.inverse().T for m in self.gen_mats]
        return ModuleRep(self.table, self.field, mats)


def one_dim_module(ntable: GroupTable, lam: LinearCharacter) -> ModuleRep:
    mats = [FMatrix(lam.field, np.array([[lam.value(gi)]]))
            for gi in ntable.gen_idx]
    return ModuleRep(ntable, lam.field, mats)


def subgroup_table(G: GroupTable, indices: Iterable[int]) -> GroupTable:
    """Group table of a subgroup on its own small generating set.

    The enumeration runs on ambient indices: its elements are G-indices and
    its product is G.mul, so elements[j] is the G-index of the j-th element.
    """
    idx = list(indices)
    return GroupTable(SubgroupOps(G), G.small_gens(idx) or [0], cap=len(idx) + 1)


class InducedContext:
    """Coset and double-coset data for inducing characters from N up to G.

    Every array comes from the orbit labeller of G: the right cosets N x are
    the orbits of left multiplication by N, the double cosets N x N those of
    left and right multiplication, and each is numbered by its least index.
    The right transversal t_0 = 1, t_1, ... is that least index of each coset.
    Arrays over G: coset_of, npart (x = npart * t_coset), dc_of, nnprod (n1*n2
    for the least pair (n1, n2) with x = n1 * rep * n2).  dc_meet[k, d] is the
    N-table index of x^-1 n_k x, for n_k the k-th element of N and x the
    representative of double coset d, when that lies in N, and -1 otherwise:
    the coset carries a Hecke basis element for lambda exactly when
    lambda(n_k) = lambda(x^-1 n_k x) wherever the latter is defined.
    """

    def __init__(self, G: GroupTable, n_indices: Sequence[int]):
        self.G = G
        self.n_indices = sorted(n_indices)
        self.ntable = subgroup_table(G, self.n_indices)
        if self.ntable.order != len(self.n_indices):
            raise RuntimeError(f"the {len(self.n_indices)} indices generate a "
                               f"subgroup of order {self.ntable.order}")
        # map G-index -> N-table index
        self.g2n = np.full(G.order, -1, dtype=np.int64)
        self.g2n[self.ntable.elements] = np.arange(self.ntable.order)

        lefts = [G.left(n) for n in self.ntable.gens]
        trans, self.coset_of = G.orbit_index(G.orbits(lefts))
        self.transversal: list[int] = trans.tolist()
        self.dim = len(trans)
        reps, self.dc_of = G.orbit_index(
            G.orbits(lefts + [G.right(n) for n in self.ntable.gens]))
        self.dc_reps: list[int] = reps.tolist()

        # one left multiplication by each n1 of N, in increasing order, fills
        # npart over n1 * t and nnprod over n1 * rep * n2; n1 * x = x * b with
        # b = x^-1 n1 x in N exactly when n1 * x * n2 = x for n2 = b^-1
        nn = np.array(self.n_indices)
        xn = np.stack([G.right(n)[reps] for n in self.n_indices], axis=1)
        self.npart = np.full(G.order, -1, dtype=np.int64)
        self.nnprod = np.full(G.order, -1, dtype=np.int64)
        self.dc_meet = np.full((len(nn), len(reps)), -1, dtype=np.int64)
        for k, n1 in enumerate(self.n_indices):
            left = G.left(n1)
            self.npart[left[trans]] = n1
            y = left[xn]
            new = self.nnprod[y] < 0
            self.nnprod[y[new]] = left[nn][np.nonzero(new)[1]]
            r, c = np.nonzero(y == reps[:, None])
            self.dc_meet[k, r] = self.g2n[G.inverses()[nn[c]]]
        self._pairprod: Optional[np.ndarray] = None

    # dc reps are minimal in their double coset, hence transversal elements
    def dc_rep_coset(self, d: int) -> int:
        return int(self.coset_of[self.dc_reps[d]])

    @property
    def pairprod(self) -> np.ndarray:
        """index of t_i * t_j^-1, dim x dim: column j is one right
        multiplication by t_j^-1."""
        if self._pairprod is None:
            trans = self.transversal
            arr = np.empty((self.dim, self.dim), dtype=np.int64)
            for j, tinv in enumerate(self.G.inverses()[trans].tolist()):
                arr[:, j] = self.G.right(tinv)[trans]
            self._pairprod = arr
        return self._pairprod

    def lambda_on_g(self, lam: LinearCharacter) -> np.ndarray:
        """Array over G of lambda(npart-product) used by Hecke evaluation."""
        vals = np.zeros(self.G.order, dtype=lam.field.dtype)
        mask = self.nnprod >= 0
        vals[mask] = lam.vals[self.g2n[self.nnprod[mask]]]
        return vals

    def good_dcs(self, lam: LinearCharacter) -> list[int]:
        """Double cosets carrying a Hecke basis element for lambda."""
        meet = self.dc_meet
        agree = lam.vals[meet] == lam.vals[self.g2n[self.n_indices]][:, None]
        return np.flatnonzero(~np.any((meet >= 0) & ~agree, axis=0)).tolist()

    def induce(self, lam: LinearCharacter) -> ModuleRep:
        """Module of lambda induced up to G; dim = [G:N], permutation-like
        matrices with lambda-values as entries."""
        if lam.ntable is not self.ntable:
            raise ValueError("character of another subgroup table")
        f = lam.field
        mats = []
        rows = np.arange(self.dim)
        for col in self.G.edges:
            y = col[self.transversal]
            m = np.zeros((self.dim, self.dim), dtype=f.dtype)
            m[rows, self.coset_of[y]] = lam.vals[self.g2n[self.npart[y]]]
            mats.append(FMatrix(f, m))
        return ModuleRep(self.G, f, mats)


def _minus_one(f: FieldTable, a: np.ndarray,
               rows: Optional[np.ndarray] = None) -> np.ndarray:
    """(a - 1)[rows] (default: every row) for a square code array, in the
    field dtype: a copy of those rows of a with 1 subtracted where they
    meet the diagonal (XOR for p = 2)."""
    if rows is None:
        rows = np.arange(len(a))
    out = a[rows]
    k = np.arange(len(rows))
    out[k, rows] = f.sub_vec(out[k, rows], np.ones(len(rows), dtype=f.dtype))
    return out


def fixed_point_rows(rep: ModuleRep, gen_indices: Optional[Sequence[int]] = None,
                     within: Optional[FMatrix] = None,
                     cols: Optional[np.ndarray] = None,
                     record: Optional[list] = None) -> FMatrix:
    """Row basis of the vectors of the row space ``within`` (default: the
    whole space) fixed by the listed elements (default: the table's
    generators).

    ``cols`` are columns at which ``within`` is the identity: for the whole
    space, every column or None.  Without ``within`` the blocks are
    rep(g) - 1, and the kernel of their stack is returned.  With it, every
    listed element must map ``within`` into itself, so the block
    (rep(g) - 1) within^T has its columns in ``within``, where a vector is
    determined by its entries at ``cols``.  Only the rows at ``cols`` are
    formed: a dim within square, not dim x dim within, with the same
    kernel.  The kernel of the stack gives coordinates c, and c within is
    returned.  A ``gauss`` kernel is the identity at its free
    columns, so the rows returned are the identity at the stack's free
    columns, read through ``cols``.  When ``record`` is a list, the stack
    and the boolean mask of its free columns are appended to it.
    """
    idxs = list(gen_indices) if gen_indices is not None else list(rep.table.gen_idx)
    f = rep.field
    if not idxs:
        return FMatrix.identity(f, rep.dim) if within is None else within
    if within is not None and cols is None:
        raise ValueError("within needs the columns at which it is the "
                         "identity")
    blocks = [_minus_one(f, rep.at(i).a, cols) for i in idxs]
    if within is not None:
        wt = within.a.T
        blocks = [f.matmul(b, wt) for b in blocks]
    stack = FMatrix(f, np.vstack(blocks))
    res = gauss(stack)
    if record is not None:
        free = np.ones(stack.shape[1], dtype=bool)
        free[list(res.pivots)] = False
        record.append((stack.a, free))
    coords = res.kernel
    return coords if within is None else FMatrix(f, f.matmul(coords.a, within.a))


def _trace_rows(f: FieldTable, a: np.ndarray, rows: np.ndarray, p: int
                ) -> np.ndarray:
    """Rows ``rows`` of a^(p - 1) for a square code array a, as
    a[rows] a^(p - 2).  For a = x - 1 over a field of characteristic p this
    is sum_{k<p} x^k, since (t - 1)^(p - 1) = (t^p - 1) / (t - 1) there."""
    out = a[rows]
    for _ in range(p - 2):
        out = f.matmul(out, a)
    return out


@dataclass
class BrauerQuotient:
    """Fixed rows, the columns at which they are the identity, the
    relative-trace image in their coordinates, and the quotient dimension.

    A row c of ``coords`` stands for the vector c fixed, whose entries at
    ``cols`` are c; the rows span the trace image.
    """
    rep: ModuleRep
    subgroup: tuple[int, ...]
    fixed: FMatrix
    cols: np.ndarray
    coords: FMatrix
    dim: int

    def action_scalars(self, gs: Sequence[int]) -> list[int]:
        """Scalar action of each element of gs (each must normalize the
        subgroup) on a 1-dimensional quotient.

        The trace image is the kernel of one functional lam on coordinates,
        the kernel row of ``coords``.  The base is the first fixed row j
        with lam_j != 0, outside the image, and g acts on the quotient by
        lam((g base)[cols]) / lam_j.
        """
        if self.dim != 1:
            raise ValueError(f"action scalar needs a 1-dimensional Brauer quotient, "
                             f"not dimension {self.dim}")
        f = self.rep.field
        lam = gauss(self.coords).kernel.a[0]
        j = int(np.flatnonzero(lam)[0])
        base = self.fixed.a[j]
        w = np.zeros((self.rep.dim, len(gs)), dtype=f.dtype)
        for k, g in enumerate(gs):
            w[:, k] = f.matmul(self.rep.at(g).a, base[:, None])[:, 0]
        c = w[self.cols]
        if not np.array_equal(f.matmul(np.ascontiguousarray(c.T), self.fixed.a),
                              w.T):
            raise RuntimeError(f"the elements {list(gs)} do not all act on the "
                               "Brauer quotient; they must normalize the subgroup")
        vals = f.matmul(lam[None, :], c)[0]
        return f.mul_vec(vals, f.inv(int(lam[j]))).tolist()


_MAXIMAL: "weakref.WeakKeyDictionary[GroupTable, dict]" = weakref.WeakKeyDictionary()


def _maximal_subgroups(table: GroupTable, indices: Iterable[int], p: int
                       ) -> list[tuple[frozenset[int], int]]:
    """Maximal subgroups M (index p) of a p-subgroup Q given by ambient
    indices, each with g, the least ambient index in Q outside M, found on
    the subgroup's own table and memoized per table.  [Q : M] = p is prime,
    so M and g generate Q.

    Raises ValueError when the indices are not closed under the table's
    product or their number is not a power of p.
    """
    key = (tuple(sorted(set(indices))), p)
    memo = _MAXIMAL.setdefault(table, {})
    if key not in memo:
        n = len(key[0])
        if table.closure(key[0]) != frozenset(key[0]):
            raise ValueError(f"the {n} indices are not closed under the "
                             f"group product")
        while n % p == 0:
            n //= p
        if n != 1:
            raise ValueError(f"a subgroup of order {len(key[0])} is not a "
                             f"{p}-subgroup")
        sub = subgroup_table(table, key[0])
        out = []
        for s in sub.subgroups(range(sub.order)):
            if len(s) * p == sub.order:
                mx = frozenset(sub.elements[j] for j in s)
                out.append((mx, int(next(x for x in key[0] if x not in mx))))
        memo[key] = sorted(out, key=lambda mg: sorted(mg[0]))
    return memo[key]


def _fixed(rep: ModuleRep, sub: frozenset[int], p: int
           ) -> Optional[tuple[FMatrix, np.ndarray, np.ndarray]]:
    """Fixed rows of a p-subgroup, the columns at which they are the
    identity, and the trace image of fixed(M) in their coordinates, for M
    the first maximal subgroup, by the walk down first maximal subgroups,
    memoized on the module; None for the trivial subgroup, which fixes the
    whole space and is not stored."""
    if len(sub) == 1:
        return None
    if sub not in rep._fixed:
        mx, g = _maximal_subgroups(rep.table, sub, p)[0]
        below = _fixed(rep, mx, p)
        within, cols = (None, np.arange(rep.dim)) if below is None else below[:2]
        record: list = []
        rows = fixed_point_rows(rep, [g], within, cols, record)
        block, free = record[0]
        # rows = c fixed(mx) for a kernel c, the identity at its free columns.
        # block is rep(g) - 1 on fixed(mx) in its coordinates, so column i of
        # block^(p-1) is the trace of row i of fixed(mx); that lies in
        # fixed(sub), whose coordinates are its entries at the free columns
        trace = _trace_rows(rep.field, block, free, p)
        rep._fixed[sub] = (rows, cols[free], np.ascontiguousarray(trace.T))
    return rep._fixed[sub]


def brauer_quotient(rep: ModuleRep, sub_indices: Iterable[int], p: int
                    ) -> BrauerQuotient:
    """Brauer construction at a p-subgroup Q of rep.table: fixed points
    modulo the sum of relative traces from the maximal subgroups M of Q.

    The trace from M is (rep(g) - 1)^(p-1) for g the least element of Q
    outside M (see the module docstring).  The fixed spaces, and the trace
    image from the walk's M, come from the walk memoized on the module, so
    a subgroup met again, in any index order, costs nothing; the traces are
    eliminated in coordinates of fixed(Q).  A cyclic Q at p = 2 has M
    alone, and its trace rows have rank dim fixed(M) - dim fixed(Q), so its
    quotient has dimension 2 dim fixed(Q) - dim fixed(M) with no
    elimination.  Raises ValueError unless p is the field's characteristic
    and the indices form a p-subgroup.
    """
    f = rep.field
    if p != f.p:
        raise ValueError(f"Brauer quotient at p = {p} of a module in "
                         f"characteristic {f.p}")
    sub = frozenset(sub_indices)
    subgroup = tuple(sorted(sub))
    maximal = _maximal_subgroups(rep.table, sub, p)
    fs = _fixed(rep, sub, p)
    if fs is None:
        # the trivial subgroup has no maximal subgroups and no traces
        return BrauerQuotient(rep, subgroup, FMatrix.identity(f, rep.dim),
                              np.arange(rep.dim),
                              FMatrix(f, np.zeros((0, rep.dim), dtype=f.dtype)),
                              rep.dim)
    fixed, cols, walk = fs
    if p == 2 and len(maximal) == 1:
        return BrauerQuotient(rep, subgroup, fixed, cols, FMatrix(f, walk),
                              2 * len(cols) - walk.shape[0])
    blocks = [walk]
    # a second maximal subgroup needs |Q| >= p^2, so none of these is trivial
    for mx, g in maximal[1:]:
        t = _trace_rows(f, _minus_one(f, rep.at(g).a), cols, p)
        blocks.append(f.matmul(_fixed(rep, mx, p)[0].a,
                               np.ascontiguousarray(t.T)))
    reduced = gauss(FMatrix(f, np.vstack(blocks)))
    coords = np.ascontiguousarray(reduced.rref.a[: reduced.rank])
    return BrauerQuotient(rep, subgroup, fixed, cols, FMatrix(f, coords),
                          len(cols) - len(coords))
