"""Finite group engine over explicit generators.

Groups are enumerated fully (breadth-first over right multiplication, capped
at 2*10^4 elements) and every element gets an integer index; index 0 is the
identity.  Elements are permutation tuples or matrix code arrays, abstracted
behind small ops objects.  Their raw product serves the enumeration only:
every later product and inverse goes through the Cayley right-edges recorded
while enumerating (the raw inverse is kept as a test reference).
All subgroup computations work on index sets of the ambient enumerated group.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .ffla import FieldTable, FMatrix, field_make

__all__ = [
    "PermOps",
    "MatOps",
    "GroupTable",
    "AbelianPPrime",
    "parse_group_file",
    "serialize_group_file",
]

ENUM_CAP = 20000


class PermOps:
    """Permutations of {0..degree-1} stored as image tuples (left action)."""

    def __init__(self, degree: int):
        self.degree = degree

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        # (a*b)(x) = a(b(x))
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def key(self, a):
        return a

    def describe(self) -> str:
        return f"perm:{self.degree}"


class MatOps:
    """Invertible dim x dim matrices over a FieldTable, stored as code arrays."""

    def __init__(self, field: FieldTable, dim: int):
        self.field = field
        self.dim = dim

    def identity(self):
        return np.eye(self.dim, dtype=self.field.dtype)

    def mul(self, a, b):
        return self.field.matmul(a, b)

    def inv(self, a):
        return FMatrix(self.field, a).inverse().a

    def key(self, a):
        return a.tobytes()

    def describe(self) -> str:
        return f"mat:{self.field.p}^{self.field.e}:{self.dim}"


class GroupTable:
    """A fully enumerated finite group with generator words.

    elements[i] is the raw element, index 0 the identity, and word(i) gives a
    product of generator indices evaluating to elements[i].  The enumeration
    records the Cayley right-edges (index of elements[i] * gens[g]), and
    mul and inv work on indices through them alone.
    """

    def __init__(self, ops, gens: Sequence, cap: int = ENUM_CAP):
        self.ops = ops
        self.gens = list(gens)
        ident = ops.identity()
        self.elements = [ident]
        self.index = {ops.key(ident): 0}
        self._parent = [-1]
        self._genidx = [-1]
        # _edges[i][g] = index of elements[i] * gens[g]; the queue visits
        # indices in the order they were found, so row i is appended i-th
        self._edges: list[list[int]] = []
        queue = [0]
        while queue:
            nxt = []
            for i in queue:
                x = self.elements[i]
                row = []
                for gi, g in enumerate(self.gens):
                    y = ops.mul(x, g)
                    k = ops.key(y)
                    j = self.index.get(k)
                    if j is None:
                        if len(self.elements) >= cap:
                            raise ValueError(f"group enumeration exceeded cap {cap}")
                        j = self.index[k] = len(self.elements)
                        self.elements.append(y)
                        self._parent.append(i)
                        self._genidx.append(gi)
                        nxt.append(j)
                    row.append(j)
                self._edges.append(row)
            queue = nxt
        self.n = len(self.elements)
        self.gen_idx = [self.index[ops.key(g)] for g in self.gens]
        self._inv: Optional[list[int]] = None
        self._orders: Optional[list[int]] = None
        self._classes: Optional[list[list[int]]] = None

    # -- element access -------------------------------------------------------

    def idx(self, raw) -> int:
        return self.index[self.ops.key(raw)]

    def mul(self, i: int, j: int) -> int:
        edges = self._edges
        for g in self.word(j):
            i = edges[i][g]
        return i

    def inv(self, i: int) -> int:
        if self._inv is None:
            # inv(parent * g) = inv(g) * inv(parent); elements are listed in
            # enumeration order, so parents resolve before children
            ginv = [self.power(gi, self.order_of(gi) - 1) for gi in self.gen_idx]
            inv = [0] * self.n
            for a in range(1, self.n):
                inv[a] = self.mul(ginv[self._genidx[a]], inv[self._parent[a]])
            self._inv = inv
        return self._inv[i]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, i: int, m: int) -> int:
        if m < 0:
            return self.power(self.inv(i), -m)
        out = 0
        base = i
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    def order_of(self, i: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.n
        if self._orders[i] == 0:
            o = 1
            x = i
            while x != 0:
                x = self.mul(x, i)
                o += 1
            self._orders[i] = o
        return self._orders[i]

    def word(self, i: int) -> tuple[int, ...]:
        """Generator indices whose product is elements[i] (identity: empty)."""
        out = []
        while i != 0:
            out.append(self._genidx[i])
            i = self._parent[i]
        return tuple(reversed(out))

    @property
    def order(self) -> int:
        return self.n

    def describe(self) -> str:
        return self.ops.describe()

    # -- subgroup machinery (index sets) --------------------------------------

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        seen = {0}
        seed = [s for s in seed if s != 0]
        frontier = []
        for s in seed:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        gens = list(seed)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def small_gens(self, sub: Iterable[int]) -> list[int]:
        """Greedy small generating set for an enumerated subgroup."""
        sub_sorted = sorted(set(sub))
        have = frozenset({0})
        gens = []
        for x in sub_sorted:
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if len(have) == len(sub_sorted):
                    break
        return gens

    def normal_closure(self, seed: Iterable[int]) -> frozenset[int]:
        cur = self.closure(seed)
        while True:
            extra = []
            cgens = self.small_gens(cur)
            for g in self.gen_idx:
                for x in cgens:
                    y = self.conj(g, x)
                    if y not in cur:
                        extra.append(y)
            if not extra:
                return cur
            # regenerate from a small generating set; conjugates of generators
            # generate the conjugate subgroup, so closure stays correct
            cur = self.closure(set(cgens) | set(extra))

    def derived_subgroup(self) -> frozenset[int]:
        comms = []
        for a in self.gen_idx:
            for b in self.gen_idx:
                comms.append(self.mul(self.mul(a, b), self.inv(self.mul(b, a))))
        return self.normal_closure(comms)

    def conjugacy_classes(self) -> list[list[int]]:
        if self._classes is not None:
            return self._classes
        seen = [False] * self.n
        classes = []
        for x in range(self.n):
            if seen[x]:
                continue
            orbit = [x]
            seen[x] = True
            frontier = [x]
            while frontier:
                nxt = []
                for y in frontier:
                    for g in self.gen_idx:
                        z = self.conj(g, y)
                        if not seen[z]:
                            seen[z] = True
                            orbit.append(z)
                            nxt.append(z)
                frontier = nxt
            classes.append(sorted(orbit))
        self._classes = classes
        return classes

    def normalizer(self, sub: Iterable[int]) -> list[int]:
        sub_set = frozenset(sub)
        gens = self.small_gens(sub_set)
        out = []
        for g in range(self.n):
            ginv = self.inv(g)
            if all(self.mul(self.mul(g, x), ginv) in sub_set for x in gens):
                out.append(g)
        return out

    def center(self) -> list[int]:
        return [g for g in range(self.n)
                if all(self.mul(g, x) == self.mul(x, g) for x in self.gen_idx)]

    def sylow(self, p: int) -> list[int]:
        np_ = self.n
        pk = 1
        while np_ % p == 0:
            np_ //= p
            pk *= p
        if pk == 1:
            return [0]
        # cyclic p-subgroup of maximal element order
        best = 0
        best_ord = 1
        for x in range(self.n):
            o = self.order_of(x)
            op = 1
            while o % p == 0:
                o //= p
                op *= p
            if op > best_ord:
                # o is now the p'-part, so x^o has order op
                best, best_ord = self.power(x, o), op
        cur = self.closure([best])
        while len(cur) < pk:
            nz = self.normalizer(cur)
            grown = False
            for ncand in nz:
                if ncand in cur:
                    continue
                o = self.order_of(ncand)
                opp = o
                while opp % p == 0:
                    opp //= p
                w = self.power(ncand, opp)
                if w not in cur and w != 0:
                    cur = self.closure(set(cur) | {w})
                    grown = True
                    break
            if not grown:
                raise RuntimeError("sylow climb stalled")
        if len(cur) != pk:
            raise RuntimeError(f"sylow climb overshot: {len(cur)} != {pk}")
        return sorted(cur)

    def o_pprime(self, p: int) -> frozenset[int]:
        """Largest normal subgroup of order coprime to p."""
        core = frozenset({0})
        changed = True
        while changed:
            changed = False
            for cls in self.conjugacy_classes():
                x = cls[0]
                if x in core or self.order_of(x) % p == 0:
                    continue
                cand = self.normal_closure(set(core) | {x})
                if all(self.order_of(y) % p != 0 for y in cand):
                    if len(cand) > len(core):
                        core = cand
                        changed = True
        return core

    # -- abelianization -------------------------------------------------------

    def abelianization_pprime(self, p: int) -> "AbelianPPrime":
        der = self.derived_subgroup()
        der_sorted = sorted(der)
        coset_of = [-1] * self.n
        reps = []
        for x in range(self.n):
            if coset_of[x] >= 0:
                continue
            cid = len(reps)
            reps.append(x)
            for d in der_sorted:
                coset_of[self.mul(d, x)] = cid
        m = len(reps)

        def qmul(a: int, b: int) -> int:
            return coset_of[self.mul(reps[a], reps[b])]

        def qpow(a: int, k: int) -> int:
            out = coset_of[0]
            b = a
            while k:
                if k & 1:
                    out = qmul(out, b)
                b = qmul(b, b)
                k >>= 1
            return out

        qorder = [0] * m
        for a in range(m):
            o = 1
            x = a
            while x != coset_of[0]:
                x = qmul(x, a)
                o += 1
            qorder[a] = o
        # p'-part projection: s = 1 mod p'-exponent, 0 mod p-exponent
        exp_all = 1
        for o in qorder:
            exp_all = exp_all * o // gcd(exp_all, o)
        exp_p = 1
        while exp_all % (exp_p * p) == 0:
            exp_p *= p
        exp_pp = exp_all // exp_p
        s = 0
        if exp_p == 1:
            s = 1
        else:
            for t in range(exp_all):
                if t % exp_pp == 1 % exp_pp and t % exp_p == 0:
                    s = t
                    break
        pprime_ids = sorted({qpow(a, s) for a in range(m)})
        pset = set(pprime_ids)
        # invariant-factor decomposition by greedy maximal order
        gens_q: list[int] = []
        orders: list[int] = []
        span = {coset_of[0]}

        def span_with(extra_gens):
            cur = {coset_of[0]}
            frontier = [coset_of[0]]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in extra_gens:
                        b = qmul(a, g)
                        if b not in cur:
                            cur.add(b)
                            nxt.append(b)
                frontier = nxt
            return cur

        while len(span) < len(pset):
            best_a, best_o = None, 0
            for a in pprime_ids:
                if a in span:
                    continue
                o = qorder[a]
                # order in quotient by current span
                oq = 1
                x = a
                while x not in span:
                    x = qmul(x, a)
                    oq += 1
                if oq > best_o:
                    best_a, best_o = a, oq
            # adjust to an element of true order best_o modulo span: find
            # h with h^best_o = identity by scanning the coset h*span
            a = best_a
            fixed = None
            for d in sorted(span):
                h = qmul(a, d)
                if h in pset and qorder[h] == best_o:
                    # check h still has order best_o modulo span
                    oq = 1
                    x = h
                    while x not in span:
                        x = qmul(x, h)
                        oq += 1
                    if oq == best_o:
                        fixed = h
                        break
            if fixed is None:
                raise RuntimeError("abelian decomposition lift failed")
            gens_q.append(fixed)
            orders.append(best_o)
            span = span_with(gens_q)
        # coordinates for every p'-part element
        coords: dict[int, tuple[int, ...]] = {}
        from itertools import product as iproduct
        for tup in iproduct(*[range(o) for o in orders]):
            x = coset_of[0]
            for g, k in zip(gens_q, tup):
                x = qmul(x, qpow(g, k))
            if x not in coords:
                coords[x] = tup
        if len(coords) != len(pset):
            raise RuntimeError("abelian decomposition does not cover the p'-part")
        proj = np.zeros((self.n, len(orders)), dtype=np.int64)
        for x in range(self.n):
            comp = qpow(coset_of[x], s)
            proj[x] = coords[comp]
        order_idx = sorted(range(len(orders)), key=lambda i: orders[i])
        orders_f = tuple(orders[i] for i in order_idx)
        if orders:
            proj = proj[:, order_idx]
        exponent = orders_f[-1] if orders_f else 1
        return AbelianPPrime(orders=orders_f, exponent=exponent, proj=proj)

    # -- subgroup lattice of a small p-group ----------------------------------

    def subgroups(self, P: Sequence[int]) -> list[frozenset[int]]:
        """All subgroups of the subgroup P (<= 64 elements), sorted by
        (order, sorted elements), by breadth-first closure of S + {x}."""
        P_sorted = sorted(set(P))
        if len(P_sorted) > 64:
            raise ValueError("subgroup lattice supported only for |P| <= 64")
        Pset = frozenset(P_sorted)
        all_subs = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            nxt = []
            for S in frontier:
                for x in P_sorted:
                    if x in S:
                        continue
                    T = self.closure(set(S) | {x})
                    if not T <= Pset:
                        raise ValueError("P is not closed under multiplication")
                    if T not in all_subs:
                        all_subs.add(T)
                        nxt.append(T)
            frontier = nxt
        return sorted(all_subs, key=lambda s: (len(s), sorted(s)))

    def conjugates(self, sub: frozenset[int], P: Iterable[int]) -> set[frozenset[int]]:
        """The orbit {g sub g^-1 : g in P} of a subgroup under a subgroup P."""
        return {frozenset(self.conj(g, x) for x in sub) for g in P}

    def subgroups_up_to_conj(self, P: Sequence[int]) -> list[tuple[int, ...]]:
        """All subgroups of the subgroup P (<= 64 elements) up to P-conjugacy.

        Returns sorted element-index tuples, ordered by (order, tuple); each
        representative is the least member of its class in that order.
        """
        reps = []
        seen: set[frozenset[int]] = set()
        for S in self.subgroups(P):
            if S not in seen:
                seen |= self.conjugates(S, P)
                reps.append(tuple(sorted(S)))
        return reps

    def classify_2group(self, P: Sequence[int]) -> str:
        """Isomorphism-type label for a 2-subgroup P.

        Labels: trivial, cyclic, klein_four, dihedral, semidihedral,
        quaternion, other.  Dihedral requires order >= 8 here; order 4
        noncyclic is reported as klein_four.
        """
        Ps = sorted(set(P))
        n = len(Ps)
        if n == 1:
            return "trivial"
        if n & (n - 1):
            raise ValueError("not a 2-group")
        orders = [self.order_of(x) for x in Ps]
        if max(orders) == n:
            return "cyclic"
        if n == 4:
            return "klein_four"
        invol = sum(1 for o in orders if o == 2)
        if invol == 1:
            return "quaternion"
        # look for cyclic index-2 subgroup with inverting/twisting involution
        half = n // 2
        for r, o in zip(Ps, orders):
            if o != half:
                continue
            C = self.closure([r])
            rinv = self.inv(r)
            rtw = self.power(r, half // 2 - 1)
            for s in Ps:
                if s in C or self.order_of(s) != 2:
                    continue
                c = self.conj(s, r)
                if c == rinv and invol == half + 1:
                    return "dihedral"
                if c == rtw and half >= 8:
                    return "semidihedral"
        return "other"

    def is_perfect(self) -> bool:
        return len(self.derived_subgroup()) == self.n


@dataclass(frozen=True)
class AbelianPPrime:
    """p'-part of the abelianization: cyclic orders (ascending divisibility),
    its exponent, and per-element coordinate rows."""

    orders: tuple[int, ...]
    exponent: int
    proj: np.ndarray

    @property
    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out


# -- group files --------------------------------------------------------------


def _parse_cycles(line: str, degree: int) -> tuple[int, ...]:
    img = list(range(degree))
    body = line.strip()
    if body in ("()", ""):
        return tuple(img)
    if body.count("(") == 0:
        raise ValueError(f"bad cycle line: {line!r}")
    for part in body.replace(")", ")\n").split("\n"):
        part = part.strip()
        if not part:
            continue
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"bad cycle chunk: {part!r}")
        pts = [int(t) - 1 for t in part[1:-1].replace(",", " ").split()]
        if any(x < 0 or x >= degree for x in pts):
            raise ValueError(f"point out of range in {part!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in {part!r}")
        for i, x in enumerate(pts):
            img[x] = pts[(i + 1) % len(pts)]
    if len(set(img)) != degree:
        raise ValueError(f"cycle line is not a permutation: {line.strip()!r}")
    return tuple(img)


def parse_group_file(text: str) -> tuple[object, list]:
    """Parse the generator file format.

    Header 'perm <degree>' with one cycle-notation generator per line, or
    'mat <p> <e> <dim>' with row-major entries per line where token 0 is the
    zero element and token k+1 means gen^k.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty group file")
    head = lines[0].split()
    if head[0] == "perm":
        if len(head) != 2:
            raise ValueError("perm header needs a degree")
        degree = int(head[1])
        if degree < 1:
            raise ValueError("degree must be positive")
        ops = PermOps(degree)
        gens = [_parse_cycles(ln, degree) for ln in lines[1:]]
    elif head[0] == "mat":
        if len(head) != 4:
            raise ValueError("mat header needs p, e, dim")
        p, e, dim = int(head[1]), int(head[2]), int(head[3])
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        f = field_make(p, e)
        ops = MatOps(f, dim)
        gens = []
        for ln in lines[1:]:
            toks = [int(t) for t in ln.split()]
            if len(toks) != dim * dim:
                raise ValueError(f"expected {dim*dim} entries, got {len(toks)}")
            if min(toks) < 0:
                raise ValueError(f"negative entry token in {ln!r}")
            codes = np.zeros(dim * dim, dtype=f.dtype)
            for i, t in enumerate(toks):
                if t == 0:
                    codes[i] = 0
                else:
                    codes[i] = f.exp[(t - 1) % (f.q - 1)]
            gens.append(codes.reshape(dim, dim))
            # a singular matrix has no inverse, so its powers never reach 1
            if FMatrix(f, gens[-1]).rank() < dim:
                raise ValueError(f"singular matrix generator: {ln!r}")
    else:
        raise ValueError(f"unknown header {head[0]!r}")
    if not gens:
        raise ValueError("no generators in group file")
    return ops, gens


def serialize_group_file(ops, gens: Sequence) -> str:
    if isinstance(ops, PermOps):
        out = [f"perm {ops.degree}"]
        for g in gens:
            seen = [False] * ops.degree
            chunks = []
            for start in range(ops.degree):
                if seen[start] or g[start] == start:
                    seen[start] = True
                    continue
                cyc = [start]
                seen[start] = True
                x = g[start]
                while x != start:
                    cyc.append(x)
                    seen[x] = True
                    x = g[x]
                chunks.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
            out.append("".join(chunks) if chunks else "()")
        return "\n".join(out) + "\n"
    if isinstance(ops, MatOps):
        f = ops.field
        out = [f"mat {f.p} {f.e} {ops.dim}"]
        for g in gens:
            toks = []
            for v in np.asarray(g).reshape(-1):
                v = int(v)
                toks.append("0" if v == 0 else str(int(f.log[v]) + 1))
            out.append(" ".join(toks))
        return "\n".join(out) + "\n"
    raise ValueError("unsupported ops for serialization")
