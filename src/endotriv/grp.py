"""Finite group engine over explicit generators.

Groups are enumerated fully (breadth-first over right multiplication, capped
at 2*10^4 elements) and every element gets an integer index; index 0 is the
identity.  Elements are permutation tuples, matrix code arrays or, in a
subgroup table, indices of the ambient table, behind small ops objects whose
products serve the enumeration only.  The enumeration asks the ops for a
whole breadth-first layer times one generator at a time: matrix ops stack
the layer and take one ``FieldTable.matmul`` per (layer, generator), in
chunks of at most ``LAYER_CHUNK_CODES`` codes; the other ops yield their
products lazily.  Everything later works on indices
through the recorded Cayley right-edges: scalar products walk them, sweeps
over the whole group act on index permutations, and one orbit labeller gives
cosets, double cosets and conjugacy classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .ffla import FieldTable, FMatrix, field_make

__all__ = [
    "PermOps",
    "MatOps",
    "SubgroupOps",
    "GroupTable",
    "AbelianPPrime",
    "parse_group_file",
    "serialize_group_file",
]

ENUM_CAP = 20000
# an element is a tuple of `degree` entries: ENUM_CAP of them at this degree
# take about 160 MiB, so a larger degree is refused before any is built
MAX_PERM_DEGREE = 1024
# a matrix element and its tobytes key hold 2 dim^2 codes of at least one
# byte each: ENUM_CAP of them at this dimension take about 160 MiB; the
# stacked products of one layer add at most one chunk per generator
MAX_MAT_DIM = 64
# codes per stacked layer product: the packed float64 and int64 arrays of one
# chunk stay under 2 MiB up to GF(64), and the largest layer of a 3x3
# catalog group (3A7: 1428 matrices, 12852 codes) is still one chunk
LAYER_CHUNK_CODES = 1 << 14


class PermOps:
    """Permutations of {0..degree-1} stored as image tuples (left action)."""

    def __init__(self, degree: int):
        if degree > MAX_PERM_DEGREE:
            raise ValueError(f"permutation degree {degree} exceeds the limit "
                             f"{MAX_PERM_DEGREE}")
        self.degree = degree

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        # (a*b)(x) = a(b(x))
        return tuple(map(a.__getitem__, b))

    def inv(self, a):
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def key(self, a):
        return a

    def right_products(self, xs, g):
        """x * g for every x in xs, in order, one at a time."""
        return (self.mul(x, g) for x in xs)


class MatOps:
    """Invertible dim x dim matrices over a FieldTable, stored as code arrays."""

    def __init__(self, field: FieldTable, dim: int):
        if dim > MAX_MAT_DIM:
            raise ValueError(f"matrix dimension {dim} exceeds the limit "
                             f"{MAX_MAT_DIM}")
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

    def right_products(self, xs, g):
        """x * g for every x in xs, in order: each chunk of the list is
        stacked into one (m*dim) x dim array and multiplied by g at once.
        Every product is a copy, so a kept element does not keep its chunk
        alive."""
        d = self.dim
        step = max(1, LAYER_CHUNK_CODES // (d * d))
        for c in range(0, len(xs), step):
            prods = self.field.matmul(np.concatenate(xs[c:c + step]), g)
            yield from (y.copy() for y in prods.reshape(-1, d, d))


class SubgroupOps:
    """Elements of a subgroup table: indices of an ambient table, multiplied
    there, so a subgroup is enumerated without a second raw product."""

    def __init__(self, ambient: "GroupTable"):
        self.ambient = ambient

    def identity(self):
        return 0

    def key(self, a):
        return a

    def right_products(self, xs, g):
        """x * g for every x in xs, in order, one at a time."""
        return (self.ambient.mul(x, g) for x in xs)


class GroupTable:
    """A fully enumerated finite group with generator words.

    elements[i] is the raw element, index 0 the identity, and word(i) gives a
    product of generator indices evaluating to elements[i].  The enumeration
    records the Cayley right-edges as an integer array, edges[g, i] = index of
    elements[i] * gens[g], and every later product goes through them: scalar
    mul walks them along word(j); whole-group sweeps act on the index
    permutations right(j) and left(i), and orbits() labels cosets, double
    cosets and conjugacy classes alike by their least index.
    """

    def __init__(self, ops, gens: Sequence, cap: int = ENUM_CAP):
        self.ops = ops
        self.gens = list(gens)
        ident = ops.identity()
        self.elements = [ident]
        self.index = {ops.key(ident): 0}
        self._parent = [-1]
        self._genidx = [-1]
        # _rows[i][g] = index of elements[i] * gens[g].  Every breadth-first
        # layer is a contiguous index range, its parents in the layer before;
        # _layers holds the range boundaries.  The products of a layer by
        # each generator are walked in lockstep, so new indices arrive in
        # (element, generator) order and row i is appended i-th.
        self._rows: list[list[int]] = []
        self._layers = [0, 1]
        while self._layers[-2] < self._layers[-1]:
            start, stop = self._layers[-2:]
            layer = self.elements[start:stop]
            prods = [iter(ops.right_products(layer, g)) for g in self.gens]
            for i in range(start, stop):
                row = []
                for gi, it in enumerate(prods):
                    y = next(it)
                    k = ops.key(y)
                    j = self.index.get(k)
                    if j is None:
                        if len(self.elements) >= cap:
                            raise ValueError(f"group enumeration exceeded cap {cap}")
                        j = self.index[k] = len(self.elements)
                        self.elements.append(y)
                        self._parent.append(i)
                        self._genidx.append(gi)
                    row.append(j)
                self._rows.append(row)
            self._layers.append(len(self.elements))
        self.n = len(self.elements)
        self.edges = np.array(self._rows, dtype=np.int64).reshape(self.n, -1).T.copy()
        self._parent_a = np.array(self._parent, dtype=np.int64)
        self._genidx_a = np.array(self._genidx, dtype=np.int64)
        self.gen_idx = [self.index[ops.key(g)] for g in self.gens]
        self._inv: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._classes: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- elements and the two multiplications ---------------------------------

    def idx(self, raw) -> int:
        return self.index[self.ops.key(raw)]

    def word(self, i: int) -> tuple[int, ...]:
        """Generator indices whose product is elements[i] (identity: empty)."""
        out = []
        while i != 0:
            out.append(self._genidx[i])
            i = self._parent[i]
        return tuple(reversed(out))

    def mul(self, i: int, j: int) -> int:
        rows = self._rows
        for g in self.word(j):
            i = rows[i][g]
        return i

    def right(self, j: int) -> np.ndarray:
        """The permutation i -> i * j: edge columns composed along word(j)."""
        perm = np.arange(self.n)
        for g in self.word(j):
            perm = self.edges[g][perm]
        return perm

    def _by_layers(self, out: np.ndarray, table: np.ndarray) -> np.ndarray:
        # out[a] = table[gen(a), out[parent(a)]], a layer at a time
        lay = self._layers
        for a, b in zip(lay[1:-1], lay[2:]):
            out[a:b] = table[self._genidx_a[a:b], out[self._parent_a[a:b]]]
        return out

    def left(self, i: int) -> np.ndarray:
        """The permutation j -> i * j, as i * j = (i * parent(j)) * gen(j)."""
        out = np.zeros(self.n, dtype=np.int64)
        out[0] = i
        return self._by_layers(out, self.edges)

    def inverses(self) -> np.ndarray:
        """Inverse of every index, as inv(parent * g) = inv(g) * inv(parent)."""
        if self._inv is None:
            # the inverse of gens[g] is the index that gens[g] takes to 1
            lefts = [self.left(int(np.flatnonzero(col == 0)[0])) for col in self.edges]
            self._inv = self._by_layers(np.zeros(self.n, dtype=np.int64),
                                        np.array(lefts).reshape(len(lefts), self.n))
        return self._inv

    def inv(self, i: int) -> int:
        return int(self.inverses()[i])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def conjugation(self, g: int) -> np.ndarray:
        """The permutation x -> g x g^-1."""
        return self.right(self.inv(g))[self.left(g)]

    def power(self, i: int, m: int) -> int:
        if m < 0:
            return self.power(self.inv(i), -m)
        out, base = 0, i
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    def element_orders(self) -> np.ndarray:
        """Order of every element, walked once per conjugacy class."""
        if self._orders is None:
            reps, num = self._class_index()
            orders = []
            for r in reps.tolist():
                o, x = 1, r
                while x != 0:
                    o, x = o + 1, self.mul(x, r)
                orders.append(o)
            self._orders = np.array(orders, dtype=np.int64)[num]
        return self._orders

    def order_of(self, i: int) -> int:
        return int(self.element_orders()[i])

    @property
    def order(self) -> int:
        return self.n

    # -- orbit labeller -------------------------------------------------------

    def orbits(self, perms: Sequence[np.ndarray]) -> np.ndarray:
        """Least index in the orbit of every index under the group generated
        by the index permutations perms.

        Each pass hooks the larger of two different labels met along an edge
        i -> p[i] onto the smaller one, then pointer-jumps every label to its
        root; labels only fall (whichever of repeated hooks wins) and stay in
        their orbit, so at the fixed point every orbit carries its least index.
        """
        lab = np.arange(self.n)
        while True:
            for p in perms:
                other = lab[p]
                move = lab != other
                hi = np.maximum(lab[move], other[move])
                lab[hi] = np.minimum(lab[hi], np.minimum(lab[move], other[move]))
            while not np.array_equal(lab, lab[lab]):
                lab = lab[lab]
            if all(np.array_equal(lab, lab[p]) for p in perms):
                return lab

    def orbit_index(self, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least index of every orbit of an orbits() labelling, ascending,
        and for every index the position of its orbit in that order."""
        reps = np.flatnonzero(lab == np.arange(self.n))
        num = np.zeros(self.n, dtype=np.int64)
        num[reps] = np.arange(len(reps))
        return reps, num[lab]

    # -- subgroup machinery (index sets) --------------------------------------

    def _grow(self, seed: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Closure of seed as boolean marks, with the greedy generating set:
        the seeds, in order, outside the closure of those taken before."""
        seed = np.array(list(seed), dtype=np.int64)
        marks = np.zeros(self.n, dtype=bool)
        marks[0] = True
        slot = np.zeros(self.n, dtype=np.int64)
        gens, perms = [], []
        while True:
            free = seed[~marks[seed]]
            if not free.size:
                return marks, gens
            gens.append(int(free[0]))
            perms.append(self.right(gens[-1]))
            frontier = np.flatnonzero(marks)
            while frontier.size:
                new = np.concatenate([r[frontier] for r in perms])
                new = new[~marks[new]]
                # keep one copy of each: the position its slot ends up holding
                slot[new] = np.arange(new.size)
                frontier = new[slot[new] == np.arange(new.size)]
                marks[frontier] = True

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._grow(seed)[0]).tolist())

    def small_gens(self, sub: Iterable[int]) -> list[int]:
        """Greedy small generating set for an enumerated subgroup."""
        return self._grow(sorted(set(sub)))[1]

    def _class_index(self) -> tuple[np.ndarray, np.ndarray]:
        """orbit_index of the conjugacy classes."""
        if self._classes is None:
            self._classes = self.orbit_index(
                self.orbits([self.conjugation(s) for s in self.gen_idx]))
        return self._classes

    def conjugacy_classes(self) -> list[list[int]]:
        """The classes, each sorted, ordered by least element."""
        reps, num = self._class_index()
        classes: list[list[int]] = [[] for _ in reps]
        for x, k in enumerate(num.tolist()):
            classes[k].append(x)
        return classes

    def normal_closure(self, seed: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by the conjugacy classes of the seed."""
        reps, num = self._class_index()
        hit = np.zeros(len(reps), dtype=bool)
        hit[num[list(seed)]] = True
        return self.closure(np.flatnonzero(hit[num]))

    def derived_subgroup(self) -> frozenset[int]:
        comms = []
        for a in self.gen_idx:
            for b in self.gen_idx:
                comms.append(self.mul(self.mul(a, b), self.inv(self.mul(b, a))))
        return self.normal_closure(comms)

    def normalizer(self, sub: Iterable[int]) -> list[int]:
        """g normalizes S iff g x lies in the right coset S g for every
        generator x of S."""
        gens = self.small_gens(sub)
        lab = self.orbits([self.left(s) for s in gens])
        keep = np.ones(self.n, dtype=bool)
        for x in gens:
            keep &= lab[self.right(x)] == lab
        return np.flatnonzero(keep).tolist()

    def center(self) -> list[int]:
        keep = np.ones(self.n, dtype=bool)
        for x in self.gen_idx:
            keep &= self.right(x) == self.left(x)
        return np.flatnonzero(keep).tolist()

    def sylow(self, p: int) -> list[int]:
        pk = 1
        while self.n % (pk * p) == 0:
            pk *= p
        if pk == 1:
            return [0]
        # cyclic p-subgroup of maximal element order: the first element whose
        # order has the largest p-part, raised to its p'-part
        orders = self.element_orders()
        ppart = np.gcd(orders, pk)
        x = int(np.argmax(ppart))
        cur = self.closure([self.power(x, int(orders[x] // ppart[x]))])
        while len(cur) < pk:
            for ncand in self.normalizer(cur):
                if ncand in cur:
                    continue
                o = self.order_of(ncand)
                w = self.power(ncand, o // gcd(o, pk))
                if w not in cur:
                    cur = self.closure(set(cur) | {w})
                    break
            else:
                raise RuntimeError("sylow climb stalled")
        if len(cur) != pk:
            raise RuntimeError(f"sylow climb overshot: {len(cur)} != {pk}")
        return sorted(cur)

    def o_pprime(self, p: int) -> frozenset[int]:
        """Largest normal subgroup of order coprime to p."""
        orders = self.element_orders()
        core = frozenset({0})
        changed = True
        while changed:
            changed = False
            for x in self._class_index()[0].tolist():
                if x in core or orders[x] % p == 0:
                    continue
                cand = self.normal_closure(set(core) | {x})
                if not np.any(orders[sorted(cand)] % p == 0) and len(cand) > len(core):
                    core = cand
                    changed = True
        return core

    # -- abelianization -------------------------------------------------------

    def abelianization_pprime(self, p: int) -> "AbelianPPrime":
        # cosets of the derived subgroup D: orbits of left multiplication by D
        dgens = self.small_gens(self.derived_subgroup())
        reps, coset_arr = self.orbit_index(self.orbits([self.left(d) for d in dgens]))
        reps = reps.tolist()
        coset_of = coset_arr.tolist()
        m = len(reps)

        def qmul(a: int, b: int) -> int:
            return coset_of[self.mul(reps[a], reps[b])]

        def qpow(a: int, k: int) -> int:
            return coset_of[self.power(reps[a], k)]

        def order_mod(a: int, span) -> int:
            # order of coset a in the quotient by the subgroup span
            o, x = 1, a
            while x not in span:
                o, x = o + 1, qmul(x, a)
            return o

        qorder = [order_mod(a, {0}) for a in range(m)]
        # p'-part projection: s = 0 mod the p-part of the exponent and
        # 1 mod its p'-part
        exp_all = lcm(*qorder)
        exp_p = gcd(exp_all, p ** exp_all.bit_length())
        s = exp_p * pow(exp_p, -1, exp_all // exp_p) % exp_all
        pprime_ids = sorted({qpow(a, s) for a in range(m)})
        pset = set(pprime_ids)
        # invariant-factor decomposition by greedy maximal order; the span of
        # gens_q is the image of the subgroup that D and their cosets generate
        gens_q: list[int] = []
        orders: list[int] = []
        span = {0}

        while len(span) < len(pset):
            best_a, best_o = None, 0
            for a in pprime_ids:
                if a not in span and (o := order_mod(a, span)) > best_o:
                    best_a, best_o = a, o
            # adjust to an element of true order best_o that keeps order
            # best_o modulo span, scanning the coset best_a * span
            fixed = None
            for d in sorted(span):
                h = qmul(best_a, d)
                if h in pset and qorder[h] == best_o and order_mod(h, span) == best_o:
                    fixed = h
                    break
            if fixed is None:
                raise RuntimeError("abelian decomposition lift failed")
            gens_q.append(fixed)
            orders.append(best_o)
            grown = self._grow(dgens + [reps[g] for g in gens_q])[0]
            span = set(coset_arr[grown].tolist())
        # coordinates for every p'-part element
        coords: dict[int, tuple[int, ...]] = {}
        from itertools import product as iproduct
        for tup in iproduct(*[range(o) for o in orders]):
            x = 0
            for g, k in zip(gens_q, tup):
                x = qmul(x, qpow(g, k))
            if x not in coords:
                coords[x] = tup
        if len(coords) != len(pset):
            raise RuntimeError("abelian decomposition does not cover the p'-part")
        proj = np.array([coords[qpow(a, s)] for a in range(m)],
                        dtype=np.int64).reshape(m, len(orders))[coset_arr]
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
        sub = sorted(sub)
        return {frozenset(self.conjugation(g)[sub].tolist()) for g in P}

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
