"""Torsion classification of trivial-source endo-trivial modules.

For a finite group G with Sylow p-subgroup P and N = N_G(P), every p'-linear
character lambda of N has a Green correspondent U_lambda: the unique direct
summand of the induced module lambda^G whose Brauer quotient at P is nonzero.
The classes of the endo-trivial U_lambda form a finite abelian group K(G)
under tensor product, identified with a subgroup of the character group X(N)
through the N-action on the one-dimensional Brauer quotient at P.  When P is
Klein-four or dihedral this subgroup is the whole torsion part of the group
of endo-trivial classes.

Endo-triviality of a correspondent is decided two independent ways: the
value criterion (Brauer quotient dimension 1 at every nontrivial cyclic
subgroup of P) and a direct reconstruction of the permutation type of the
restriction to P, Mackey-expanded to the endomorphism module and compared
against the trivial-plus-free profile.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield
from math import lcm
from typing import Sequence

import numpy as np

from .ffla import FieldTable
from .grp import GroupTable
from .modrep import (InducedContext, LinearCharacter, ModuleRep,
                     brauer_quotient, character_group, subgroup_table)
from .split import Summand, composition_factor_dims, split_summands

__all__ = [
    "CorrespondentRecord",
    "KReport",
    "SylowClasses",
    "compute_K",
    "green_correspondent",
    "is_endotrivial_char",
    "is_endotrivial_direct",
    "minimal_field_degree",
    "quotient_invariants",
    "subgroup_invariants",
    "tensor_power_class",
    "theorem_check",
    "x_group",
]

TENSOR_LITERAL_CAP = 1200
END_LITERAL_CAP = 1600


def minimal_field_degree(p: int, orders: Sequence[int]) -> int:
    """Smallest e with every order dividing p^e - 1."""
    need = 1
    for d in orders:
        if d > 0:
            need = lcm(need, d)
    e = 1
    while (p**e - 1) % need != 0:
        e += 1
        if e > 24:
            raise ValueError(f"no workable field degree for orders {orders}")
    return e


# ---------------------------------------------------------------------------
# subgroup classes of P and permutation-type combinatorics

class SylowClasses:
    """Subgroup classes of P up to P-conjugacy, carried both in ambient
    indices (for Brauer quotients of G-modules) and in P's own table (for
    coset combinatorics)."""

    def __init__(self, G: GroupTable, P: Sequence[int]):
        self.G = G
        self.amb = sorted(P)
        self.pt = subgroup_table(G, self.amb)
        reps = self.pt.subgroups_up_to_conj(list(range(self.pt.order)))
        self.classes: list[tuple[int, ...]] = list(reps)
        self._class_idx = {c: i for i, c in enumerate(self.classes)}
        self._canon_cache: dict[frozenset[int], int] = {}
        self._fixed: dict[tuple[int, int], int] = {}

    def ambient(self, cls: tuple[int, ...]) -> list[int]:
        return sorted(self.pt.elements[j] for j in cls)

    def class_of(self, sub: frozenset[int]) -> int:
        """Class index of a subgroup given as a set of P-table indices."""
        if sub in self._canon_cache:
            return self._canon_cache[sub]
        orbit = self.pt.conjugates(sub, range(self.pt.order))
        # class representatives are the least members of their orbits
        best = self._class_idx.get(min(tuple(sorted(T)) for T in orbit))
        if best is None:
            raise ValueError(f"{sorted(sub)} is not a subgroup of P")
        for T in orbit:
            self._canon_cache[T] = best
        return best

    def cyclic_nontrivial(self) -> list[int]:
        out = []
        for i, c in enumerate(self.classes):
            if len(c) == 1:
                continue
            if max(self.pt.order_of(j) for j in c) == len(c):
                out.append(i)
        return out

    def fixed_cosets(self, qi: int, ri: int) -> int:
        """Number of Q-fixed cosets in P/R for class representatives: the
        left cosets x R with q x R = x R for every q in Q."""
        key = (qi, ri)
        if key not in self._fixed:
            Q, R = self.classes[qi], self.classes[ri]
            count = 0
            if len(Q) <= len(R):
                pt = self.pt
                lab = pt.orbits([pt.right(r) for r in R])
                reps = np.flatnonzero(lab == np.arange(pt.order))
                fixed = np.ones(len(reps), dtype=bool)
                for q in Q:
                    fixed &= lab[pt.left(q)[reps]] == reps
                count = int(fixed.sum())
            self._fixed[key] = count
        return self._fixed[key]


def permutation_type(dims: Sequence[int], sc: SylowClasses) -> dict[int, int]:
    """Multiplicities m_R with dims[Q] = sum_R m_R * fixed(Q, P/R).

    dims must list the Brauer quotient dimensions over all subgroup classes
    of P in sc order; a trivial-source module always admits an integral
    nonnegative solution, so failures indicate the input was not one.
    """
    order_desc = sorted(range(len(sc.classes)),
                        key=lambda i: -len(sc.classes[i]))
    m: dict[int, int] = {}
    for qi in order_desc:
        val = dims[qi]
        for ri, mr in m.items():
            val -= mr * sc.fixed_cosets(qi, ri)
        diag = sc.fixed_cosets(qi, qi)
        if val % diag != 0 or val < 0:
            raise ArithmeticError(
                f"no permutation-type solution at class {qi}: residue {val}")
        m[qi] = val // diag
    return {k: v for k, v in m.items() if v}


def endomorphism_type(ptype: dict[int, int], sc: SylowClasses) -> dict[int, int]:
    """Permutation type of dual(U) tensor U from the type of U (Mackey)."""
    pt = sc.pt
    out: dict[int, int] = {}
    for ri, mr in ptype.items():
        R = sc.classes[ri]
        lefts = [pt.left(r) for r in R]
        for si, ms in ptype.items():
            rights = [pt.right(s) for s in sc.classes[si]]
            # double cosets R x S of P, by least index x; R cap x S x^-1
            # holds the r of R with r x in the left coset x S
            lab_s = pt.orbits(rights)
            lab = pt.orbits(lefts + rights)
            reps = np.flatnonzero(lab == np.arange(pt.order))
            inside = np.array([lab_s[left[reps]] == lab_s[reps] for left in lefts])
            for col in inside.T:
                ci = sc.class_of(frozenset(np.array(R)[col].tolist()))
                out[ci] = out.get(ci, 0) + mr * ms
    return out


# ---------------------------------------------------------------------------
# abelian invariants of subgroups and quotients of X(N)

def _tuple_add(a: tuple[int, ...], b: tuple[int, ...],
               orders: Sequence[int]) -> tuple[int, ...]:
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def _tuple_mult(a: tuple[int, ...], k: int, orders: Sequence[int]
                ) -> tuple[int, ...]:
    return tuple((x * k) % d for x, d in zip(a, orders))


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _invariants_from_elements(elems: list, scale_to_zero) -> tuple[int, ...]:
    """Invariant factors (ascending divisibility) of a finite abelian group
    given its element list; scale_to_zero(x, k) says whether k*x = 0."""
    n = len(elems)
    if n == 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in _factorize(n):
        counts = [1]
        while True:
            k = len(counts)
            c = sum(1 for x in elems if scale_to_zero(x, p**k))
            counts.append(c)
            if c == counts[-2]:
                break
        exps: list[int] = []
        k = 1
        while counts[k] > counts[k - 1]:
            ratio = counts[k] // counts[k - 1]
            r = 0
            while p**r < ratio:
                r += 1
            if p**r != ratio:
                raise RuntimeError(f"layer ratio {ratio} is not a power of {p}")
            # r components have exponent >= k
            while len(exps) < r:
                exps.append(0)
            for i in range(r):
                exps[i] = k
            k += 1
        per_prime[p] = exps
    width = max(len(v) for v in per_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    # factors currently largest-first; report ascending divisibility
    return tuple(sorted(factors))


def subgroup_invariants(tuples: Sequence[tuple[int, ...]],
                        orders: Sequence[int]) -> tuple[int, ...]:
    elems = list(dict.fromkeys(tuples))
    return _invariants_from_elements(
        elems,
        lambda x, k: all((v * k) % d == 0 for v, d in zip(x, orders)))


def quotient_invariants(big: Sequence[tuple[int, ...]],
                        small: Sequence[tuple[int, ...]],
                        orders: Sequence[int]) -> tuple[int, ...]:
    sm = set(small)
    def canon(t):
        return min(_tuple_add(t, s, orders) for s in sm)
    elems = list(dict.fromkeys(canon(t) for t in big))
    return _invariants_from_elements(
        elems,
        lambda x, k: canon(_tuple_mult(x, k, orders)) == canon(
            tuple(0 for _ in orders)))


# ---------------------------------------------------------------------------
# the two endo-triviality tests

def is_endotrivial_char(rep: ModuleRep, sc: SylowClasses, p: int
                        ) -> tuple[bool, tuple[int, ...]]:
    """Value criterion: a trivial-source module is endo-trivial iff its
    Brauer quotient has dimension 1 at every nontrivial cyclic subgroup of
    P up to conjugacy.  Returns the verdict with the witness vector."""
    vec = tuple(brauer_quotient(rep, sc.ambient(sc.classes[i]), p).dim
                for i in sc.cyclic_nontrivial())
    return all(v == 1 for v in vec), vec


def is_endotrivial_direct(rep: ModuleRep, sc: SylowClasses, p: int,
                          budget: int = END_LITERAL_CAP) -> bool:
    """Definition-level test: dual(U) tensor U restricted to P must be the
    trivial module plus a free module.

    When the endomorphism module fits the budget it is built literally and
    its permutation type reconstructed from Brauer dimensions.  Above the
    budget the type of U itself is reconstructed and squared through the
    double-coset expansion of the tensor product, which yields the same
    type without forming dim^2 matrices.
    """
    full = sc.class_of(frozenset(range(sc.pt.order)))
    triv = sc.class_of(frozenset({0}))
    if rep.dim ** 2 <= budget:
        rest = rep.restrict(sc.pt)
        end = rest.dual().tensor(rest)
        dims = [brauer_quotient(end, list(c), p).dim for c in sc.classes]
        try:
            etype = permutation_type(dims, sc)
        except ArithmeticError:
            return False
    else:
        dims = [brauer_quotient(rep, sc.ambient(c), p).dim
                for c in sc.classes]
        try:
            utype = permutation_type(dims, sc)
        except ArithmeticError:
            return False
        etype = endomorphism_type(utype, sc)
    ok = etype.get(full, 0) == 1 and all(
        m == 0 for c, m in etype.items() if c not in (full, triv))
    if ok and rep.dim ** 2 % sc.pt.order != 1:
        raise RuntimeError(f"endo-trivial verdict for dimension {rep.dim}, "
                           f"whose square is not 1 mod |P| = {sc.pt.order}")
    return ok


# ---------------------------------------------------------------------------
# Green correspondents

def green_correspondent(ctx: InducedContext, lam: LinearCharacter,
                        P: Sequence[int], p: int, rng: random.Random
                        ) -> tuple[Summand, list[Summand]]:
    """The summand of lambda^G with nonzero Brauer quotient at P.

    Raises with diagnostics if the summand is not unique; that would mean
    the decomposition or the Brauer machinery is broken, not the theory.
    """
    ind = ctx.induce(lam)
    summands = split_summands(ctx, lam, ind, rng)
    flagged = []
    dims = []
    for s in summands:
        d = brauer_quotient(s.rep, P, p).dim
        dims.append(d)
        if d > 0:
            flagged.append(s)
    if len(flagged) != 1:
        raise RuntimeError(
            "Green correspondent not unique: summand dims "
            f"{[s.dim for s in summands]} with Brauer dims {dims}")
    return flagged[0], summands


def bq_character(rep: ModuleRep, P: Sequence[int], p: int,
                 ctx: InducedContext,
                 by_values: dict[tuple[int, ...], LinearCharacter]
                 ) -> LinearCharacter:
    """Which p'-character of N acts on the 1-dim Brauer quotient at P, from
    N's characters keyed by their values on N's generators (compute_K)."""
    bq = brauer_quotient(rep, P, p)
    if bq.dim != 1:
        raise RuntimeError(f"Brauer quotient at P has dim {bq.dim}, expected 1")
    acts = tuple(bq.action_scalars(ctx.ntable.gens))
    if acts not in by_values:
        raise RuntimeError(f"Brauer action scalars {list(acts)} match no "
                           f"character")
    return by_values[acts]


# ---------------------------------------------------------------------------
# top-level classification

@dataclass
class CorrespondentRecord:
    """Everything the classification needs about one character's
    correspondent."""
    exps: tuple[int, ...]
    order: int
    dim: int
    summand_dims: tuple[int, ...]
    brauer_vector: tuple[int, ...]
    bq_char_exps: tuple[int, ...]
    endotrivial: bool
    endotrivial_direct: bool
    simple: bool
    factors: tuple[int, ...]
    rep: ModuleRep = dfield(repr=False, default=None)
    reject_reps: list = dfield(repr=False, default=None)


@dataclass
class KReport:
    group_order: int
    p: int
    field_p: int
    field_e: int
    sylow_order: int
    sylow_type: str
    normalizer_order: int
    xn_orders: tuple[int, ...]
    cyclic_class_orders: tuple[int, ...]
    records: list[CorrespondentRecord]
    k_exps: list[tuple[int, ...]]
    k_invariants: tuple[int, ...]
    x_image_exps: list[tuple[int, ...]]
    x_image_invariants: tuple[int, ...]
    tt_over_x: tuple[int, ...]
    theorem_applies: bool
    checks: dict[str, bool]
    # live objects for follow-up computations
    table: GroupTable = dfield(repr=False, default=None)
    ctx: InducedContext = dfield(repr=False, default=None)
    chars: list = dfield(repr=False, default=None)
    char_by_values: dict = dfield(repr=False, default=None)
    sylow: list = dfield(repr=False, default=None)


def x_group(table: GroupTable, p: int, f: FieldTable
            ) -> list[LinearCharacter]:
    """All linear characters of p'-order, a group under pointwise product."""
    ab = table.abelianization_pprime(p)
    return character_group(table, ab, f)


def compute_K(table: GroupTable, p: int, f: FieldTable, seed: int = 0
              ) -> KReport:
    """Classify the torsion trivial-source endo-trivial classes of the
    table's group at the prime p over the field f."""
    P = table.sylow(p)
    sylow_type = table.classify_2group(P) if p == 2 else f"p{p}_group"
    N = table.normalizer(P)
    ctx = InducedContext(table, N)
    ab = ctx.ntable.abelianization_pprime(p)
    chars = character_group(ctx.ntable, ab, f)
    # N's characters keyed by their values on N's generators, which
    # determine them
    by_values = {tuple(mu.value(gi) for gi in ctx.ntable.gen_idx): mu
                 for mu in chars}
    sc = SylowClasses(table, P)
    cyc = sc.cyclic_nontrivial()
    cyc_orders = tuple(len(sc.classes[i]) for i in cyc)

    records = []
    for lam in chars:
        tag = "-".join(map(str, lam.exps))
        rng = random.Random(f"{seed}:split:{tag}")
        green, summands = green_correspondent(ctx, lam, P, p, rng)
        et_char, vec = is_endotrivial_char(green.rep, sc, p)
        et_direct = is_endotrivial_direct(green.rep, sc, p)
        mu = bq_character(green.rep, P, p, ctx, by_values)
        rng2 = random.Random(f"{seed}:chop:{tag}")
        facs = tuple(composition_factor_dims(f, green.rep.gen_mats, rng2))
        simple = len(facs) == 1
        records.append(CorrespondentRecord(
            exps=lam.exps, order=lam.order, dim=green.dim,
            summand_dims=tuple(s.dim for s in summands),
            brauer_vector=vec, bq_char_exps=mu.exps,
            endotrivial=et_char, endotrivial_direct=et_direct,
            simple=simple, factors=facs, rep=green.rep,
            reject_reps=[s.rep for s in summands if s is not green]))

    k_exps = [r.exps for r in records if r.endotrivial]
    orders = ab.orders

    # image of the ambient character group X(G) inside X(N)
    gchars = x_group(table, p, f)
    x_image = []
    for sigma in gchars:
        match = by_values.get(tuple(sigma.value(gi) for gi in ctx.ntable.gens))
        if match is None:
            raise RuntimeError("restriction of a G-character not found in X(N)")
        x_image.append(match.exps)
    x_image = list(dict.fromkeys(x_image))

    checks = {
        "direct_agrees_with_value_criterion": all(
            r.endotrivial == r.endotrivial_direct for r in records),
        "bq_character_is_lambda": all(
            r.bq_char_exps == r.exps for r in records),
        "k_closed_under_product": all(
            tuple((a + b) % d for a, b, d in zip(x, y, orders)) in set(k_exps)
            for x in k_exps for y in k_exps),
        "trivial_class_in_k": tuple(0 for _ in orders) in set(k_exps),
        "x_image_inside_k": set(x_image) <= set(k_exps),
    }

    k_inv = subgroup_invariants(k_exps, orders)
    x_inv = subgroup_invariants(x_image, orders)
    ttx = quotient_invariants(k_exps, x_image, orders)

    return KReport(
        group_order=table.order, p=p, field_p=f.p, field_e=f.e,
        sylow_order=len(P), sylow_type=sylow_type,
        normalizer_order=len(N), xn_orders=orders,
        cyclic_class_orders=cyc_orders, records=records,
        k_exps=k_exps, k_invariants=k_inv,
        x_image_exps=x_image, x_image_invariants=x_inv,
        tt_over_x=ttx,
        theorem_applies=sylow_type in ("klein_four", "dihedral"),
        checks=checks,
        table=table, ctx=ctx, chars=chars, char_by_values=by_values,
        sylow=P)


def tensor_power_class(res: KReport, exps: tuple[int, ...], m: int,
                       budget: int = TENSOR_LITERAL_CAP) -> dict:
    """Identify the class of the m-th tensor power of a correspondent.

    The class in X(N) is the m-th power of the character; when the literal
    tensor power fits the budget this is verified through the Brauer
    quotient at P, and the result is located in the image of X(G) when it
    lies there.
    """
    rec = next(r for r in res.records if r.exps == exps)
    predicted = tuple((a * m) % d for a, d in zip(exps, res.xn_orders))
    out = {"exps": list(exps), "power": m,
           "predicted_exps": list(predicted),
           "endotrivial_input": rec.endotrivial,
           "in_x_image": predicted in set(res.x_image_exps),
           "literal_checked": False, "literal_agrees": None,
           "verdict": "one_dimensional_plus_projective"}
    if not rec.endotrivial:
        out["verdict"] = "not_one_dimensional_plus_projective"
        return out
    # 2^m > budget settles dim >= 2 without forming the big integer dim^m
    if m < 1 or (rec.dim >= 2 and m >= max(budget, 0).bit_length()) \
            or rec.dim ** m > budget:
        return out
    nt = res.ctx.ntable
    rest = rec.rep.restrict(nt)
    power_rep = rest.tensor_power(m)
    bq = brauer_quotient(power_rep, res.ctx.g2n[res.sylow].tolist(), res.p)
    out["literal_checked"] = True
    if bq.dim != 1:
        out["literal_agrees"] = False
        out["verdict"] = "not_one_dimensional_plus_projective"
        return out
    mu = res.char_by_values.get(tuple(bq.action_scalars(nt.gen_idx)))
    out["literal_agrees"] = mu is not None and mu.exps == predicted
    return out


def theorem_check(res: KReport, expect: dict) -> list[str]:
    """Compare a report against a declared expectation record.

    Recognized keys: k_invariants, x_image_invariants, tt_over_x,
    nontrivial_dims (sorted dims of correspondents of nontrivial
    characters), nontrivial_simple (all simple), nontrivial_factors
    (sorted tuple of composition-factor tuples).  Returns discrepancy
    descriptions; empty means pass.
    """
    bad = []
    nontriv = [r for r in res.records if any(r.exps)]

    def cmp(key, got):
        if key in expect and tuple(expect[key]) != tuple(got):
            bad.append(f"{key}: expected {tuple(expect[key])}, got {tuple(got)}")

    cmp("k_invariants", res.k_invariants)
    cmp("x_image_invariants", res.x_image_invariants)
    cmp("tt_over_x", res.tt_over_x)
    cmp("nontrivial_dims", sorted(r.dim for r in nontriv))
    cmp("nontrivial_factors", sorted(r.factors for r in nontriv))
    if "nontrivial_simple" in expect:
        got = all(r.simple for r in nontriv)
        if expect["nontrivial_simple"] != got:
            bad.append(f"nontrivial_simple: expected "
                       f"{expect['nontrivial_simple']}, got {got}")
    if not all(res.checks.values()):
        bad.append(f"internal consistency checks failed: "
                   f"{[k for k, v in res.checks.items() if not v]}")
    return bad
