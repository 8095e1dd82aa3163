"""Builtin group catalog with validation gates.

Every entry carries the construction recipe, structural validation values
(order, center order, odd-core order, perfectness where meaningful), and an
expectation record for consistency checking of analysis output.  A builtin
group is only handed to analysis after all its validation predicates pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .ffla import field_make
from .grp import GroupTable, MatOps, PermOps, parse_group_file

__all__ = ["CatalogEntry", "build_group", "entries", "lookup", "names"]


def _perm(degree: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _alternating(n: int) -> GroupTable:
    if n % 2 == 1:
        gens = [_perm(n, (0, 1, 2)), _perm(n, tuple(range(n)))]
    else:
        gens = [_perm(n, (0, 1, 2)), _perm(n, tuple(range(1, n)))]
    return GroupTable(PermOps(n), gens)


def _symmetric(n: int) -> GroupTable:
    gens = [_perm(n, tuple(range(n))), _perm(n, (0, 1))]
    return GroupTable(PermOps(n), gens)


def _dihedral(order: int) -> GroupTable:
    m = order // 2
    rot = _perm(m, tuple(range(m)))
    ref = tuple((-i) % m for i in range(m))
    return GroupTable(PermOps(m), [rot, ref])


def _klein() -> GroupTable:
    return GroupTable(PermOps(4), [_perm(4, (0, 1)), _perm(4, (2, 3))])


def _projective_line_maps(q: int, twist: bool) -> GroupTable:
    """PSL(2,q) (twist=False) or PGL(2,q) (twist=True) on the q+1 points of
    the projective line; infinity is the last point."""
    inf = q
    if q in (3, 5, 7, 11, 13):
        # prime field: x+1 and -1/x generate PSL(2,q)
        tr = tuple([(x + 1) % q for x in range(q)] + [inf])
        s = [0] * (q + 1)
        s[0], s[inf] = inf, 0
        for x in range(1, q):
            s[x] = (-pow(x, q - 2, q)) % q
        gens = [tr, tuple(s)]
        if twist:
            g = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2}[q]
            gens.append(tuple([(g * x) % q for x in range(q)] + [inf]))
    elif q == 9:
        f = field_make(3, 2)
        one = 1
        zeta = f.root_of_unity(8)
        tr = tuple([f.add(x, one) for x in range(9)] + [inf])
        tz = tuple([f.add(x, zeta) for x in range(9)] + [inf])
        s = [0] * 10
        s[0], s[inf] = inf, 0
        for x in range(1, 9):
            s[x] = f.neg(f.inv(x))
        gens = [tr, tz, tuple(s)]
        if twist:
            gens.append(tuple([f.mul(zeta, x) for x in range(9)] + [inf]))
    else:
        raise ValueError(f"unsupported projective line size {q}")
    return GroupTable(PermOps(q + 1), gens)


def _data_text(fname: str) -> str:
    return resources.files("endotriv").joinpath("data").joinpath(fname
                                                                 ).read_text()


def _cover_from_data(fname: str, cap: int) -> GroupTable:
    ops, gens = parse_group_file(_data_text(fname))
    return GroupTable(ops, gens, cap=cap)


def _central_product_c9_3a6() -> GroupTable:
    """C9 * 3.A6 in GL_3(F64): embed the GF(4) generators and adjoin a
    scalar of order 9 whose cube is the central scalar of the cover."""
    ops4, gens4 = parse_group_file(_data_text("three_a6_gf4.txt"))
    f4 = ops4.field
    f64 = field_make(2, 6)
    emb = f64.embed_from(f4)
    gens64 = [emb[g].astype(f64.dtype) for g in gens4]
    zeta = f64.root_of_unity(9)
    # any order-9 scalar works: its cube is one of the two primitive cube
    # roots, both of which the embedded cover's center already contains
    scal = np.diag([zeta] * 3).astype(f64.dtype)
    return GroupTable(MatOps(f64, 3), gens64 + [scal], cap=3500)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    builder: Callable[[], GroupTable]
    order: int
    center_order: int
    odd_core_order: int
    perfect: Optional[bool] = None
    expectation: Optional[dict] = None


def _trivial_exp() -> dict:
    return {"k_invariants": (), "x_image_invariants": (), "tt_over_x": ()}


_ENTRIES = [
    CatalogEntry(
        "A4", "alternating group on 4 points", lambda: _alternating(4),
        12, 1, 1, perfect=False,
        expectation={"k_invariants": (3,), "x_image_invariants": (3,),
                     "tt_over_x": (), "nontrivial_dims": (1, 1),
                     "nontrivial_simple": True}),
    CatalogEntry(
        "A5", "alternating group on 5 points", lambda: _alternating(5),
        60, 1, 1, perfect=True,
        expectation={"k_invariants": (3,), "x_image_invariants": (),
                     "tt_over_x": (3,), "nontrivial_dims": (5, 5),
                     "nontrivial_factors": ((1, 2, 2), (1, 2, 2))}),
    CatalogEntry(
        "A6", "alternating group on 6 points", lambda: _alternating(6),
        360, 1, 1, perfect=True, expectation=_trivial_exp()),
    CatalogEntry(
        "A7", "alternating group on 7 points", lambda: _alternating(7),
        2520, 1, 1, perfect=True, expectation=_trivial_exp()),
    CatalogEntry(
        "S4", "symmetric group on 4 points", lambda: _symmetric(4),
        24, 1, 1, perfect=False, expectation=_trivial_exp()),
    CatalogEntry(
        "D8", "dihedral group of order 8", lambda: _dihedral(8),
        8, 2, 1, expectation=_trivial_exp()),
    CatalogEntry(
        "D16", "dihedral group of order 16", lambda: _dihedral(16),
        16, 2, 1, expectation=_trivial_exp()),
    CatalogEntry(
        "C2xC2", "Klein four-group", _klein,
        4, 4, 1, expectation=_trivial_exp()),
    CatalogEntry(
        "PSL(2,3)", "PSL(2,3) on 4 projective points",
        lambda: _projective_line_maps(3, False), 12, 1, 1,
        expectation={"k_invariants": (3,), "x_image_invariants": (3,),
                     "tt_over_x": (), "nontrivial_dims": (1, 1)}),
    CatalogEntry(
        "PSL(2,5)", "PSL(2,5) on 6 projective points",
        lambda: _projective_line_maps(5, False), 60, 1, 1,
        expectation={"k_invariants": (3,), "x_image_invariants": (),
                     "tt_over_x": (3,), "nontrivial_dims": (5, 5)}),
    CatalogEntry(
        "PSL(2,7)", "PSL(2,7) on 8 projective points",
        lambda: _projective_line_maps(7, False), 168, 1, 1,
        perfect=True, expectation=_trivial_exp()),
    CatalogEntry(
        "PSL(2,9)", "PSL(2,9) on 10 projective points",
        lambda: _projective_line_maps(9, False), 360, 1, 1,
        perfect=True, expectation=_trivial_exp()),
    CatalogEntry(
        "PSL(2,11)", "PSL(2,11) on 12 projective points",
        lambda: _projective_line_maps(11, False), 660, 1, 1,
        perfect=True,
        expectation={"k_invariants": (3,), "x_image_invariants": (),
                     "tt_over_x": (3,), "nontrivial_dims": (5, 5)}),
    CatalogEntry(
        "PSL(2,13)", "PSL(2,13) on 14 projective points",
        lambda: _projective_line_maps(13, False), 1092, 1, 1,
        perfect=True,
        expectation={"k_invariants": (3,), "x_image_invariants": (),
                     "tt_over_x": (3,), "nontrivial_dims": (13, 13),
                     "nontrivial_factors": ((1, 6, 6), (1, 6, 6))}),
    CatalogEntry(
        "PGL(2,3)", "PGL(2,3) on 4 projective points",
        lambda: _projective_line_maps(3, True), 24, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "PGL(2,5)", "PGL(2,5) on 6 projective points",
        lambda: _projective_line_maps(5, True), 120, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "PGL(2,7)", "PGL(2,7) on 8 projective points",
        lambda: _projective_line_maps(7, True), 336, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "PGL(2,9)", "PGL(2,9) on 10 projective points",
        lambda: _projective_line_maps(9, True), 720, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "PGL(2,11)", "PGL(2,11) on 12 projective points",
        lambda: _projective_line_maps(11, True), 1320, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "PGL(2,13)", "PGL(2,13) on 14 projective points",
        lambda: _projective_line_maps(13, True), 2184, 1, 1,
        expectation=_trivial_exp()),
    CatalogEntry(
        "3A6", "triple cover of A6, 3x3 matrices over GF(4)",
        lambda: _cover_from_data("three_a6_gf4.txt", 1200),
        1080, 3, 3, perfect=True,
        expectation={"k_invariants": (3,), "x_image_invariants": (),
                     "tt_over_x": (3,), "nontrivial_dims": (9, 9),
                     "nontrivial_simple": True}),
    CatalogEntry(
        "3A7", "triple cover of A7, 3x3 matrices over GF(25)",
        lambda: _cover_from_data("three_a7_gf25.txt", 7800),
        7560, 3, 3, perfect=True,
        expectation={"k_invariants": (), "x_image_invariants": (),
                     "tt_over_x": (), "nontrivial_dims": (15, 15),
                     "nontrivial_simple": True}),
    CatalogEntry(
        "C9*3A6", "central product of C9 with the triple cover of A6",
        _central_product_c9_3a6, 3240, 9, 9, perfect=False,
        expectation={"k_invariants": (9,), "x_image_invariants": (3,),
                     "tt_over_x": (3,),
                     "nontrivial_dims": (1, 1, 9, 9, 9, 9, 9, 9),
                     "nontrivial_simple": True}),
]


def _canon(name: str) -> str:
    out = name.lower()
    if out.startswith("builtin:"):
        out = out[len("builtin:"):]
    for ch in "()-_,.*x ":
        out = out.replace(ch, "")
    return out


def _index(ents: list[CatalogEntry]) -> dict[str, CatalogEntry]:
    """Entries by canonical name; two names with one canonical form would
    leave one of them unreachable."""
    by_key: dict[str, CatalogEntry] = {}
    for e in ents:
        key = _canon(e.name)
        if key in by_key:
            raise RuntimeError(f"catalog names {by_key[key].name!r} and "
                               f"{e.name!r} collide")
        by_key[key] = e
    return by_key


_BY_KEY = _index(_ENTRIES)
_BY_KEY["klein"] = _BY_KEY["c2c2"]


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def names() -> list[str]:
    return [e.name for e in _ENTRIES]


def lookup(name: str) -> CatalogEntry:
    key = _canon(name)
    if key not in _BY_KEY:
        raise KeyError(f"unknown builtin group {name!r}; "
                       f"available: {', '.join(names())}")
    return _BY_KEY[key]


def validate_entry(entry: CatalogEntry, table: GroupTable) -> None:
    if table.order != entry.order:
        raise ValueError(f"{entry.name}: order {table.order}, "
                         f"expected {entry.order}")
    z = len(table.center())
    if z != entry.center_order:
        raise ValueError(f"{entry.name}: center order {z}, "
                         f"expected {entry.center_order}")
    oc = len(table.o_pprime(2))
    if oc != entry.odd_core_order:
        raise ValueError(f"{entry.name}: odd core order {oc}, "
                         f"expected {entry.odd_core_order}")
    if entry.perfect is not None and table.is_perfect() != entry.perfect:
        raise ValueError(f"{entry.name}: perfectness mismatch")


def build_group(source: str) -> tuple[GroupTable, Optional[CatalogEntry]]:
    """Build a validated builtin by name, or enumerate a group file."""
    try:
        entry = lookup(source)
    except KeyError:
        entry = None
    if entry is not None:
        table = entry.builder()
        validate_entry(entry, table)
        return table, entry
    with open(source) as fh:
        ops, gens = parse_group_file(fh.read())
    return GroupTable(ops, gens), None
