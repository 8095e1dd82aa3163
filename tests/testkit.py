"""Module tools that only the tests use: Jordan block sizes of a unipotent
element and an explicit isomorphism between two representations."""
import random
from typing import Optional, Sequence

import numpy as np

from endotriv.ffla import FieldTable, FMatrix, gauss, kron
from endotriv.modrep import ModuleRep, _minus_one


def jordan_profile(rep: ModuleRep, i: int) -> dict[int, int]:
    """Jordan block sizes of element i (order a power of char): {size: count}.

    Raises ValueError when rep(i) is not unipotent: the rank of
    (rep(i) - 1)^j then stops falling above 0.
    """
    f = rep.field
    m = rep.at(i)
    a = FMatrix(f, _minus_one(f, m.a))
    ranks = [rep.dim]
    power = a
    while ranks[-1] > 0:
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            raise ValueError(f"element {i} does not act unipotently: "
                             f"(rep - 1)^{len(ranks) - 1} keeps rank "
                             f"{ranks[-1]}")
        power = power @ a
    # ranks[j] = rank((m - 1)^j), ending in 0; block counts by second difference
    out = {}
    for j in range(1, len(ranks)):
        nxt = ranks[j + 1] if j + 1 < len(ranks) else 0
        cnt = ranks[j - 1] - 2 * ranks[j] + nxt
        if cnt > 0:
            out[j] = cnt
    return out


def module_iso(f: FieldTable, amats: Sequence[FMatrix],
               bmats: Sequence[FMatrix], rng: random.Random
               ) -> Optional[FMatrix]:
    """Invertible T with T A_g = B_g T for all generators, or None."""
    n = amats[0].a.shape[0]
    if bmats[0].a.shape[0] != n:
        return None
    # T A - B T = 0 on the row-major vec(T): (I kron A^T - B kron I) vec(T)
    ident = FMatrix.identity(f, n)
    blocks = [f.sub_vec(kron(ident, A.T).a, kron(B, ident).a)
              for A, B in zip(amats, bmats)]
    ker = gauss(FMatrix(f, np.vstack(blocks))).kernel.a
    if ker.shape[0] == 0:
        return None
    for row in ker:
        T = FMatrix(f, row.reshape(n, n))
        if T.rank() == n:
            return T
    for _ in range(30):
        coeffs = np.array([rng.randrange(f.q) for _ in range(ker.shape[0])],
                          dtype=np.int64)
        comb_row = f.matmul(coeffs[None, :].astype(f.dtype),
                            ker.astype(f.dtype))[0]
        T = FMatrix(f, comb_row.reshape(n, n))
        if T.rank() == n:
            return T
    return None
