"""Admissible arrangements and paths between them.

A permutation is a tuple of 1-based images (sigma(1), ..., sigma(r)):
position h of the arrangement carries component sigma(h).  An arrangement
is admissible when no earlier position is preceded by a later one; the set
of admissible permutations is written Sigma_r.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import InputError, ResourceLimitError
from .segments import (
    GoodParityParameter,
    Relation,
    arrangement_is_admissible,
    relation,
    relation_table,
)

Permutation = tuple[int, ...]

# The partial arrangements (the empty one too) ``enumerate_admissible`` may visit:
# all those of eight components with no two in precedence, the most at r <= 8.
MAX_ORDER_NODES = sum(math.perm(8, k) for k in range(9))


def enumerate_admissible(psi: GoodParityParameter) -> list[Permutation]:
    """All admissible permutations, in lexicographic order of image lists.

    DFS over positions with pruning: a partial arrangement is extended by a
    component only if no already-placed component is preceded by it.
    Raises ``ResourceLimitError`` past ``MAX_ORDER_NODES`` partial
    arrangements, at any r.
    """
    r = psi.r
    table = relation_table(psi)
    out: list[Permutation] = []
    prefix: list[int] = []
    used = [False] * (r + 1)
    nodes = 0

    def extend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_ORDER_NODES:
            raise ResourceLimitError(
                f"the arrangement search visited more than {MAX_ORDER_NODES}"
                f" partial arrangements of {r} components"
            )
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for i in range(1, r + 1):
            if used[i]:
                continue
            if any(table[h][i] is Relation.PRECEDED_BY for h in prefix):
                continue
            used[i] = True
            prefix.append(i)
            extend()
            prefix.pop()
            used[i] = False

    extend()
    return out


def sigma_pairs(psi: GoodParityParameter, i: int, j: int) -> list[Permutation]:
    """The admissible permutations placing components i and j adjacently.

    Empty iff some k lies strictly between i and j in the precedence order.
    Reads every admissible permutation, within ``MAX_ORDER_NODES``.
    """
    if i == j:
        raise InputError(f"sigma_pairs needs distinct indices, got ({i}, {j})")
    relation(psi, i, j)  # validates the indices
    return [s for s in enumerate_admissible(psi) if abs(s.index(i) - s.index(j)) == 1]


def lex_first_adjacent(
    psi: GoodParityParameter, i: int, j: int
) -> Optional[Permutation]:
    """``sigma_pairs(psi, i, j)[0]`` without enumerating Sigma_r: the
    lexicographically first admissible arrangement placing i and j next to
    each other, or None when none exists.

    In closed form, for i < j and p the highest-index predecessor of j:
    1..i-1; then, in index order, the components in (i, p] that i does not
    precede; then i, j; then the remaining components in index order.  There
    is none when i precedes a predecessor of j lying after i.
    """
    relation(psi, i, j)  # validates the indices
    return adjacent_placement(psi.masks.preceded_by, min(i, j), max(i, j))


def adjacent_placement(preceded_by: Sequence[int], i: int, j: int) -> Optional[Permutation]:
    """``lex_first_adjacent`` for i < j from ``RelationMasks.preceded_by``
    (bit k of ``preceded_by[c]`` set when k precedes c; the reference order
    is admissible, so every such k is below c); O(r)."""
    p = max(i, preceded_by[j].bit_length() - 1)
    ahead, behind = [], []
    for k in range(i + 1, p + 1):
        if not preceded_by[k] >> i & 1:
            ahead.append(k)
        elif preceded_by[j] >> k & 1:
            return None
        else:
            behind.append(k)
    rest = (*behind, *range(p + 1, j), *range(j + 1, len(preceded_by)))
    return (*range(1, i), *ahead, i, j, *rest)


def transposition_path(
    psi: GoodParityParameter, sigma: Sequence[int], tau: Sequence[int]
) -> list[int]:
    """Adjacent-transposition path from arrangement sigma to tau.

    Returns positions h (1-based) such that successively swapping positions
    (h, h+1) turns sigma into tau.  Every intermediate arrangement is
    admissible, and the length equals the inversion count of sigma^{-1} tau:
    the path is a geodesic, and on a geodesic no pair is swapped twice, so
    no pair can leave and re-enter its (shared, admissible) relative order.
    """
    sigma = tuple(sigma)
    tau = tuple(tau)
    for name, perm in (("sigma", sigma), ("tau", tau)):
        if not arrangement_is_admissible(psi, perm):
            raise InputError(f"{name}={perm} is not admissible")
    return bubble_path(sigma, tau)


def bubble_path(sigma: Permutation, tau: Permutation) -> list[int]:
    """The swap positions of ``transposition_path``, without the checks."""
    # Bubble-sort sigma towards tau's order; each swap fixes one inversion.
    rank = {img: pos for pos, img in enumerate(tau)}
    work = [rank[img] for img in sigma]
    path: list[int] = []
    changed = True
    while changed:
        changed = False
        for h in range(len(work) - 1):
            if work[h] > work[h + 1]:
                work[h], work[h + 1] = work[h + 1], work[h]
                path.append(h + 1)
                changed = True
    return path


def appropriate_arrangement(psi: GoodParityParameter) -> Permutation:
    """The canonical arrangement used by the tableau engine.

    Sorts components by end descending, then beginning ascending, then
    index; in the result every earlier segment either precedes or is
    contained in every later one.
    """
    order = sorted(
        range(1, psi.r + 1),
        key=lambda i: (-psi.seg(i).e.twice, psi.seg(i).b.twice, i),
    )
    return tuple(order)
