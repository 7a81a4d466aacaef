"""Segments, the precedence/containment order, and parameter-level data.

A segment [b, e] stands for the decreasing half-integer sequence
b, b-1, ..., e.  A parameter is an ordered list of segments; component i
contributes a segment of length m_i centered at a_i.  All indices into a
parameter are 1-based throughout the library, matching the usual
mathematical labelling of the components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, check_ints
from .halfint import HalfInt, HalfIntLike


@dataclass(frozen=True, slots=True)
class Segment:
    """A decreasing half-integer interval [b, e] with unit step.

    >>> s = Segment.of(7, 5)
    >>> s.m, s.a
    (3, 12)
    """

    b: HalfInt  # beginning (maximum)
    e: HalfInt  # end (minimum)

    def __post_init__(self) -> None:
        diff = self.b.twice - self.e.twice
        if diff < 0 or diff % 2 != 0:
            raise InputError(f"invalid segment [{self.b}, {self.e}]")

    @classmethod
    def of(cls, b: HalfIntLike, e: HalfIntLike) -> "Segment":
        return cls(HalfInt.of(b), HalfInt.of(e))

    @property
    def m(self) -> int:
        """Length b - e + 1."""
        return (self.b.twice - self.e.twice) // 2 + 1

    @property
    def a(self) -> int:
        """Center b + e (always an integer: b and e lie on the same grid)."""
        return (self.b.twice + self.e.twice) // 2

    def entries(self) -> list[HalfInt]:
        return [HalfInt(self.b.twice - 2 * k) for k in range(self.m)]

    @staticmethod
    def relate_twice(sb: int, se: int, tb: int, te: int) -> Relation:
        """Relation of [sb/2, se/2] to [tb/2, te/2], from the doubled ends;
        an exact duplicate Contains.

        Compares plain ints: this is the innermost test of the tableau steps.
        """
        if sb > tb and se > te:
            return Relation.PRECEDES
        if tb > sb and te > se:
            return Relation.PRECEDED_BY
        # containment: neither precedes the other
        if sb >= tb and se <= te:
            return Relation.CONTAINS
        return Relation.CONTAINED

    @staticmethod
    def intersection_twice(sb: int, se: int, tb: int, te: int) -> int:
        """``intersection_size`` on doubled ends."""
        diff = min(sb, tb) - max(se, te)
        if diff >= 0 and diff % 2:
            raise InputError(
                f"segments [{HalfInt(sb)},{HalfInt(se)}] and [{HalfInt(tb)},{HalfInt(te)}]"
                " lie on different grids"
            )
        return max(0, diff // 2 + 1)

    def __str__(self) -> str:
        return f"[{self.b},{self.e}]"


def segment_from_component(a: int, m: int) -> Segment:
    """Segment of length m centered at a: [(a+m-1)/2, (a-m+1)/2].

    >>> str(segment_from_component(12, 3))
    '[7,5]'
    """
    check_ints("component centre", (a,))
    check_ints("component length", (m,))
    if m < 1:
        raise InputError(f"component length must be positive, got {m}")
    return Segment(HalfInt(a + m - 1), HalfInt(a - m + 1))


class Relation(enum.Enum):
    """How two distinct components compare, after duplicate resolution."""

    PRECEDES = "precedes"  # b_i > b_j and e_i > e_j
    PRECEDED_BY = "preceded-by"
    CONTAINS = "contains"
    CONTAINED = "contained"

    @property
    def is_containment(self) -> bool:
        return self in (Relation.CONTAINS, Relation.CONTAINED)


@dataclass(frozen=True, slots=True)
class GoodParityParameter:
    """An ordered, admissible list of segments (the parameter psi).

    Duplicate segments are resolved by index: the earlier copy Contains
    the later one.  The reference order must be admissible (no earlier
    component preceded by a later one); inadmissible input is rejected so
    that every report uses the caller's own ordering.

    With ``strict_parity`` set, each component must satisfy
    a_i + m_i = n (mod 2).  The flag is off by default: the algorithms are
    parity-agnostic, and natural examples (e.g. U(6,8) with n = 14 and all
    a_i + m_i odd) violate the congruence.  All segments must nevertheless
    lie on a single grid (all b_i integral, or all strictly half-integral),
    otherwise intersection counts are meaningless.
    """

    segments: tuple[Segment, ...]
    strict_parity: bool = field(default=False)
    masks: RelationMasks = field(init=False, repr=False, compare=False)  # built once

    def __post_init__(self) -> None:
        if not self.segments:
            raise InputError("parameter needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))
        grid = {s.b.twice % 2 for s in self.segments}
        if len(grid) > 1:
            raise InputError("segments mix integral and half-integral grids")
        if self.strict_parity:
            n = self.n
            for i, s in enumerate(self.segments, start=1):
                if (s.a + s.m - n) % 2 != 0:
                    raise InputError(
                        f"component {i} violates parity: a+m={s.a + s.m}, n={n}"
                    )
        object.__setattr__(self, "masks", relation_masks(self))
        for i, mask in enumerate(self.masks.preceded_by):
            later = mask >> i << i  # the predecessors of i placed after it
            if later:
                j = (later & -later).bit_length() - 1
                raise InputError(
                    f"reference order inadmissible: component {i} "
                    f"{self.seg(i)} is preceded by component {j} {self.seg(j)}"
                )

    @classmethod
    def from_components(
        cls, components: Iterable[tuple[int, int]], strict_parity: bool = False
    ) -> "GoodParityParameter":
        """Build from (a_i, m_i) pairs."""
        segs = tuple(segment_from_component(a, m) for a, m in components)
        return cls(segs, strict_parity)

    @property
    def r(self) -> int:
        return len(self.segments)

    @property
    def n(self) -> int:
        return sum(s.m for s in self.segments)

    def seg(self, i: int) -> Segment:
        if type(i) is not int or not 1 <= i <= self.r:  # one test on the hot path
            check_ints("component index", (i,))
            raise InputError(f"component index {i} out of range 1..{self.r}")
        return self.segments[i - 1]

    def m(self, i: int) -> int:
        return self.seg(i).m

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.segments) + "}"


def relation(psi: GoodParityParameter, i: int, j: int) -> Relation:
    """Relation of component i to component j (duplicates: earlier Contains),
    read off the parameter's masks.

    >>> psi = GoodParityParameter((Segment.of(7, 5), Segment.of(7, 3)))
    >>> relation(psi, 1, 2)
    <Relation.CONTAINED: 'contained'>
    """
    if i == j:
        raise InputError(f"relation needs distinct indices, got ({i}, {j})")
    psi.seg(i), psi.seg(j)  # validates the indices
    return _decoded(psi.masks, i, j)


class RelationMasks(NamedTuple):
    """Every relation of a parameter as bitmasks: bit k of ``X[i]`` is set
    when component i stands in relation X to component k, an exact
    duplicate counting as the earlier one containing the later.  Indices
    are 1-based; entry 0 is 0.  Fields follow the order of ``Relation``, so
    each k != i sets its bit in exactly one mask of i, and ``preceded_by``
    and ``contained`` are the transposes of ``precedes`` and ``contains``."""

    precedes: tuple[int, ...]
    preceded_by: tuple[int, ...]
    contains: tuple[int, ...]
    contained: tuple[int, ...]


def relation_masks(psi: GoodParityParameter) -> RelationMasks:
    """All relations in one pass over the doubled ends (the comparisons of
    ``Segment.relate_twice``, an exact duplicate counting as the earlier
    one Containing the later); ``GoodParityParameter`` keeps the result as
    ``masks``, which ``relation`` and ``relation_table`` decode."""
    segments = psi.segments
    r = len(segments)
    precedes, preceded_by = [0] * (r + 1), [0] * (r + 1)
    contains, contained = [0] * (r + 1), [0] * (r + 1)
    i = 0
    for s in segments:
        i += 1
        sb, se, bit_i = s.b.twice, s.e.twice, 1 << i
        j = i
        for t in segments[i:]:
            j += 1
            tb, te = t.b.twice, t.e.twice
            if se > te and sb > tb:  # i precedes j
                precedes[i] |= 1 << j
                preceded_by[j] |= bit_i
            elif se < te and sb < tb:  # j precedes i
                preceded_by[i] |= 1 << j
                precedes[j] |= bit_i
            elif se <= te and sb >= tb:  # i contains j, or they are equal
                contains[i] |= 1 << j
                contained[j] |= bit_i
            else:
                contained[i] |= 1 << j
                contains[j] |= bit_i
    return RelationMasks(*map(tuple, (precedes, preceded_by, contains, contained)))


_PRECEDES, _PRECEDED_BY, _CONTAINS, _CONTAINED = Relation  # read without Enum lookups


def _decoded(masks: RelationMasks, i: int, k: int) -> Relation:
    """The relation of component i to component k != i that the masks hold."""
    precedes, preceded_by, contains, _ = masks
    if precedes[i] >> k & 1:
        return _PRECEDES
    if preceded_by[i] >> k & 1:
        return _PRECEDED_BY
    return _CONTAINS if contains[i] >> k & 1 else _CONTAINED


def relation_table(psi: GoodParityParameter) -> tuple[tuple[Relation | None, ...], ...]:
    """All relations at once: ``table[i][j] == relation(psi, i, j)``, read
    out of the parameter's masks.

    Indices are 1-based like everywhere else; row 0, column 0 and the
    diagonal hold None.
    """
    masks = psi.masks
    size = len(masks.precedes)
    return ((None,) * size, *(
        tuple(None if k in (0, i) else _decoded(masks, i, k) for k in range(size))
        for i in range(1, size)
    ))


def intersection_size(s: Segment, t: Segment) -> int:
    """Number of common entries of the two segments.

    >>> intersection_size(Segment.of(7, 3), Segment.of(6, 1))
    4
    """
    return Segment.intersection_twice(s.b.twice, s.e.twice, t.b.twice, t.e.twice)


def neighbors(psi: GoodParityParameter, i: int, j: int) -> bool:
    """True iff i, j are related with no third component strictly between:
    the pair, in either order, is one of ``neighbor_pairs``."""
    relation(psi, i, j)  # validates the indices
    return (min(i, j), max(i, j)) in neighbor_pairs(psi.masks)


def neighbor_pairs(masks: RelationMasks) -> list[tuple[int, int]]:
    """All neighbor pairs i < j, in lexicographic order.

    Between-ness is taken in the same relation: a precedence pair is
    blocked by nu_i > nu_k > nu_j, a containment pair by a strictly
    intermediate containment chain.  Component k lies between when i rel k
    and k rel j: one AND of the masks of the pair's relation.
    """
    precedes, preceded_by, contains, contained = masks
    end = len(precedes)
    out = []
    for i in range(1, end):
        precedes_i, contains_i, contained_i = precedes[i], contains[i], contained[i]
        for j in range(i + 1, end):
            if precedes_i >> j & 1:
                between = precedes_i & preceded_by[j]
            elif contains_i >> j & 1:
                between = contains_i & contained[j]
            else:  # the reference order is admissible: j does not precede i
                between = contained_i & contains[j]
            if not between:
                out.append((i, j))
    return out


def lambda_values(psi: GoodParityParameter) -> tuple[HalfInt, ...]:
    """The shifts lambda_i = (a_i + m_i - n)/2 + sum_{j<i} m_j.

    Integral whenever strict parity holds; half-integral otherwise.
    """
    n = psi.n
    out = []
    acc = 0
    for s in psi.segments:
        out.append(HalfInt(s.a + s.m - n + 2 * acc))
        acc += s.m
    return tuple(out)


def arrangement_is_admissible(
    psi: GoodParityParameter, images: Sequence[int]
) -> bool:
    """No position h < k carries a segment preceded by the one at k: walking
    from the right, no component's predecessors meet the later ones."""
    check_ints("arrangement image", images)
    if sorted(images) != list(range(1, psi.r + 1)):
        raise InputError(f"not a permutation of 1..{psi.r}: {tuple(images)}")
    preceded_by = psi.masks.preceded_by
    later = 0
    for comp in reversed(images):
        if preceded_by[comp] & later:
            return False
        later |= 1 << comp
    return True


def check_arrangement(psi: GoodParityParameter, images: Sequence[int]) -> None:
    """Refuse, with an ``InputError``, an arrangement of psi that is not a
    permutation of 1..r or not admissible."""
    if not arrangement_is_admissible(psi, images):
        raise InputError(f"arrangement {tuple(images)} is not admissible")


class RangeLabel(enum.Enum):
    GOOD = "good"
    NICE = "nice"
    WEAKLY_FAIR = "weakly-fair"
    MEDIOCRE = "mediocre"


def range_classify(
    psi: GoodParityParameter, arrangement: Sequence[int]
) -> set[RangeLabel]:
    """Classify an arrangement: good / nice / weakly fair / mediocre.

    The labels are cumulative: good implies nice implies weakly fair
    implies mediocre (= admissible).
    """
    images = tuple(arrangement)
    labels = {RangeLabel.MEDIOCRE} if arrangement_is_admissible(psi, images) else set()
    ends = [(psi.seg(i).b.twice, psi.seg(i).e.twice) for i in images]
    pairs = list(zip(ends, ends[1:]))
    if all(s[1] > t[0] for s, t in pairs):
        labels.add(RangeLabel.GOOD)
    if all(s == t or (s[0] > t[0] and s[1] > t[1]) for s, t in pairs):
        labels.add(RangeLabel.NICE)
    if all(sum(s) >= sum(t) for s, t in pairs):  # the doubled centres 2a
        labels.add(RangeLabel.WEAKLY_FAIR)
    return labels
