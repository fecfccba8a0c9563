"""Closed-form evaluators for the treated graph families.

These are kept strictly separate from the enumeration engine so each can
check the other. Two of the catalogued multipartite expressions do not
survive small-case enumeration; those are exposed in an ``as_printed``
variant evaluated verbatim, next to a ``corrected`` variant that applies
the color-reversal permutation consistently. The verification harness
runs both and records which one agrees with brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

Variant = Literal["as_printed", "corrected"]


@dataclass(frozen=True)
class CompleteGraphForms:
    cm1: int
    cm2: int
    cm3: int
    m1: int
    m2: int
    m3: int


def complete_graph_forms(n: int) -> CompleteGraphForms:
    """Closed forms for the complete graph on n vertices.

    Every minimum coloring of a complete graph wears each color exactly
    once, so the chromatic values carry no min/max split.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    ell = n - 1
    return CompleteGraphForms(
        cm1=n * (n + 1) * (2 * n + 1) // 6,
        cm2=sum(i * j for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        cm3=ell * (ell * ell + 3 * ell + 2) // 6,
        m1=n * (n - 1) ** 2,
        m2=n * (n - 1) ** 3 // 2,
        m3=0,
    )


@dataclass(frozen=True)
class TreeForms:
    cm1_lo: int
    cm1_hi: int
    cm2: int
    cm3: int


def tree_forms(n: int) -> TreeForms:
    """Bounds and equalities for trees of order n >= 4.

    cm1 is bracketed by the star's two labelings; cm2 and cm3 are exact
    since every tree edge joins colors 1 and 2.
    """
    if n < 4:
        raise ValueError(f"tree forms are stated for order >= 4, got {n}")
    return TreeForms(cm1_lo=n + 3, cm1_hi=4 * n - 3, cm2=2 * (n - 1), cm3=n - 1)


@dataclass(frozen=True)
class MultipartiteForms:
    cm1_min: int
    cm1_max: int
    cm2_min: int
    cm2_max: int
    cm3: int
    variant: str


def multipartite_forms(sizes: Sequence[int], variant: Variant = "corrected") -> MultipartiteForms:
    """Closed forms for the complete multipartite graph with the given part sizes.

    Parts must be sorted ascending. The ``as_printed`` cm2_min weights are
    (r-i)(r-j), which zero out at j = r; ``corrected`` uses the reversal
    weights (r+1-i)(r+1-j). The cm3 expression (identity labeling) is the
    same in both variants; whether it is extremal is itself under test.
    """
    sizes = tuple(sizes)
    r = len(sizes)
    if r < 2:
        raise ValueError("need at least two parts")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be >= 1")
    if list(sizes) != sorted(sizes):
        raise ValueError("part sizes must be sorted ascending")
    if variant not in ("as_printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    cm1_max = sum(sizes[i - 1] * i * i for i in range(1, r + 1))
    cm1_min = sum(sizes[i + 1 - 1] * (r - i) ** 2 for i in range(0, r))
    cm2_max = 0
    cm2_min = 0
    cm3 = 0
    for i in range(1, r):
        for j in range(i + 1, r + 1):
            nij = sizes[i - 1] * sizes[j - 1]
            cm2_max += nij * i * j
            if variant == "as_printed":
                cm2_min += nij * (r - i) * (r - j)
            else:
                cm2_min += nij * (r + 1 - i) * (r + 1 - j)
            cm3 += nij * (j - i)
    return MultipartiteForms(cm1_min, cm1_max, cm2_min, cm2_max, cm3, variant)


@dataclass(frozen=True)
class EqualMultipartiteForms:
    cm1: int
    cm2: int
    cm3_printed: int
    cm3_pairsum: int


def equal_multipartite_forms(n: int, r: int) -> EqualMultipartiteForms:
    """Closed forms for the complete r-partite graph with all parts of size n.

    All labelings agree by symmetry, so each index is a single value.
    cm3 is reported twice: ``cm3_printed`` evaluates the catalogued
    expression n^2 * sum i*(r-1) verbatim, ``cm3_pairsum`` evaluates the
    pair sum n^2 * sum_{i<j} (j-i); enumeration decides between them.
    """
    if n < 1:
        raise ValueError(f"part size must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"need at least two parts, got {r}")
    cm2_twice = n * n * sum(i * i * (i - 1) for i in range(2, r + 1))
    assert cm2_twice % 2 == 0
    return EqualMultipartiteForms(
        cm1=n * r * (r + 1) * (2 * r + 1) // 6,
        cm2=cm2_twice // 2,
        cm3_printed=n * n * sum(i * (r - 1) for i in range(1, r)),
        cm3_pairsum=n * n * sum(i * (r - i) for i in range(1, r)),
    )


@dataclass(frozen=True)
class ThornBaseData:
    """Inputs the thorn formulas need about the base graph.

    The strength vectors are sorted descending and come from the three
    minimum-coloring witnesses (one per index) of the base graph; the
    engine supplies them via :func:`thorn_base_data`.
    """

    n: int
    ell: int
    cm1_min: int
    cm1_max: int
    cm2_min: int
    cm2_max: int
    cm3_min: int
    cm3_max: int
    theta1: tuple[int, ...]
    theta2: tuple[int, ...]
    theta3: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise ValueError("thorn forms need a base with at least two colors")
        for name in ("theta1", "theta2", "theta3"):
            theta = getattr(self, name)
            if len(theta) != self.ell:
                raise ValueError(f"{name} must have one entry per color")
            if sum(theta) != self.n:
                raise ValueError(f"{name} entries must sum to the base order {self.n}")
            if list(theta) != sorted(theta, reverse=True):
                raise ValueError(f"{name} must be sorted descending")


@dataclass(frozen=True)
class ThornForms:
    cm1_min: int
    cm1_max: int
    cm2_min: int
    cm2_max: int
    cm3_min: int
    cm3_max: int


def thorn_forms(base: ThornBaseData, m: int) -> ThornForms:
    """The six thorn-graph formulas for uniform pendant count m.

    Each pendant block is colored greedily from the relevant extremal base
    coloring. Every added term scales with m, so m = 0 reproduces the base
    values exactly.
    """
    if m < 0:
        raise ValueError(f"pendant count must be >= 0, got {m}")
    n, ell = base.n, base.ell
    t1, t2, t3 = base.theta1, base.theta2, base.theta3
    cm1_min = base.cm1_min + 4 * m * t1[0] + m * (n - t1[0])
    cm1_max = base.cm1_max + m * (ell - 1) ** 2 * t1[0] + m * ell * ell * (n - t1[0])
    cm2_min = base.cm2_min + 2 * m * t2[0] + m * sum(
        i * t2[i - 1] for i in range(2, ell + 1)
    )
    cm2_max = base.cm2_max + m * ell * (ell - 1) * t2[0] + m * sum(
        ell * (ell + 1 - i) * t2[i - 1] for i in range(2, ell + 1)
    )
    cm3_min = base.cm3_min + m * n
    # farthest-color pendant contribution: a base vertex carrying color i
    # after reversal gains max(ell - i, i - 1) per pendant
    added = sum(max(ell - i, i - 1) * t3[i - 1] for i in range(1, ell + 1))
    cm3_max = base.cm3_max + m * added
    return ThornForms(cm1_min, cm1_max, cm2_min, cm2_max, cm3_min, cm3_max)
