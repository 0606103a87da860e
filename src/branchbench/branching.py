"""Branching schemes: how a choice point cuts the current domain into sets.

The style is the scheme's, fixed by its kind, and :attr:`Scheme.binary` is
the one place that tells it.  A d-way scheme's plan is *enumerated*: one
branch per set, the variable stays the branching variable until the plan is
exhausted.  A 2-way scheme's plan is *binary*: reduce to the first set, or
remove it and re-select freely, so only the first set is materialized.  A
:class:`BranchPlan` holds only its sets: each a bitmask over the positions of
the variable's original domain, like the current domain it is cut from;
:attr:`BranchPlan.sets` is the read-only view of the same sets as values.

Schemes differ only in the sets they cut, best first, and in their style.
The plain schemes (d-way, 2-way) cut none.  The splitting schemes (domain
split, ties, clustering) cut none unless the current domain is still large
relative to the original one: strictly more than ``threshold_fraction`` times
the original size.  The set schemes (ties, clustering) also cut none when
every value has the same score, which is decided before any partition is
built: one distinct score is one tie group, and x-means over equal scores
always returns one cluster.  Past that check, clustering cuts none only when
x-means returns a single cluster; all-singleton tie groups need no test.
Wherever a scheme cuts no sets, :func:`plan` branches on single values, best
score first, in the scheme's style, so the plan equals the plain scheme's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .clustering import xmeans
from .heuristics import score_domain
from .model import SearchState, mask_values


class SchemeKind(Enum):
    DWAY = "dway"
    TWO_WAY = "2way"
    DOMAIN_SPLIT = "split"
    TIES_DWAY = "ties-dway"
    TIES_TWO_WAY = "ties-2way"
    CLUST_DWAY = "clust-dway"
    CLUST_TWO_WAY = "clust-2way"


SCHEME_NAMES = tuple(kind.value for kind in SchemeKind)

_BINARY = frozenset(
    (SchemeKind.TWO_WAY, SchemeKind.DOMAIN_SPLIT, SchemeKind.TIES_TWO_WAY, SchemeKind.CLUST_TWO_WAY)
)


@dataclass(frozen=True)
class Scheme:
    kind: SchemeKind
    threshold_fraction: Fraction = Fraction(1, 4)
    kmax: int = 4

    def __post_init__(self) -> None:
        tf = Fraction(self.threshold_fraction)
        object.__setattr__(self, "threshold_fraction", tf)
        if not 0 <= tf <= 1:
            raise ValueError("threshold_fraction must be within [0, 1]")
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")

    @property
    def binary(self) -> bool:
        """True for the 2-way style, False for the d-way (enumerated) one."""
        return self.kind in _BINARY


def parse_scheme(name: str, threshold_fraction=Fraction(1, 4), kmax: int = 4) -> Scheme:
    try:
        kind = SchemeKind(name)
    except ValueError:
        raise ValueError(
            f"unknown scheme {name!r} (expected one of {', '.join(SCHEME_NAMES)})"
        ) from None
    return Scheme(kind, Fraction(threshold_fraction), kmax)


@dataclass(frozen=True)
class BranchPlan:
    masks: tuple[int, ...]
    # the branching variable's original domain, which ``sets`` reads the masks in
    values: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Each mask's values, ascending."""
        return tuple(mask_values(self.values, m) for m in self.masks)


# (bit, score) pairs, best first, as score_domain gives them; the bits are
# distinct, so a sum of their 1 << bit is their union
Scored = list[tuple[int, int]]


def _tie_groups(scored: Scored) -> list[int]:
    groups: list[int] = []
    last_score = None
    for bit, score in scored:
        if not groups or score != last_score:
            groups.append(1 << bit)
            last_score = score
        else:
            groups[-1] |= 1 << bit
    return groups


def _score_as_float(score: int) -> float:
    try:
        return float(score)
    except OverflowError:
        return sys.float_info.max if score > 0 else -sys.float_info.max


def _value_sets(scheme: Scheme, state: SearchState, x: int, scored: Scored) -> list[int] | None:
    """``scheme``'s sets for ``x`` as masks, best first; ``None`` for single values."""
    kind = scheme.kind
    if kind in (SchemeKind.DWAY, SchemeKind.TWO_WAY):
        return None

    # splitting engages only while the domain is still large
    tf = scheme.threshold_fraction
    if state.sizes[x] * tf.denominator <= tf.numerator * len(state.tables.values[x]):
        return None

    if kind is SchemeKind.DOMAIN_SPLIT:
        return [sum(1 << bit for bit, _ in scored[: (len(scored) + 1) // 2])]

    # scored is sorted best first, so equal ends mean one distinct score
    if scored[0][1] == scored[-1][1]:
        return None

    if kind in (SchemeKind.TIES_DWAY, SchemeKind.TIES_TWO_WAY):
        return _tie_groups(scored)

    clustering = xmeans([_score_as_float(score) for _, score in scored], kmax=scheme.kmax)
    if clustering.k == 1:
        return None
    return [sum(1 << scored[i][0] for i in cluster) for cluster in clustering.clusters]


def plan(scheme: Scheme, state: SearchState, x: int) -> BranchPlan:
    """Build the branch plan for ``x`` under ``scheme`` on the current state."""
    scored = score_domain(state, x)
    masks = _value_sets(scheme, state, x, scored)
    values = state.tables.values[x]
    # a binary plan keeps only its first set, so build no others
    if scheme.binary:
        return BranchPlan((1 << scored[0][0] if masks is None else masks[0],), values)
    if masks is None:
        masks = [1 << bit for bit, _ in scored]
    return BranchPlan(tuple(masks), values)
