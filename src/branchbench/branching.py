"""Branching schemes: how a choice point cuts the current domain into sets.

A scheme is a style and a partition, and ``_SCHEMES`` is the one table that
maps each name to both: :attr:`Scheme.binary` tells the style and
:attr:`Scheme.partition` the partition (``none``, ``split``, ``ties`` or
``clust``).  A d-way scheme's plan is *enumerated*: one branch per set, the
variable stays the branching variable until the plan is exhausted.  A 2-way
scheme's plan is *binary*: reduce to the first set, or remove it and
re-select freely, so only the first set is materialized.  A
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
from fractions import Fraction

from .clustering import xmeans
from .heuristics import score_domain
from .model import SearchState, mask_values


# name -> (binary style?, partition), in the order SCHEME_NAMES lists them
_SCHEMES = {
    "dway": (False, "none"),
    "2way": (True, "none"),
    "split": (True, "split"),
    "ties-dway": (False, "ties"),
    "ties-2way": (True, "ties"),
    "clust-dway": (False, "clust"),
    "clust-2way": (True, "clust"),
}
SCHEME_NAMES = tuple(_SCHEMES)


@dataclass(frozen=True)
class Scheme:
    name: str
    threshold_fraction: Fraction = Fraction(1, 4)
    kmax: int = 4
    # True for the 2-way style, False for the d-way (enumerated) one
    binary: bool = field(init=False, compare=False, repr=False)
    partition: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.name not in _SCHEMES:
            raise ValueError(
                f"unknown scheme {self.name!r} (expected one of {', '.join(SCHEME_NAMES)})"
            )
        binary, partition = _SCHEMES[self.name]
        object.__setattr__(self, "binary", binary)
        object.__setattr__(self, "partition", partition)
        tf = Fraction(self.threshold_fraction)
        object.__setattr__(self, "threshold_fraction", tf)
        if not 0 <= tf <= 1:
            raise ValueError("threshold_fraction must be within [0, 1]")
        if self.kmax < 1:
            raise ValueError("kmax must be at least 1")


def parse_scheme(name: str, threshold_fraction=Fraction(1, 4), kmax: int = 4) -> Scheme:
    return Scheme(name, threshold_fraction, kmax)


@dataclass(slots=True)
class BranchPlan:
    """One choice point's sets, best first, as masks over the branching
    variable's original domain; search reads only ``masks``.  Slotted and
    not frozen, since one is built at every choice point and a frozen
    dataclass sets each field through ``object.__setattr__``; nothing
    changes a plan once :func:`plan` returns it."""

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
    partition = scheme.partition
    if partition == "none":
        return None

    # splitting engages only while the domain is still large
    tf = scheme.threshold_fraction
    if state.masks[x].bit_count() * tf.denominator <= tf.numerator * len(state.problem.domains[x]):
        return None

    if partition == "split":
        return [sum(1 << bit for bit, _ in scored[: (len(scored) + 1) // 2])]

    # scored is sorted best first, so equal ends mean one distinct score
    if scored[0][1] == scored[-1][1]:
        return None

    if partition == "ties":
        return _tie_groups(scored)

    clustering = xmeans([_score_as_float(score) for _, score in scored], kmax=scheme.kmax)
    if clustering.k == 1:
        return None
    return [sum(1 << scored[i][0] for i in cluster) for cluster in clustering.clusters]


def plan(scheme: Scheme, state: SearchState, x: int) -> BranchPlan:
    """Build the branch plan for ``x`` under ``scheme`` on the current state."""
    scored = score_domain(state, x)
    masks = _value_sets(scheme, state, x, scored)
    values = state.problem.domains[x]
    # a binary plan keeps only its first set, so build no others
    if scheme.binary:
        return BranchPlan((1 << scored[0][0] if masks is None else masks[0],), values)
    if masks is None:
        masks = [1 << bit for bit, _ in scored]
    return BranchPlan(tuple(masks), values)
