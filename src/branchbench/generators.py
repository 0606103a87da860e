"""Seeded instance generators.

All randomness flows through :class:`branchbench.rng.Rng`, so a family plus
its parameters plus a seed pins the generated problem byte for byte (via
``serialize_instance``).  The order of PRNG draws inside each family is part
of that contract and must not be reordered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .exprs import Call, Const, VarRef
from .model import Constraint, ExtensionalForbidden, Intensional, Problem, Relation
from .rng import Rng


def _binary(
    constraints: list[Constraint], names: list[str], u: int, v: int, relation: Relation
) -> None:
    constraints.append(Constraint(len(constraints), (u, v), (names[u], names[v]), relation))


def _ne(constraints: list[Constraint], names: list[str], u: int, v: int) -> None:
    _binary(constraints, names, u, v, Intensional(Call("ne", (VarRef(names[u]), VarRef(names[v])))))


def gen_pigeons(n: int) -> Problem:
    """n variables over n-1 values, pairwise different.  Unsatisfiable."""
    if n < 2:
        raise ValueError("pigeons needs n >= 2")
    names = [f"x{i}" for i in range(n)]
    domains = [tuple(range(n - 1))] * n
    constraints: list[Constraint] = []
    for i, j in itertools.combinations(range(n), 2):
        _ne(constraints, names, i, j)
    return Problem(tuple(names), tuple(domains), tuple(constraints))


def gen_langford(n: int) -> Problem:
    """Langford pairing L(2,n) over 2n position variables.

    Position variables p{i}_1, p{i}_2 over 0..2n-1 with
    p{i}_2 = p{i}_1 + i + 1 and all positions pairwise different.
    Satisfiable exactly when n mod 4 is 0 or 3.
    """
    if n < 2:
        raise ValueError("langford needs n >= 2")
    names = [f"p{i}_{k}" for i in range(1, n + 1) for k in (1, 2)]
    domains = [tuple(range(2 * n))] * (2 * n)
    constraints: list[Constraint] = []
    for i in range(1, n + 1):
        a, b = 2 * (i - 1), 2 * (i - 1) + 1
        shifted = Call("add", (VarRef(names[a]), Const(i + 1)))
        _binary(constraints, names, a, b, Intensional(Call("eq", (shifted, VarRef(names[b])))))
    for u, v in itertools.combinations(range(2 * n), 2):
        _ne(constraints, names, u, v)
    return Problem(tuple(names), tuple(domains), tuple(constraints))


def _sampled_pairs(rng: Rng, n: int, count: int) -> list[tuple[int, int]]:
    all_pairs = list(itertools.combinations(range(n), 2))
    if not 0 <= count <= len(all_pairs):
        raise ValueError(f"pair count {count} out of range (max {len(all_pairs)})")
    return sorted(rng.sample(all_pairs, count))


def gen_randomb(n: int, d: int, p1_count: int, p2_count: int, seed: int) -> Problem:
    """Model B random binary CSP with exact counts.

    Exactly ``p1_count`` distinct variable pairs are constrained; each gets
    exactly ``p2_count`` distinct forbidden tuples.
    """
    if n < 2 or d < 1:
        raise ValueError("randomb needs n >= 2 and d >= 1")
    if not 0 <= p2_count <= d * d:
        raise ValueError(f"p2_count {p2_count} out of range (max {d * d})")
    rng = Rng(seed)
    names = [f"x{i}" for i in range(n)]
    domains = [tuple(range(d))] * n
    all_tuples = list(itertools.product(range(d), repeat=2))
    constraints: list[Constraint] = []
    for u, v in _sampled_pairs(rng, n, p1_count):
        forbidden = frozenset(rng.sample(all_tuples, p2_count))
        _binary(constraints, names, u, v, ExtensionalForbidden(forbidden))
    return Problem(tuple(names), tuple(domains), tuple(constraints))


def gen_forced(n: int, d: int, p1_count: int, p2_count: int, seed: int) -> Problem:
    """Model B with a planted solution: its tuples are never forbidden."""
    if n < 2 or d < 1:
        raise ValueError("forced needs n >= 2 and d >= 1")
    if not 0 <= p2_count <= d * d - 1:
        raise ValueError(f"p2_count {p2_count} out of range (max {d * d - 1})")
    rng = Rng(seed)
    solution = [rng.below(d) for _ in range(n)]
    names = [f"x{i}" for i in range(n)]
    domains = [tuple(range(d))] * n
    all_tuples = list(itertools.product(range(d), repeat=2))
    constraints: list[Constraint] = []
    for u, v in _sampled_pairs(rng, n, p1_count):
        candidates = [t for t in all_tuples if t != (solution[u], solution[v])]
        forbidden = frozenset(rng.sample(candidates, p2_count))
        _binary(constraints, names, u, v, ExtensionalForbidden(forbidden))
    return Problem(tuple(names), tuple(domains), tuple(constraints))


def gen_qwh(order: int, holes: int, seed: int) -> Problem:
    """Quasigroup with holes: shuffled cyclic Latin square, some cells blanked.

    Every cell is a variable named c{row}_{col}; filled cells keep a singleton
    domain, blanked cells get 0..order-1.  Cells in a common row or column are
    pairwise different.  Always satisfiable.
    """
    if order < 2:
        raise ValueError("qwh needs order >= 2")
    if not 0 <= holes <= order * order:
        raise ValueError(f"holes {holes} out of range (max {order * order})")
    rng = Rng(seed)
    rows = list(range(order))
    cols = list(range(order))
    syms = list(range(order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    square = [[syms[(rows[i] + cols[j]) % order] for j in range(order)] for i in range(order)]
    blanks = set(rng.sample(range(order * order), holes))

    names = [f"c{i}_{j}" for i in range(order) for j in range(order)]
    domains = [
        tuple(range(order)) if i * order + j in blanks else (square[i][j],)
        for i in range(order)
        for j in range(order)
    ]
    constraints: list[Constraint] = []
    for i in range(order):
        for j1, j2 in itertools.combinations(range(order), 2):
            _ne(constraints, names, i * order + j1, i * order + j2)
    for j in range(order):
        for i1, i2 in itertools.combinations(range(order), 2):
            _ne(constraints, names, i1 * order + j, i2 * order + j)
    return Problem(tuple(names), tuple(domains), tuple(constraints))


def gen_coloring(n: int, edge_count: int, k: int, seed: int) -> Problem:
    """k-coloring of a uniform random simple graph with exactly edge_count edges."""
    if n < 1 or k < 1:
        raise ValueError("coloring needs n >= 1 and k >= 1")
    rng = Rng(seed)
    names = [f"x{i}" for i in range(n)]
    domains = [tuple(range(k))] * n
    constraints: list[Constraint] = []
    for u, v in _sampled_pairs(rng, n, edge_count):
        _ne(constraints, names, u, v)
    return Problem(tuple(names), tuple(domains), tuple(constraints))


# each family: its generator, the generator's parameters in call order, and
# the pattern that names an instance from those parameters
_FAMILY_TABLE = {
    "pigeons": (gen_pigeons, ("n",), "pigeons-{n}"),
    "langford": (gen_langford, ("n",), "langford-{n}"),
    "randomb": (gen_randomb, ("n", "d", "p1", "p2", "seed"), "randomb-{n}-{d}-{p1}-{p2}-s{seed}"),
    "forced": (gen_forced, ("n", "d", "p1", "p2", "seed"), "forced-{n}-{d}-{p1}-{p2}-s{seed}"),
    "qwh": (gen_qwh, ("order", "holes", "seed"), "qwh-{order}-{holes}-s{seed}"),
    "coloring": (gen_coloring, ("n", "edges", "k", "seed"), "coloring-{n}-{edges}-{k}-s{seed}"),
}

FAMILIES = tuple(sorted(_FAMILY_TABLE))
# every parameter name some family takes, in first-use order
GEN_PARAMS = tuple(dict.fromkeys(p for _, params, _ in _FAMILY_TABLE.values() for p in params))


@dataclass(frozen=True)
class GenSpec:
    """A family name plus parameters; builds a problem and names it."""

    family: str
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}")
        wanted = _FAMILY_TABLE[self.family][1]
        missing = [p for p in wanted if p not in self.params]
        extra = [p for p in self.params if p not in wanted]
        if missing or extra:
            raise ValueError(
                f"family {self.family!r} takes parameters {list(wanted)}; "
                f"missing {missing}, unexpected {extra}"
            )

    def build(self) -> Problem:
        generate, params, _ = _FAMILY_TABLE[self.family]
        return generate(*(self.params[p] for p in params))

    def name(self) -> str:
        return _FAMILY_TABLE[self.family][2].format(**self.params)

    @classmethod
    def parse(cls, text: str) -> "GenSpec":
        """Parse ``FAMILY key=value ...`` (the manifest inline form)."""
        parts = text.split()
        if not parts:
            raise ValueError("empty generator spec")
        family = parts[0]
        params: dict[str, int] = {}
        for item in parts[1:]:
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ValueError(f"bad parameter {item!r} (expected key=value)")
            if key in params:
                raise ValueError(f"parameter {key!r} given twice")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"parameter {key!r} needs an integer, got {value!r}") from None
        return cls(family, params)
