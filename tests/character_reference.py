"""The element-level character table of an abelian permutation group,
kept as a reference for tests.

The program walks the points of a regular abelian group once, keeps an
exponent vector per point and checks its table in integers.  This
module builds the table the long way: it closes the group element by
element, stores every character's value on every element and checks the
homomorphism property on all pairs and distinctness pairwise, with
cyclotomic arithmetic throughout.  It shares only the relation-lattice
diagonalization with the program.
"""

from dataclasses import dataclass
from math import lcm, prod

from covertwist.covering import Perm, perm_compose, perm_identity
from covertwist.domains import cyclotomic_field, root_of_unity
from covertwist.errors import InternalCosetError, NotAbelianError
from covertwist.representation import _diagonalize_relations


@dataclass(frozen=True)
class ReferenceTable:
    """Every character's values on the generators and on every element."""

    domain: object
    gens: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    gen_values: tuple[tuple[object, ...], ...]
    elem_values: tuple[dict, ...]


def reference_character_table(gens: list[Perm], degree: int) -> ReferenceTable:
    """Characters via a cyclic decomposition of the relation lattice,
    from a breadth-first walk of the group's elements; each map is
    checked to be a homomorphism on the full element set, the maps to be
    pairwise distinct, and their count to equal the group order."""
    for a in gens:
        for b in gens:
            if perm_compose(a, b) != perm_compose(b, a):
                raise NotAbelianError("generators do not commute")
    r = max(1, len(gens))
    glist = list(gens) if gens else [perm_identity(degree)]

    ident = perm_identity(degree)
    vectors: dict[Perm, tuple[int, ...]] = {ident: (0,) * r}
    relations: list[list[int]] = []
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            vx = vectors[x]
            for i, gperm in enumerate(glist):
                y = perm_compose(gperm, x)
                vy = tuple(v + (1 if j == i else 0) for j, v in enumerate(vx))
                if y in vectors:
                    rel = [a - b for a, b in zip(vy, vectors[y])]
                    if any(rel):
                        relations.append(rel)
                else:
                    vectors[y] = vy
                    nxt.append(y)
        frontier = nxt
    elements = tuple(sorted(vectors))
    order = len(elements)

    diag, u = _diagonalize_relations(relations, r)
    if any(d == 0 for d in diag):
        raise NotAbelianError("relation lattice does not have full rank")
    if prod(diag) != order:
        raise InternalCosetError("cyclic decomposition misses the group order")

    domain = cyclotomic_field(lcm(*diag))

    def char_value(t: tuple[int, ...], vec: tuple[int, ...]):
        y = [sum(u[j][i] * vec[i] for i in range(r)) for j in range(r)]
        val = domain.one
        for j, d in enumerate(diag):
            if d == 1:
                continue
            val = domain.mul(val, domain.coerce(root_of_unity(d, t[j] * y[j])))
        return val

    tuples = [()]
    for d in diag:
        tuples = [t + (j,) for t in tuples for j in range(d)]

    gen_values = []
    elem_values = []
    for t in tuples:
        gv = tuple(char_value(t, tuple(1 if j == i else 0 for j in range(r)))
                   for i in range(len(glist)))
        ev = {x: char_value(t, vectors[x]) for x in elements}
        gen_values.append(gv)
        elem_values.append(ev)

    for gv, ev in zip(gen_values, elem_values):
        for i, gperm in enumerate(glist):
            for x in elements:
                lhs = ev[perm_compose(gperm, x)]
                rhs = domain.mul(gv[i], ev[x])
                if not domain.eq(lhs, rhs):
                    raise InternalCosetError("character is not a homomorphism")
    for a in range(len(gen_values)):
        for b in range(a + 1, len(gen_values)):
            if all(domain.eq(x, y) for x, y in
                   zip(elem_values[a].values(), elem_values[b].values())):
                raise InternalCosetError("characters collide")
    if len(gen_values) != order:
        raise InternalCosetError("character count differs from group order")
    return ReferenceTable(domain, tuple(glist), elements,
                          tuple(gen_values), tuple(elem_values))
