"""Seeded instance generators for the randomized suites.

Everything draws from a caller-supplied random.Random, so a fixed seed
reproduces the exact instance stream.  Graphs come out connected with
loops and parallel edges allowed; voltages come out transitive so the
covers are connected; matrices come out invertible by construction.
"""

from __future__ import annotations

import random

from .covering import (
    CosetData,
    VoltageAssignment,
    build_cover,
    coset_data,
)
from .domains import QQ
from .errors import charge
from .graphs import Graph, build_graph
from .homotopy import fundamental_presentation
from .matrix import Matrix, inverse
from .operators import EdgeWeights, symbolic_weights
from .representation import Representation


def random_connected_graph(rng: random.Random, max_vertices: int = 6,
                           max_edges: int = 10, min_vertices: int = 1,
                           min_extra: int = 0) -> Graph:
    """Connected multigraph: a random attachment tree plus extra edges
    drawn uniformly over ordered pairs (loops included)."""
    nv = rng.randint(min_vertices, max_vertices)
    pairs = [(rng.randrange(v), v) for v in range(1, nv)]
    room = max_edges - len(pairs)
    if room < min_extra:
        raise ValueError("edge budget cannot honor the rank floor")
    extra = rng.randint(min_extra, room)
    for _ in range(extra):
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    return build_graph(nv, pairs)


def random_voltage(rng: random.Random, rank: int,
                   degree: int) -> VoltageAssignment:
    """Transitive voltage assignment; falls back to forcing the first
    generator into a full cycle when rejection sampling runs dry.  Each
    draw is charged to the work meter, 8 units a word of its rank
    permutations, before it lists a sheet."""
    if degree == 1:
        return VoltageAssignment(1, ((0,),) * rank)
    if rank == 0:
        raise ValueError("a tree base only carries the trivial cover")

    def draw() -> tuple[tuple[int, ...], ...]:
        charge(8 * rank * degree, "random_voltage")
        perms = []
        for _ in range(rank):
            p = list(range(degree))
            rng.shuffle(p)
            perms.append(tuple(p))
        return tuple(perms)

    for _ in range(200):
        va = VoltageAssignment(degree, draw())
        if va.is_transitive():
            return va
    cycle = tuple((i + 1) % degree for i in range(degree))
    va = VoltageAssignment(degree, (cycle,) + draw()[1:])
    assert va.is_transitive()
    return va


def random_invertible_matrix(rng: random.Random, n: int) -> Matrix:
    """P·L·U with unit-triangular factors and integer entries in -2..2."""
    perm = list(range(n))
    rng.shuffle(perm)
    data: list = [None] * n
    lo = [[rng.randint(-2, 2) if j < i else (1 if i == j else 0)
           for j in range(n)] for i in range(n)]
    up = [[rng.randint(-2, 2) if j > i
           else (rng.choice((-1, 1)) if i == j else 0)
           for j in range(n)] for i in range(n)]
    for i in range(n):
        data[perm[i]] = [sum(lo[i][k] * up[k][j] for k in range(n))
                         for j in range(n)]
    return Matrix(QQ, data)


def random_representation(rng: random.Random, rank: int,
                          degree: int) -> Representation:
    """rank random invertible generators of the given degree; at rank 0
    the representation still has that degree."""
    mats = tuple(random_invertible_matrix(rng, degree) for _ in range(rank))
    return Representation(QQ, degree, mats, tuple(inverse(m) for m in mats))


class CoverInstance:
    """One sampled verification problem: a connected cover as its coset
    data, a representation and symbolic weights on the base."""

    def __init__(self, coset: CosetData, rho: Representation,
                 weights: EdgeWeights):
        self.coset = coset
        self.rho = rho
        self.weights = weights


def random_cover_instance(rng: random.Random, max_vertices: int = 6,
                          max_edges: int = 10, max_degree: int = 4,
                          max_rep_degree: int = 2,
                          cover_vertex_cap: int | None = None,
                          max_rank: int | None = None) -> CoverInstance:
    degree = rng.randint(1, max_degree)
    while True:
        g = random_connected_graph(rng, max_vertices, max_edges,
                                   min_extra=1 if degree > 1 else 0)
        if cover_vertex_cap is not None and g.num_vertices * degree > cover_vertex_cap:
            continue
        rank = g.num_unoriented - g.num_vertices + 1
        if max_rank is not None and rank > max_rank:
            continue
        break
    pres = fundamental_presentation(g, 0)
    volt = random_voltage(rng, pres.rank, degree)
    p = build_cover(pres, volt)
    cd = coset_data(p)
    rho = random_representation(rng, cd.cover_pres.rank,
                                rng.randint(1, max_rep_degree))
    return CoverInstance(cd, rho, symbolic_weights(g))
