"""Dense builders of the twisted adjacency and the Laplacian, kept as a
reference for tests.

The program (`covertwist.operators`) assembles each operator from the
nonzero entries of the distinct connection matrices.  These builders
visit every entry of every edge's matrix, form x_e·φ_e[i][j] for each
nonzero one and add it to the running entry, and build the Laplacian
as the dense difference D − A^ρ, so they must give the same entries.
"""

from covertwist.domains import QQ
from covertwist.errors import WeightsNotSymmetricError
from covertwist.matrix import Matrix
from covertwist.operators import _operator_domain
from covertwist.representation import trivial_connection

from builders import mat_sub


def twisted_adjacency_dense(g, x, c) -> Matrix:
    """Block matrix whose (v,w) block sums x_e·φ_e over edges v→w."""
    dg = getattr(g, "dg", g)
    dom = _operator_domain(x.domain, c.domain)
    m = c.degree
    n = dg.num_vertices
    data = [[dom.zero] * (n * m) for _ in range(n * m)]
    for e in range(dg.num_edges):
        v, w = dg.src[e], dg.tgt[e]
        xe = dom.coerce(x.values[e])
        phi = c.mats[e]
        for i in range(m):
            row = data[v * m + i]
            for j in range(m):
                entry = phi[i, j]
                if c.domain.is_zero(entry):
                    continue
                row[w * m + j] = dom.add(row[w * m + j],
                                         dom.mul(xe, dom.coerce(entry)))
    return Matrix(dom, data)


def laplacian_dense(g, x, c=None) -> Matrix:
    """D − A^ρ: D holds each out-edge weight, loops included, on its
    source's diagonal block."""
    if not x.is_symmetric(g):
        raise WeightsNotSymmetricError("Laplacian weights must be symmetric")
    if c is None:
        c = trivial_connection(QQ, g.num_edges)
    a = twisted_adjacency_dense(g, x, c)
    dom = a.domain
    m = c.degree
    deg = [[dom.zero] * a.ncols for _ in range(a.nrows)]
    for e in range(g.num_edges):
        xe = dom.coerce(x.values[e])
        for k in range(g.src[e] * m, (g.src[e] + 1) * m):
            deg[k][k] = dom.add(deg[k][k], xe)
    return mat_sub(Matrix(dom, deg), a)
