"""The trace side of the log-derivative check with one matrix product per
length, kept as a reference for tests.

`covertwist.zeta.amitsur_check` forms only B, ..., B^h with
h = ceil(L/2) and reads the longer traces off pairs of those powers.
This is the plain loop: B^k = B^(k-1) * B for every k up to L, and
tr(B^k) summed off its diagonal.  Both sides are exact, so they must
give the same series.
"""

from fractions import Fraction

from covertwist.operators import line_digraph, pullback_connection, twisted_adjacency
from covertwist.poly import MultiPoly
from covertwist.representation import connection_from_rep
from covertwist.zeta import _series_domain


def amitsur_lhs_reference(g, x, rho, pres, max_length, series_var="u"):
    """sum_{k <= max_length} tr(B^k) * u^k / k over the weights' domain
    with u adjoined, B the twisted non-backtracking edge operator."""
    conn = connection_from_rep(pres, rho)
    ld = line_digraph(g, x)
    b = twisted_adjacency(ld.digraph, ld.weights, pullback_connection(ld, conn))
    pd = _series_domain(b.domain, series_var)
    u = MultiPoly.variable(pd.reg, series_var)
    lhs = pd.zero
    power = b
    for k in range(1, max_length + 1):
        if k > 1:
            power = power * b
        lhs = lhs + pd.coerce(power.trace() * Fraction(1, k)) * u ** k
    return lhs
