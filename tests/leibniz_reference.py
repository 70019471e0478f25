"""Determinants by the Leibniz expansion, kept as a reference for tests.

A signed sum over all n! permutations: it shares nothing with the
program's kernels, and its budget keeps it to order 7.
"""

from itertools import permutations

from covertwist.errors import BudgetExceededError, NotSquareError
from covertwist.matrix import Matrix

LEIBNIZ_BUDGET = 7


def det_leibniz(m: Matrix):
    """Determinant by signed permutation expansion; small matrices only."""
    n = m.nrows
    if n != m.ncols:
        raise NotSquareError("leibniz expansion needs a square matrix")
    if n > LEIBNIZ_BUDGET:
        raise BudgetExceededError(
            f"{n}x{n} exceeds the {LEIBNIZ_BUDGET}x{LEIBNIZ_BUDGET} "
            "expansion budget")
    dom = m.domain
    acc = dom.zero
    for perm in permutations(range(n)):
        seen = [False] * n
        sign = 1
        for i in range(n):
            if not seen[i]:
                j = i
                clen = 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    clen += 1
                if clen % 2 == 0:
                    sign = -sign
        term = dom.one
        for i in range(n):
            term = dom.mul(term, m.data[i][perm[i]])
        acc = dom.add(acc, term) if sign > 0 else dom.sub(acc, term)
    return acc
