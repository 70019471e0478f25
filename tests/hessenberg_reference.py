"""The dense Hessenberg charpoly modulo a prime by similarity transforms,
kept as a reference for tests.

The program's kernel (`covertwist.matrix._hessenberg_charpoly`) never
transforms its input: it builds a Hessenberg matrix with unit
subdiagonal from a Krylov basis and runs the recurrence on packed
integers.  This reference reduces the matrix itself to upper Hessenberg
form by elementary similarity transforms, row and column swaps
included, every update over the whole row and column, and keeps each
Hessenberg polynomial as a list of residues.  The two share no step
but the recurrence's formula, and the charpoly modulo p is the same
for similar matrices, so they must return the same residues on every
input.
"""


def hessenberg_charpoly_dense(h: list[list[int]], p: int) -> list[int]:
    """Coefficients, ascending, of det(x*I - h) modulo the prime p; h
    holds residues in [0, p) and is overwritten.  Reduction to upper
    Hessenberg form, then Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9."""
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        prow = h[j + 1][j:]
        elim = []
        for r in range(j + 2, n):
            row = h[r]
            if row[j]:
                u = row[j] * inv % p
                row[j:] = [(x - u * y) % p for x, y in zip(row[j:], prow)]
                elim.append((r, u))
        if elim:
            for row in h:
                row[j + 1] = (row[j + 1]
                              + sum(u * row[r] for r, u in elim)) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        d = h[m - 1][m - 1]
        new = [0] + prev
        for k, c in enumerate(prev):
            new[k] -= d * c
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            f = h[i - 1][m - 1] * t % p
            if f:
                for k, c in enumerate(polys[i - 1]):
                    new[k] -= f * c
        polys.append([c % p for c in new])
    return polys[n]


def nonzero_columns(h: list[list[int]]) -> list[list[tuple[int, int]]]:
    """The kernel's input for the dense residues h: the nonzero entries of
    each column, (row, value) by ascending row."""
    n = len(h)
    return [[(i, h[i][j]) for i in range(n) if h[i][j]] for j in range(n)]
