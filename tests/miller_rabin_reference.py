"""Deterministic Miller-Rabin, kept as a reference for tests.

The multi-modular charpoly kernel once drew its 61-bit primes from this
test; it now proves its Proth primes by Proth's theorem, and tests
compare the two decisions below 3.3e24, where the thirteen prime
witnesses up to 41 make Miller-Rabin exact (Sorenson and Webster 2015;
the twelve up to 37 suffice only below 3.2e23).
"""

# Witnesses that make Miller-Rabin deterministic below MR_LIMIT > 2^81.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError("deterministic Miller-Rabin needs n < 3.3e24")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
