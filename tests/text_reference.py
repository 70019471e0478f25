"""The polynomial renderer that walks each key field by field, kept as a
reference for tests.

The program's renderer (`covertwist.poly.MultiPoly.to_text`) splits each
key into a high and a low half and reads a half's fields only the first
time that half occurs in a call.  This reference reads every key from
its top bit down, one nonzero exponent field at a time, with each
field's text built once per call.  The two must return the same bytes
on every polynomial.
"""

from covertwist.domains import Cyclotomic
from covertwist.poly import VAR_BITS, MultiPoly


def to_text_reference(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending, e.g. 3*x_0^2*x_1 - 2*lambda."""
    terms = p.terms
    if not terms:
        return "0"
    names = p.reg.names[::-1]   # by field, lowest first
    low = (1 << p.reg._deg_shift) - 1
    factor = {}   # one variable's field, in place -> its text
    parts = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        rest = key & low
        factors = []
        while rest:
            sh = (rest.bit_length() - 1) // VAR_BITS * VAR_BITS
            field = rest >> sh << sh
            rest ^= field
            text = factor.get(field)
            if text is None:
                e = field >> sh
                name = names[sh // VAR_BITS]
                text = factor[field] = name if e == 1 else f"{name}^{e}"
            factors.append(text)
        mono = "*".join(factors)
        if isinstance(c, Cyclotomic):   # nonreal or irrational
            parts.append(f" + ({c})*{mono}" if mono else f" + ({c})")
            continue
        neg = c < 0
        ms = str(-c if neg else c)   # a Fraction n/1 prints as n
        if not mono:
            body = ms
        elif ms == "1":
            body = mono
        else:
            body = f"{ms}*{mono}"
        parts.append(f" - {body}" if neg else f" + {body}")
    first = parts[0]
    parts[0] = f"-{first[3:]}" if first[1] == "-" else first[3:]
    return "".join(parts)
