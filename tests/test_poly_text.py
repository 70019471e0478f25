"""MultiPoly.to_text against the field-by-field reference renderer."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from covertwist.domains import cyclotomic_field, root_of_unity
from covertwist.poly import MAX_EXP, MultiPoly, VarRegistry

from builders import gaussian
from text_reference import to_text_reference

Q5 = cyclotomic_field(5)

small = st.integers(-3, 3)
units = st.sampled_from((1, -1, Fraction(1), Fraction(-1)))
integers = st.one_of(units, st.integers(-10 ** 30, 10 ** 30))
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
gaussians = st.builds(gaussian, small, st.one_of(small, fractions))
zeta5 = st.lists(small, min_size=4, max_size=4).map(
    lambda cs: Q5.coerce(sum(c * root_of_unity(5, k)
                             for k, c in enumerate(cs))))
coefficients = st.one_of(integers, fractions, gaussians, zeta5).filter(bool)

# exponents crowd at the ends: 0, 1 and the field's limit
exponents = st.one_of(st.integers(0, 2), st.integers(0, MAX_EXP),
                      st.just(MAX_EXP))


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 12))
    reg = VarRegistry(tuple(f"x_{i}" for i in range(n)))
    # a few rows of exponents, then keys drawn from them and from
    # their mixtures, so that halves repeat across keys
    pool = draw(st.lists(st.lists(exponents, min_size=n, max_size=n),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, len(pool) - 1),
                                    st.integers(0, n)),
                          max_size=30))
    keys = {reg.pack(pool[a][:cut] + pool[b][cut:]) for a, b, cut in picks}
    if draw(st.booleans()):
        keys.add(0)   # a constant term
    return MultiPoly(reg, {k: draw(coefficients) for k in keys})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(polynomials())
def test_to_text_matches_the_reference(p):
    assert p.to_text() == to_text_reference(p)


def test_zero_and_constants_match_the_reference():
    reg = VarRegistry(("x",))
    for p in (MultiPoly.zero(reg), MultiPoly.const(reg, -1),
              MultiPoly.const(reg, Fraction(7, 1)),
              MultiPoly.const(reg, gaussian(0, 1)),
              MultiPoly.const(VarRegistry(()), 5)):
        assert p.to_text() == to_text_reference(p)
