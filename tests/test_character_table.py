"""The exponent-data character table against the element-level reference,
and the integer checks that guard it."""

import importlib
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from covertwist.covering import perm_compose, perm_inverse
from covertwist.errors import InternalCosetError, NotASubgroupError
from covertwist.representation import abelian_character_table, table_characters

from builders import fiber_group
from character_reference import reference_character_table

# the package exports the function `representation` under the module's name
rep_module = importlib.import_module("covertwist.representation")


@st.composite
def regular_abelian_groups(draw):
    """Generators of the regular action of a subgroup of ⊕ ℤ/m_j on
    itself (1–3 factors, Π m_j ≤ 60), points relabeled at random; the
    zero vector and redundant generators may be drawn."""
    moduli = []
    for _ in range(draw(st.integers(1, 3))):
        moduli.append(draw(st.integers(1, min(15, 60 // prod(moduli)))))
    vectors = draw(st.lists(
        st.tuples(*(st.integers(0, m - 1) for m in moduli)),
        min_size=1, max_size=3))

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    zero = (0,) * len(moduli)
    points = [zero]
    seen = {zero}
    for x in points:
        for v in vectors:
            y = add(v, x)
            if y not in seen:
                seen.add(y)
                points.append(y)
    label = list(range(len(points)))
    random.Random(draw(st.integers(0, 2 ** 32))).shuffle(label)
    index = {x: label[i] for i, x in enumerate(points)}
    gens = []
    for v in vectors:
        g = [0] * len(points)
        for x in points:
            g[index[x]] = index[add(v, x)]
        gens.append(tuple(g))
    return gens, len(points)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(regular_abelian_groups())
def test_table_matches_the_element_reference(group):
    gens, degree = group
    ref = reference_character_table(gens, degree)
    table = abelian_character_table(fiber_group(gens))
    assert table.domain is ref.domain
    assert table.count == len(ref.gen_values) == degree
    on_gens = table_characters(table, table.gens)
    on_elements = table_characters(table, ref.elements)
    assert len(on_gens) == len(on_elements) == degree
    for chi_g, chi_e, gv, ev in zip(on_gens, on_elements, ref.gen_values,
                                    ref.elem_values):
        assert [m[0, 0] for m in chi_g.gen_mats] == list(gv)
        assert [m[0, 0] for m in chi_e.gen_mats] == list(ev.values())
        assert [m[0, 0] for m in chi_e.gen_invs] == \
            [ev[perm_inverse(x)] for x in ref.elements]


# the Z/6 bouquet's voltages (sample_inputs/z6_bouquet.txt): a cyclic
# group on two generators, so one diagonal entry is 1 and one is 6
Z6 = [(1, 2, 3, 4, 5, 0), (2, 3, 4, 5, 0, 1)]
# Z/2 × Z/2, diagonal entries 2 and 2
V4 = [(1, 0, 3, 2), (2, 3, 0, 1)]


def _merge_diagonal(diag, u):
    # the product stays, the group does not: Z/4 in place of Z/2 × Z/2
    return [diag[0] * diag[1], 1] + diag[2:], u


def _double_first_row(diag, u):
    # still kills every relation, but det U = ±2
    return diag, [[2 * a for a in u[0]]] + u[1:]


def _spill_unit_row(diag, u):
    # row j of a factor d_j > 1 plus the row of a factor 1: unimodular,
    # same diagonal, but that row no longer kills every relation
    i = diag.index(1)
    j = next(k for k, d in enumerate(diag) if d > 1)
    u = [list(row) for row in u]
    u[j] = [a + b for a, b in zip(u[j], u[i])]
    return diag, u


@pytest.mark.parametrize("gens, patch, message", [
    (V4, _merge_diagonal, "not a homomorphism"),
    (Z6, _double_first_row, "characters collide"),
    (Z6, _spill_unit_row, "not a homomorphism"),
], ids=["wrong-diag", "non-unimodular", "row-misses-a-relation"])
def test_a_wrong_decomposition_is_refused(monkeypatch, gens, patch, message):
    real = rep_module._diagonalize_relations

    def patched(rows, r):
        return patch(*real(rows, r))

    abelian_character_table(fiber_group(gens))
    monkeypatch.setattr(rep_module, "_diagonalize_relations", patched)
    with pytest.raises(InternalCosetError, match=message):
        abelian_character_table(fiber_group(gens))


def test_a_non_member_is_refused():
    table = abelian_character_table(fiber_group(Z6))
    assert table_characters(table, (perm_compose(Z6[0], Z6[1]),))
    with pytest.raises(NotASubgroupError):
        table_characters(table, ((1, 0, 2, 3, 4, 5),))


def test_an_intransitive_group_is_refused():
    with pytest.raises(ValueError, match="transitively"):
        abelian_character_table(fiber_group([(1, 0, 2)]))
