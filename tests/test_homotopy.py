"""Spanning trees, free group words and loop group presentations."""

import random

import pytest

from covertwist.errors import NotALoopError
from covertwist.graphs import Path, build_graph, path_target
from covertwist.homotopy import (
    fundamental_presentation,
    invert_word,
    presentation_from_tree,
    reduce_word,
    spanning_tree,
)

from builders import concat_words, word_to_text


def test_reduce_word_cancels():
    w = ((0, 1), (1, 1), (1, -1), (0, -1))
    assert reduce_word(w) == ()
    assert reduce_word(((0, 1), (0, 1))) == ((0, 1), (0, 1))


def test_invert_word():
    w = ((0, 1), (1, -1))
    assert invert_word(w) == ((1, 1), (0, -1))
    assert reduce_word(concat_words(w, invert_word(w))) == ()


def test_word_to_text():
    assert word_to_text(()) == "1"
    assert word_to_text(((0, 1), (1, -1))) == "g0*g1^-1"


def test_spanning_tree_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    t = spanning_tree(g, 0)
    assert len(t.tree_edges) == 2
    for v in range(3):
        p = t.path_from_root(v)
        assert p.base == 0
        assert path_target(g, p) == v


def test_presentation_rank():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    pres = fundamental_presentation(g, 0)
    assert pres.rank == 6 - 4 + 1


def test_loop_word_realize_round_trip():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    pres = fundamental_presentation(g, 0)
    rng = random.Random(11)
    for _ in range(20):
        w = tuple((rng.randrange(pres.rank), rng.choice((1, -1)))
                  for _ in range(rng.randrange(6)))
        loop = pres.realize_word(w)
        assert loop.base == 0
        assert path_target(g, loop) == 0
        # the non-tree edges traversed recover the reduced word
        back = pres.loop_to_word(loop)
        assert back == reduce_word(w)


def test_loop_to_word_rejects_open_path():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    pres = fundamental_presentation(g, 0)
    with pytest.raises(NotALoopError):
        pres.loop_to_word(Path(0, (0,)))


def test_presentation_from_tree_matches():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    t = spanning_tree(g, 0)
    pres = presentation_from_tree(t)
    assert pres.rank == 1
    loop = pres.realize_word(((0, 1),))
    assert path_target(g, loop) == 0
    assert pres.loop_to_word(loop) == ((0, 1),)
