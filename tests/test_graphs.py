"""Graph construction, involution bookkeeping and embeddings."""

import pytest

from covertwist.errors import NotAPathError
from covertwist.graphs import (
    DirectedGraph,
    Graph,
    Path,
    RotationSystem,
    build_graph,
    check_loop,
    check_path,
    default_rotation,
    faces,
    is_connected,
    path_concat,
    path_reverse,
    path_target,
    validate_graph,
    validate_rotation,
)

from builders import relabel_vertices


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_build_graph_pairs():
    g = triangle()
    assert g.num_vertices == 3
    assert g.num_edges == 6
    assert g.num_unoriented == 3
    # pair k occupies directed slots 2k and 2k+1
    assert g.src == (0, 1, 1, 2, 2, 0)
    assert g.tgt == (1, 0, 2, 1, 0, 2)
    assert g.inv == (1, 0, 3, 2, 5, 4)


def test_unoriented_maps():
    g = triangle()
    assert g.unoriented == ((0, 1), (2, 3), (4, 5))
    assert g.unoriented_of == (0, 0, 1, 1, 2, 2)


def test_loops_get_two_directed_edges():
    g = build_graph(1, [(0, 0), (0, 0)])
    assert g.num_edges == 4
    assert g.inv == (1, 0, 3, 2)
    assert validate_graph(g).ok


def test_validate_graph_catches_fixed_point():
    g = Graph(DirectedGraph(2, (0, 1), (1, 0)), (0, 1))
    rep = validate_graph(g)
    assert not rep.ok
    assert any("fixes" in p for p in rep.problems)


def test_validate_graph_catches_bad_reversal():
    # involution swaps the two edges but sources do not match targets
    g = Graph(DirectedGraph(3, (0, 2), (1, 0)), (1, 0))
    assert not validate_graph(g).ok


def test_directed_graph_rejects_bad_endpoint():
    with pytest.raises(ValueError):
        DirectedGraph(2, (0, 5), (1, 0))


def test_connectivity():
    assert is_connected(triangle())
    two = build_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two)
    # directed connectivity is strong connectivity
    one_way = DirectedGraph(2, (0,), (1,))
    assert not is_connected(one_way)
    cycle = DirectedGraph(2, (0, 1), (1, 0))
    assert is_connected(cycle)


def test_path_checks():
    g = triangle()
    p = Path(0, (0, 2))
    check_path(g, p)
    assert path_target(g, p) == 2
    with pytest.raises(NotAPathError):
        check_path(g, Path(0, (2,)))
    loop = Path(0, (0, 2, 4))
    check_loop(g, loop)
    rev = path_reverse(g, loop)
    assert rev.base == 0
    assert rev.edges == (5, 3, 1)
    both = path_concat(g, loop, rev)
    assert path_target(g, both) == 0


def test_relabel_vertices():
    g = triangle()
    perm = (2, 0, 1)
    h = relabel_vertices(g, perm)
    assert h.src == tuple(perm[v] for v in g.src)
    assert h.tgt == tuple(perm[v] for v in g.tgt)
    assert h.inv == g.inv
    assert validate_graph(h).ok


def test_default_rotation_and_faces():
    g = triangle()
    rot = default_rotation(g)
    validate_rotation(g, rot)
    fc = faces(g, rot)
    # a cycle embeds in the sphere: V - E + F = 3 - 3 + 2
    assert fc.euler_characteristic == 2
    assert len(fc.walks) == 2
    assert sorted(len(w) for w in fc.walks) == [3, 3]


def test_faces_bouquet_torus():
    g = build_graph(1, [(0, 0), (0, 0)])
    rot = RotationSystem(((0, 2, 1, 3),))
    validate_rotation(g, rot)
    assert faces(g, rot).euler_characteristic == 0


def test_face_of_edge_partition():
    g = triangle()
    fc = faces(g, default_rotation(g))
    for e in range(g.num_edges):
        f = fc.face_of_edge[e]
        assert e in fc.walks[f]
