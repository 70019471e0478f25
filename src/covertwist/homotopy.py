"""Spanning trees and free-group words for loops in a connected graph.

A breadth-first spanning tree makes the non-tree edges free generators
of the loops at the root: generator k is the loop that runs down the
tree, across its edge and back up.  Words are tuples of (generator,
exponent) letters with exponent +1 or -1.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .errors import NotConnectedError
from .graphs import Graph

# A letter is (generator index, +1 | -1); a word is a tuple of letters.
FreeWord = tuple[tuple[int, int], ...]


class SpanningTree:
    """BFS spanning tree rooted at `root`.

    parent_edge[v] is the directed edge from v toward the root (None at
    the root); depth[v] counts tree edges to the root.  tree_edges holds
    the unoriented edge indices used.
    """

    def __init__(self, graph: Graph, root: int,
                 parent_edge: tuple[int | None, ...], depth: tuple[int, ...],
                 tree_edges: frozenset[int]):
        self.graph = graph
        self.root = root
        self.parent_edge = parent_edge
        self.depth = depth
        self.tree_edges = tree_edges


def spanning_tree(g: Graph, root: int = 0,
                  allowed: frozenset[int] | None = None) -> SpanningTree:
    """Breadth-first tree; neighbors are explored in edge-index order, so
    the result is a function of the graph alone.  With `allowed`, only
    those unoriented edges are walked, so a spanning tree's edge set
    gives that tree, rooted at `root`."""
    n = g.num_vertices
    parent: list[int | None] = [None] * n
    depth = [-1] * n
    depth[root] = 0
    q = deque([root])
    tree_unoriented: set[int] = set()
    while q:
        v = q.popleft()
        for e in g.out_edges[v]:
            w = g.tgt[e]
            if depth[w] == -1 and (allowed is None
                                   or g.unoriented_of[e] in allowed):
                depth[w] = depth[v] + 1
                parent[w] = g.inv[e]
                tree_unoriented.add(g.unoriented_of[e])
                q.append(w)
    if any(d == -1 for d in depth):
        raise NotConnectedError("graph is not connected")
    return SpanningTree(g, root, tuple(parent), tuple(depth),
                        frozenset(tree_unoriented))


class Pi1Presentation:
    """Free generators for loops at the tree root.

    Generator k is the k-th non-tree unoriented edge in index order; its
    preferred orientation is the smaller directed index.  rank equals
    E - V + 1 for a connected graph.
    """

    def __init__(self, tree: SpanningTree, generators: tuple[int, ...],
                 gen_edge: tuple[int, ...]):
        self.tree = tree
        self.generators = generators    # unoriented edge indices
        self.gen_edge = gen_edge        # preferred directed edge per generator

    @property
    def graph(self) -> Graph:
        return self.tree.graph

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def gen_of_edge(self) -> dict[int, tuple[int, int]]:
        """Directed non-tree edge to its (generator, exponent) letter."""
        out: dict[int, tuple[int, int]] = {}
        for k, e in enumerate(self.gen_edge):
            out[e] = (k, 1)
            out[self.graph.inv[e]] = (k, -1)
        return out


def presentation_from_tree(tree: SpanningTree) -> Pi1Presentation:
    g = tree.graph
    gens = []
    pref = []
    for u, (e, ebar) in enumerate(g.unoriented):
        if u not in tree.tree_edges:
            gens.append(u)
            pref.append(min(e, ebar))
    return Pi1Presentation(tree, tuple(gens), tuple(pref))


def fundamental_presentation(g: Graph, root: int = 0) -> Pi1Presentation:
    return presentation_from_tree(spanning_tree(g, root))
