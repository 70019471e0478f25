"""Spanning trees and free-group words for loops in a connected graph.

A breadth-first spanning tree turns every loop at the root into a
reduced word in the non-tree edges.  Words are tuples of (generator,
exponent) letters with exponent +1 or -1; reduction cancels adjacent
inverse letters only, which is full reduction in a free group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import NotConnectedError
from .graphs import Graph, Path, check_loop, path_concat, path_reverse

# A letter is (generator index, +1 | -1); a word is a tuple of letters.
FreeWord = tuple[tuple[int, int], ...]

EMPTY_WORD: FreeWord = ()


def reduce_word(w: FreeWord) -> FreeWord:
    out: list[tuple[int, int]] = []
    for let in w:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def invert_word(w: FreeWord) -> FreeWord:
    return tuple((g, -s) for (g, s) in reversed(w))


@dataclass(frozen=True)
class SpanningTree:
    """BFS spanning tree rooted at `root`.

    parent_edge[v] is the directed edge from v toward the root (None at
    the root); depth[v] counts tree edges to the root.  tree_edges holds
    the unoriented edge indices used.
    """

    graph: Graph
    root: int
    parent_edge: tuple[int | None, ...]
    depth: tuple[int, ...]
    tree_edges: frozenset[int]

    def path_to_root(self, v: int) -> Path:
        """Tree path from v up to the root."""
        edges = []
        while self.parent_edge[v] is not None:
            e = self.parent_edge[v]
            edges.append(e)
            v = self.graph.tgt[e]
        return Path(v if not edges else self.graph.src[edges[0]], tuple(edges))

    def path_from_root(self, v: int) -> Path:
        return path_reverse(self.graph, self.path_to_root(v))


def spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Breadth-first tree; neighbors are explored in edge-index order, so
    the result is a function of the graph alone."""
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
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                parent[w] = g.inv[e]
                tree_unoriented.add(g.unoriented_of[e])
                q.append(w)
    if any(d == -1 for d in depth):
        raise NotConnectedError("graph is not connected")
    return SpanningTree(g, root, tuple(parent), tuple(depth),
                        frozenset(tree_unoriented))


@dataclass(frozen=True)
class Pi1Presentation:
    """Free generators for loops at the tree root.

    Generator k is the k-th non-tree unoriented edge in index order; its
    preferred orientation is the smaller directed index.  rank equals
    E - V + 1 for a connected graph.
    """

    tree: SpanningTree
    generators: tuple[int, ...]          # unoriented edge indices
    gen_edge: tuple[int, ...]            # preferred directed edge per generator

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

    def loop_to_word(self, loop: Path) -> FreeWord:
        """Reduced word of a loop at the root: drop tree edges, map the
        rest through gen_of_edge, then cancel."""
        check_loop(self.graph, loop)
        if loop.base != self.tree.root:
            raise ValueError(
                f"loop based at {loop.base}, presentation root is {self.tree.root}")
        letters = []
        for e in loop.edges:
            let = self.gen_of_edge.get(e)
            if let is not None:
                letters.append(let)
        return reduce_word(tuple(letters))

    def realize_letter(self, gen: int, sign: int) -> Path:
        e = self.gen_edge[gen] if sign == 1 else self.graph.inv[self.gen_edge[gen]]
        g = self.graph
        down = self.tree.path_from_root(g.src[e])
        up = self.tree.path_to_root(g.tgt[e])
        return path_concat(g, path_concat(g, down, Path(g.src[e], (e,))), up)

    @cached_property
    def letter_loops(self) -> dict[tuple[int, int], Path]:
        """Each letter's loop at the root, as realize_letter builds it."""
        return {(k, s): self.realize_letter(k, s)
                for k in range(self.rank) for s in (1, -1)}

    def realize_word(self, w: FreeWord) -> Path:
        """A loop at the root whose word reduces back to w: the letters'
        loops, each at the root, one after the other."""
        loops = self.letter_loops
        return Path(self.tree.root,
                    tuple(e for let in w for e in loops[let].edges))


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
