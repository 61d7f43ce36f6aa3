"""Finitely generated subgroups of a free group, presented by folded cores.

A subgroup is stored as its core: the folded, trimmed, canonically numbered
based graph whose reduced based loops spell exactly the subgroup's elements.
Construction from generators is bouquet -> fold -> trim -> canonical form,
so equal subgroups always produce identical graphs regardless of how the
generating sets were written down.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import (
    LabeledGraph,
    _collector_paused,
    bouquet_of,
    fold_to_immersion,
    trim_to_core,
)
from .words import Alphabet, Word, square_commutator_embed


class TrivialIntersectionError(ValueError):
    """The operation needs the two subgroups to intersect nontrivially."""


class Subgroup:
    """An f.g. subgroup with its canonical core graph."""

    __slots__ = ("alphabet", "generators", "graph", "rank")

    def __init__(self, alphabet: Alphabet, generators: tuple[Word, ...], graph: LabeledGraph):
        self.alphabet = alphabet
        self.generators = generators
        self.graph = graph
        self.rank = graph.edge_count - graph.vertex_count + 1

    @classmethod
    def from_core(
        cls,
        graph: LabeledGraph,
        alphabet: Alphabet,
        generators: Iterable[Word] | None = None,
    ) -> "Subgroup":
        """Wrap an already folded core; the graph is canonicalized here.

        Raises ``ValueError`` where :meth:`LabeledGraph.canonical` does, on a
        vertex other than the basepoint of valence <= 1, and on a generator
        that does not trace a based loop in the core.
        """
        core = graph.canonical().graph
        if not core.is_core():
            raise ValueError("a subgroup core may not have non-basepoint valence <= 1 vertices")
        sub = cls(alphabet, (), core)
        gens = tuple(generators) if generators is not None else tuple(basis(sub))
        for w in gens:
            if w.alphabet != alphabet:
                raise ValueError("generator alphabet mismatch")
            if not membership(sub, w):
                raise ValueError(f"generator {w} does not trace a based loop in the core")
        sub.generators = gens
        return sub

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0

    def basis(self) -> list[Word]:
        return basis(self)

    def conj(self, g: Word) -> "Subgroup":
        """The conjugate subgroup g * self * g^-1."""
        return subgroup_graph([x.conj(g) for x in self.generators], self.alphabet)

    def spec_dict(self) -> dict:
        """JSON-friendly form: alphabet rank plus generator words."""
        return {
            "alphabet_rank": self.alphabet.rank,
            "generators": [str(w) for w in self.generators],
        }

    def __eq__(self, other: object) -> bool:
        """Equality as subgroups: identical canonical cores."""
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.alphabet == other.alphabet and self.graph == other.graph

    def __hash__(self) -> int:
        return hash((self.alphabet, self.graph))

    def __repr__(self) -> str:
        gens = ", ".join(str(w) for w in self.generators)
        return f"Subgroup(<{gens}>, rank={self.rank})"


@_collector_paused
def subgroup_graph(gens: Iterable[Word | str], alphabet: Alphabet) -> Subgroup:
    """Build the subgroup of ``alphabet`` generated by words (strings are parsed)."""
    parsed = [alphabet.word(w) if isinstance(w, str) else w for w in gens]
    folded = fold_to_immersion(bouquet_of(parsed, alphabet)).graph
    core = trim_to_core(folded)
    kept = tuple(w for w in parsed if not w.is_identity)
    return Subgroup.from_core(core, alphabet, generators=kept)


def subgroup_from_spec(data: dict) -> Subgroup:
    """Inverse of :meth:`Subgroup.spec_dict`: rebuild from the JSON form."""
    for key in data:
        if key not in ("alphabet_rank", "generators"):
            raise ValueError(f"unknown spec key {key!r} (expected alphabet_rank, generators)")
    rank = data.get("alphabet_rank", 2)
    gens = data.get("generators")
    # JSON true/false load as bool, a subclass of int
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError("alphabet_rank must be a positive integer")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ValueError("generators must be a list of word strings")
    return subgroup_graph(gens, Alphabet(rank))


def membership(H: Subgroup, w: Word) -> bool:
    """Whether ``w`` lies in ``H``: its trace ends at the basepoint (a failed
    trace ends at no vertex)."""
    if w.alphabet != H.alphabet:
        raise ValueError("word alphabet differs from subgroup alphabet")
    return H.graph.trace(H.graph.basepoint, w).vertex == H.graph.basepoint


def _spanning_tree(graph: LabeledGraph, start: int) -> tuple[list, list, list, list]:
    """BFS spanning tree from ``start``, in dart order: the vertices reached
    in walk order, each vertex's parent (-1 at ``start`` and where
    unreached), the signed letter each vertex is entered by, and which edges
    are tree edges.  Paths are rebuilt from the parents by :func:`_tree_path`
    only where they are read, so the tree takes memory linear in the graph."""
    n = graph.vertex_count
    parent, letter_in = [-1] * n, [0] * n
    tree_edge = [False] * graph.edge_count
    reached = [False] * n
    reached[start] = True
    order = [start]
    for v in order:  # order grows while it is walked
        for letter, e, w in graph.darts(v):
            if not reached[w]:
                reached[w] = True
                parent[w], letter_in[w] = v, letter
                tree_edge[e] = True
                order.append(w)
    return order, parent, letter_in, tree_edge


def _tree_path(parent: list, letter_in: list, v: int) -> list:
    """The letters along the tree path from the root to ``v``."""
    letters = []
    while parent[v] >= 0:
        letters.append(letter_in[v])
        v = parent[v]
    letters.reverse()
    return letters


def basis(H: Subgroup) -> list[Word]:
    """A free basis from a spanning tree: one word per non-tree edge."""
    graph = H.graph
    _, parent, letter_in, tree_edge = _spanning_tree(graph, graph.basepoint)
    out: list[Word] = []
    for e, label, src, dst in graph.edges():
        if not tree_edge[e]:
            back = [-x for x in reversed(_tree_path(parent, letter_in, dst))]
            letters = _tree_path(parent, letter_in, src) + [label + 1] + back
            out.append(Word(H.alphabet, letters))
    return out


def three_regularize(H: Subgroup) -> Subgroup:
    """Re-embed so every branch vertex of the core is 3-valent, of one type.

    Applies a -> a^2, b -> a b a^-1 b^-1 to every generator; the rank is
    preserved and the resulting core has no single-edge loops.
    """
    if H.alphabet.rank != 2:
        raise ValueError("three_regularize is defined for rank-2 alphabets")
    return subgroup_graph(
        [square_commutator_embed(w) for w in H.generators], H.alphabet
    )

