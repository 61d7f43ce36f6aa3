"""Finitely generated subgroups of a free group, presented by folded cores.

A subgroup is stored as its core: the folded, trimmed, canonically numbered
based graph whose reduced based loops spell exactly the subgroup's elements.
Construction from generators is bouquet -> fold -> trim -> canonical form,
so equal subgroups always produce identical graphs regardless of how the
generating sets were written down.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import (
    CanonicalForm,
    LabeledGraph,
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
        """Wrap an already folded core; the graph is canonicalized here."""
        return _from_core_form(graph, alphabet, generators)[0]

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


def _from_core_form(
    graph: LabeledGraph, alphabet: Alphabet, generators: Iterable[Word] | None
) -> tuple[Subgroup, CanonicalForm]:
    """:meth:`Subgroup.from_core`, also returning the canonical form whose
    vertex map numbers the wrapped core."""
    if graph.basepoint is None:
        raise ValueError("a subgroup core needs a basepoint")
    if not graph.is_properly_labeled():
        raise ValueError("a subgroup core must be properly labeled")
    # the walk that numbers the canonical form reaches every vertex exactly
    # when the core is connected
    walk = graph._walk_from(graph.basepoint)
    if len(walk[0]) != graph.vertex_count:
        raise ValueError("a subgroup core must be connected")
    if not graph.is_core():
        raise ValueError("a subgroup core may not have non-basepoint valence <= 1 vertices")
    form = graph._canonical_form(*walk, based=True)
    canon = form.graph
    sub = Subgroup(alphabet, (), canon)
    gens = tuple(generators) if generators is not None else tuple(basis(sub))
    for w in gens:
        if w.alphabet != alphabet:
            raise ValueError("generator alphabet mismatch")
        outcome = canon.trace(canon.basepoint, w)
        if not outcome.ok or outcome.vertex != canon.basepoint:
            raise ValueError(f"generator {w} does not trace a based loop in the core")
    sub.generators = gens
    return sub, form


def subgroup_graph(gens: Iterable[Word | str], alphabet: Alphabet | None = None) -> Subgroup:
    """Build the subgroup generated by words (strings are parsed)."""
    parsed: list[Word] = []
    for w in gens:
        if isinstance(w, str):
            if alphabet is None:
                raise ValueError("an alphabet is required to parse string generators")
            w = alphabet.word(w)
        parsed.append(w)
    if alphabet is None:
        if not parsed:
            raise ValueError("an alphabet is required for an empty generator list")
        alphabet = parsed[0].alphabet
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
    """Whether ``w`` lies in ``H``: its trace closes up at the basepoint."""
    if w.alphabet != H.alphabet:
        raise ValueError("word alphabet differs from subgroup alphabet")
    outcome = H.graph.trace(H.graph.basepoint, w)
    return outcome.ok and outcome.vertex == H.graph.basepoint


def _tree_paths(graph: LabeledGraph) -> tuple[dict, set]:
    """BFS spanning tree from the basepoint: letter paths and tree edge ids."""
    bp = graph.basepoint
    path: dict = {bp: ()}
    tree_edges: set = set()
    order = [bp]
    for v in order:  # order grows while it is walked
        for letter, e, w in graph.darts(v):
            if w not in path:
                path[w] = path[v] + (letter,)
                tree_edges.add(e)
                order.append(w)
    return path, tree_edges


def basis(H: Subgroup) -> list[Word]:
    """A free basis from a spanning tree: one word per non-tree edge."""
    graph = H.graph
    path, tree_edges = _tree_paths(graph)
    out: list[Word] = []
    for eid in sorted(e for e, *_ in graph.edges() if e not in tree_edges):
        label, src, dst = graph.edge(eid)
        letters = path[src] + (label + 1,) + tuple(-x for x in reversed(path[dst]))
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

