"""Taxonomies of named concepts.

A `Taxonomy` holds the equivalence groups of a subsumption preorder in a
transitively reduced DAG. `build_taxonomy` is the one builder behind the
inferred tree (`reasoner.classify`) and the asserted tree
(`analysis.asserted_taxonomy`): it closes each name's known subsumers, as
int bitsets over a name index, tests only the pairs they leave undecided,
and reduces the closed sets to the DAG, with no search per name.
`close_subsumers` is its first half, which `reasoner.realize` also runs,
over the names an individual can have.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .model import Iri


@dataclass(frozen=True)
class Taxonomy:
    """Equivalence groups of named concepts in a transitively reduced DAG.

    Group 0 is the top group (names equivalent to ⊤, possibly none), group 1
    the bottom group (unsatisfiable names); the rest are sorted by their
    first member. Edges run child -> parent.
    """

    groups: tuple[tuple[Iri, ...], ...]
    edges: tuple[tuple[int, int], ...]

    TOP = 0
    BOTTOM = 1

    @cached_property
    def _group_index(self) -> dict[Iri, int]:
        return {iri: idx for idx, members in enumerate(self.groups) for iri in members}

    def _adjacent(self, end: int) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {i: [] for i in range(len(self.groups))}
        for edge in self.edges:
            out[edge[end]].append(edge[1 - end])
        return {k: tuple(sorted(v)) for k, v in out.items()}

    _parents = cached_property(lambda self: self._adjacent(0))
    _children = cached_property(lambda self: self._adjacent(1))

    def concepts(self) -> tuple[Iri, ...]:
        return tuple(sorted(self._group_index))

    def group_of(self, iri: Iri) -> int:
        return self._group_index[iri]

    def members(self, group: int) -> tuple[Iri, ...]:
        return self.groups[group]

    def parents_of(self, group: int) -> tuple[int, ...]:
        return self._parents.get(group, ())

    def children_of(self, group: int) -> tuple[int, ...]:
        return self._children.get(group, ())

    def equivalents_of(self, iri: Iri) -> tuple[Iri, ...]:
        return self.groups[self.group_of(iri)]

    def _named(self, groups: Iterable[int]) -> tuple[Iri, ...]:
        return tuple(sorted({m for g in groups for m in self.groups[g]}))

    def parent_concepts_of(self, iri: Iri) -> tuple[Iri, ...]:
        """Named members of the direct parent groups."""
        return self._named(self.parents_of(self.group_of(iri)))

    def named_links(self) -> frozenset[tuple[Iri, Iri]]:
        """Direct (child concept, parent concept) pairs, expanded over group
        members; links to the pseudo top/bottom are represented only through
        named members of those groups."""
        return frozenset(pair for child, parent in self.edges
                         for pair in itertools.product(self.groups[child], self.groups[parent]))

    @staticmethod
    def _reach(start: int, direction: Mapping[int, Iterable[int]]) -> set[int]:
        """Nodes reachable from `start` (itself excluded) along `direction`."""
        seen: set[int] = set()
        stack = [start]
        while stack:
            g = stack.pop()
            for nxt in direction.get(g, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def ancestors_of(self, iri: Iri) -> tuple[Iri, ...]:
        """Named concepts strictly above, transitively (equivalents excluded)."""
        return self._named(self._reach(self.group_of(iri), self._parents))

    def descendants_of(self, iri: Iri) -> tuple[Iri, ...]:
        return self._named(self._reach(self.group_of(iri), self._children))

    def closure_pairs(self) -> frozenset[tuple[Iri, Iri]]:
        """(c, d) for every strict-or-equivalent named pair with c ⊑ d."""
        pairs: set[tuple[Iri, Iri]] = set()
        for group, members in enumerate(self.groups):
            above = [m for g in self._reach(group, self._parents) for m in self.groups[g]]
            pairs.update(itertools.permutations(members, 2))
            pairs.update(itertools.product(members, above))
        return frozenset(pairs)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(masks: list[int]) -> None:
    """Close the masks transitively, in place: each takes in the masks of
    the indices it has, until none changes."""
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(masks):
            masks[i] = reduce(or_, map(masks.__getitem__, _bits(mask)), mask)
            changed = changed or masks[i] != mask


def close_subsumers(
    names: Sequence[Iri],
    known: Sequence[int],
    possible: Sequence[int] = (),
    test: Optional[Callable[[Iri, Iri], bool]] = None,
) -> list[int]:
    """Each name's subsumers among `names`, as closed int bitsets over their
    index, from a preorder given in part.

    Bit d of `known[c]` says that names[c] ⊑ names[d], and each name has
    its own bit; bit d of `possible[c]` that only `test(names[c], names[d])`
    can tell; every other pair is refuted. As in Glimm, Horrocks, Motik,
    Shearer & Stoilos (2012), it keeps each name's known and possible
    subsumers and tests only what it cannot read off them. It closes the
    known masks transitively, then resolves each possible pair (c, d) not
    known by then, c from the most known subsumers down and d ancestors
    first. A pair is refuted without a test when a known subsumer of d is
    refuted for c, or d is refuted for a known subsumee of c; otherwise the
    test decides, and a yes gives c all of d's known subsumers. No pair is
    tested twice. Every pair is then known or refuted, so the masks are
    closed."""
    known = list(known)
    _close(known)
    refuted = [~(k | p) for k, p in zip(known, possible)]
    outside: dict[int, int] = {}  # d -> the names known to be outside d
    for c in sorted(range(len(possible)), key=lambda c: -known[c].bit_count()):
        for d in sorted(_bits(possible[c] & ~known[c]), key=lambda d: known[d].bit_count()):
            if known[c] >> d & 1:
                continue
            if d not in outside:
                outside[d] = reduce(or_, (known[f] for f, row in enumerate(refuted)
                                          if row >> d & 1), 0)
            if known[d] & refuted[c] or outside[d] >> c & 1 or not test(names[c], names[d]):
                refuted[c] |= 1 << d
                outside[d] |= known[c]
            else:
                known[c] |= known[d]
    return known


def build_taxonomy(
    names: Sequence[Iri],
    known: Sequence[int],
    possible: Sequence[int] = (),
    test: Optional[Callable[[Iri, Iri], bool]] = None,
    top_names: Iterable[Iri] = (),
    bottom_names: Iterable[Iri] = (),
) -> Taxonomy:
    """The reduced DAG of equivalence groups of a subsumption preorder over
    named concepts; the one builder of the inferred and the asserted trees.

    The preorder comes as `close_subsumers` takes it, over the index of
    `names`, which leaves out `top_names` and `bottom_names` (the ⊤ and ⊥
    groups). The closed masks reduce to the DAG: names with equal masks
    are one group, and a group's parents are its minimal strict
    subsumers, or ⊤."""
    known = close_subsumers(names, known, possible, test)

    order = sorted(range(len(names)), key=names.__getitem__)
    group_of: dict[int, int] = {}  # a group's mask -> the group
    for i in order:
        group_of.setdefault(known[i], len(group_of) + 2)
    members: list[list[Iri]] = [[] for _ in group_of]
    strict = {mask: mask for mask in group_of}  # a group's mask -> its strict subsumers
    for i in order:
        members[group_of[known[i]] - 2].append(names[i])
        strict[known[i]] &= ~(1 << i)
    edges = set() if group_of else {(Taxonomy.BOTTOM, Taxonomy.TOP)}
    for mask, group in group_of.items():
        above = strict[mask] & ~reduce(or_, (strict[known[j]] for j in _bits(strict[mask])), 0)
        edges |= {(group, group_of[known[j]]) for j in _bits(above)} or {(group, Taxonomy.TOP)}
    parents = {parent for _, parent in edges}
    edges |= {(Taxonomy.BOTTOM, group) for group in group_of.values() if group not in parents}
    return Taxonomy(groups=(tuple(sorted(top_names)),
                            tuple(sorted(bottom_names)),
                            *map(tuple, members)),
                    edges=tuple(sorted(edges)))
