"""Taxonomies of named concepts.

A `Taxonomy` holds the equivalence groups of a subsumption preorder in a
transitively reduced DAG. `build_taxonomy` is the one builder behind the
inferred tree (`reasoner.classify`) and the asserted tree
(`analysis.asserted_taxonomy`); `most_specific` is the search it runs,
which `reasoner.realize` also runs over a finished taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

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

    @cached_property
    def _parents(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {i: [] for i in range(len(self.groups))}
        for child, parent in self.edges:
            out[child].append(parent)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {i: [] for i in range(len(self.groups))}
        for child, parent in self.edges:
            out[parent].append(child)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def concepts(self) -> tuple[Iri, ...]:
        return tuple(sorted(self._group_index, key=lambda iri: iri.value))

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

    def parent_concepts_of(self, iri: Iri) -> tuple[Iri, ...]:
        """Named members of the direct parent groups."""
        out: list[Iri] = []
        for parent in self.parents_of(self.group_of(iri)):
            out.extend(self.groups[parent])
        return tuple(sorted(set(out), key=lambda i: i.value))

    def named_links(self) -> frozenset[tuple[Iri, Iri]]:
        """Direct (child concept, parent concept) pairs, expanded over group
        members; links to the pseudo top/bottom are represented only through
        named members of those groups."""
        pairs: set[tuple[Iri, Iri]] = set()
        for child, parent in self.edges:
            for c in self.groups[child]:
                for p in self.groups[parent]:
                    pairs.add((c, p))
        return frozenset(pairs)

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
        groups = self._reach(self.group_of(iri), self._parents)
        out = [m for g in groups for m in self.groups[g]]
        return tuple(sorted(set(out), key=lambda i: i.value))

    def descendants_of(self, iri: Iri) -> tuple[Iri, ...]:
        groups = self._reach(self.group_of(iri), self._children)
        out = [m for g in groups for m in self.groups[g]]
        return tuple(sorted(set(out), key=lambda i: i.value))

    def closure_pairs(self) -> frozenset[tuple[Iri, Iri]]:
        """(c, d) for every strict-or-equivalent named pair with c ⊑ d."""
        pairs: set[tuple[Iri, Iri]] = set()
        for iri in self._group_index:
            for other in self.equivalents_of(iri):
                if other != iri:
                    pairs.add((iri, other))
            for ancestor in self.ancestors_of(iri):
                pairs.add((iri, ancestor))
        return frozenset(pairs)


def most_specific(
    root: int,
    passes: Callable[[int], bool],
    above: Callable[[int], Iterable[int]],
    below: Callable[[int], Iterable[int]],
) -> list[int]:
    """The nodes of a DAG walked down from `root` that pass `passes` and have
    no passing node directly `below` them; `root` passes by assumption.

    Enhanced traversal (Baader, Hollunder, Nebel, Profitlich & Franconi
    1994). `passes` must be closed upwards: a node that passes has only
    passing nodes `above` it. So a node is tested only once every node
    directly above it has passed, and one failure prunes all below it."""
    verdict: dict[int, bool] = {root: True}

    def settle(node: int) -> bool:
        # Settles the nodes above `node` first, with a stack, not recursion:
        # chains of unsettled parents can be as long as the DAG is deep.
        stack = [node]
        while stack:
            current = stack[-1]
            if current in verdict:
                stack.pop()
                continue
            pending = None
            for up in above(current):
                known = verdict.get(up)
                if known is False:
                    verdict[current] = False
                    break
                if known is None:
                    pending = up
            else:
                if pending is None:
                    verdict[current] = passes(current)
                else:
                    stack.append(pending)
        return verdict[node]

    found: list[int] = []
    frontier = [root]
    seen = {root}
    while frontier:
        node = frontier.pop()
        lower = [n for n in below(node) if settle(n)]
        if not lower:
            found.append(node)
        for n in lower:
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return sorted(found)


def build_taxonomy(
    names: Iterable[Iri],
    leq: Callable[[Iri, Iri], bool],
    top_names: Iterable[Iri] = (),
    bottom_names: Iterable[Iri] = (),
) -> Taxonomy:
    """The reduced DAG of equivalence groups of the subsumption preorder
    `leq` over named concepts. Serves the inferred and the asserted trees.

    Names are inserted one at a time, in the order given, into a growing
    DAG rooted at ⊤ (Baader, Hollunder, Nebel, Profitlich & Franconi 1994).
    A top search (`most_specific` from ⊤) finds the new name's most
    specific subsumers. A bottom search from ⊥ then finds its most general
    subsumees among the common descendants of those subsumers, plus the
    subsumer itself when there is just one: it is the only group the name
    can be equivalent to, and if the search returns it, the name joins it.
    Otherwise the name becomes a group between the two sets. The result
    does not depend on the order, but listing told subsumers before the
    names below them, as `reasoner.told_subsumers` does, keeps both
    searches short.
    `leq` is asked only about names outside `top_names` and `bottom_names`,
    and never twice about one pair."""
    top_set, bottom_set = set(top_names), set(bottom_names)
    members: dict[int, list[Iri]] = {Taxonomy.TOP: []}
    parents: dict[int, set[int]] = {Taxonomy.TOP: set()}
    children: dict[int, set[int]] = {Taxonomy.TOP: set()}
    bottom = -1  # where the bottom search starts; never stored in the DAG

    for name in dict.fromkeys(names):
        if name in top_set or name in bottom_set:
            continue

        def subsumes(node: int) -> bool:
            return leq(name, members[node][0])

        def subsumed(node: int) -> bool:
            return leq(members[node][0], name)

        uppers = most_specific(Taxonomy.TOP, subsumes, parents.__getitem__,
                               children.__getitem__)
        candidates = set.intersection(*(Taxonomy._reach(up, children) for up in uppers))
        if len(uppers) == 1 and uppers != [Taxonomy.TOP]:
            candidates.add(uppers[0])
        leaves = [n for n in candidates if not children[n]]
        lowers = most_specific(
            bottom, subsumed,
            lambda n: children[n] or (bottom,),
            lambda n: leaves if n == bottom else parents[n] & candidates)
        if lowers == uppers:
            members[uppers[0]].append(name)
            continue
        lowers = [n for n in lowers if n != bottom]

        node = len(members)
        members[node] = [name]
        parents[node] = set(uppers)
        children[node] = set(lowers)
        for up in uppers:
            children[up] -= children[node]
            children[up].add(node)
        for low in lowers:
            parents[low] -= parents[node]
            parents[low].add(node)

    named = sorted(((tuple(sorted(m, key=lambda i: i.value)), n)
                    for n, m in members.items() if n != Taxonomy.TOP),
                   key=lambda item: item[0][0].value)
    group_of = {Taxonomy.TOP: Taxonomy.TOP}
    group_of.update((n, index) for index, (_, n) in enumerate(named, start=2))
    groups: tuple[tuple[Iri, ...], ...] = (
        tuple(sorted(top_set, key=lambda i: i.value)),
        tuple(sorted(bottom_set, key=lambda i: i.value)),
        *(group for group, _ in named),
    )
    edges = [(group_of[n], group_of[p]) for _, n in named for p in parents[n]]
    edges += [(Taxonomy.BOTTOM, group_of[n]) for _, n in named if not children[n]]
    if not named:
        edges.append((Taxonomy.BOTTOM, Taxonomy.TOP))
    return Taxonomy(groups=groups, edges=tuple(sorted(edges)))
