"""Completion graph and tableau expansion on interned concept ids.

A `ConceptTable` gives every concept and role expression the tableau meets
a small int id (Horrocks & Patel-Schneider, J. Logic Comput. 1999), once
per compiled TBox, so labels are int sets and every membership, clash and
blocking test is an int lookup instead of a rehash of an expression tree.
Expansion runs from an agenda (Tsarkov & Horrocks, IJCAR 2006): `add`
queues each new (node, id), and new edges queue the universals at their
ends again, so no rule rescans the graph.

The search is fixed. The deterministic rules (conjunctions, unfolding,
domain constraints and universals with their transitive propagations) run
to a fixpoint first (Horrocks, ch. 9 of The Description Logic Handbook,
2003); then the first open disjunction branches; then one existential
fires, each picked by (node, rank), where an id's rank is the repr of its
expression. After each firing the fixpoint is reached again before the
next choice.

Every label entry and edge carries its dependency set: an int bitmask of
the branch points it rests on, bit i for the i-th open choice. A clash
carries the union of its two entries' sets, and the search backjumps to the
latest branch point in that union (Horrocks & Patel-Schneider 1999),
skipping later choices, which would meet the same clash. An entry with an
empty set follows from the input and the TBox alone.
"""

from __future__ import annotations

import threading
from functools import cached_property
from heapq import heappop, heappush
from typing import Optional

from .model import (
    Bottom,
    Complement,
    ConceptExpression,
    Existential,
    Intersection,
    Iri,
    Named,
    NamedRole,
    RoleExpression,
    Top,
    Union,
    Universal,
    inverse_of,
    _tuple_new,
    _Value,
)


class ResourceLimitExceeded(Exception):
    """Node count, branch depth or total work went past the configured limits."""


class ReasonerLimits(_Value):
    __slots__ = ()
    max_nodes: int
    max_branch_depth: int
    # Steps of one tableau run: concepts added to labels, nodes created and
    # graph copies made.
    max_steps: int

    def __new__(cls, max_nodes: int = 100_000, max_branch_depth: int = 10_000,
                max_steps: int = 1_000_000):
        if max_nodes <= 0 or max_branch_depth <= 0 or max_steps <= 0:
            raise ValueError("reasoner limits must be strictly positive")
        return super().__new__(cls, max_nodes, max_branch_depth, max_steps)


DEFAULT_LIMITS = ReasonerLimits()


class GraphNode(_Value):
    __slots__ = ()
    id: int
    label: frozenset[ConceptExpression]
    parent: Optional[int]


class GraphEdge(_Value):
    __slots__ = ()
    source: int
    target: int
    role: Iri


class CompletionGraph(_Value):
    """Frozen snapshot of the tableau working state returned as a witness."""

    __slots__ = ()
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    blocking: tuple[tuple[int, int], ...]  # (blocked node, blocking ancestor)
    clash: bool


class SatResult(_Value, cached=True):
    """A verdict, equal to another by its verdict alone. A Satisfiable one
    keeps the final graph of its run: its witness is frozen from it on
    first access, and `root_label` is the root's label of ids with their
    dependency sets."""

    satisfiable: bool

    def __new__(cls, satisfiable: bool, _final: Optional[_Graph] = None,
                _tableau: Optional[_Tableau] = None):
        # One is made per tableau run, so directly: two stores into the
        # instance dict cost less than `super().__new__` and `update`.
        result = _tuple_new(cls, (cls.__name__, satisfiable))
        kept = vars(result)
        kept["_final"] = _final
        kept["_tableau"] = _tableau
        return result

    def __bool__(self) -> bool:
        return self.satisfiable

    @cached_property
    def witness(self) -> Optional[CompletionGraph]:
        return None if self._final is None else self._tableau.freeze(self._final)

    @property
    def root_label(self) -> Optional[dict[int, int]]:
        return None if self._final is None else self._final.labels[0]


# Concept kinds.
TOP, BOTTOM, NAMED, NOT, AND, OR, SOME, ALL = range(8)

_KIND_OF = {Named: NAMED, Intersection: AND, Union: OR, Existential: SOME,
            Universal: ALL, Complement: NOT, Top: TOP, Bottom: BOTTOM}


class ConceptTable:
    """Int ids for the concepts and roles of one compiled TBox.

    For each concept id: its kind, its operand ids (the filler for ∃ and
    ∀), its role id, the id it clashes with (a name and its complement),
    whether an inverse role occurs in it and its rank; for each named
    concept's IRI, its id. Ids, ranks and the rules read off the TBox
    (unfoldings, transitive propagations, domain constraints) are made on
    first use, so compiling a TBox costs nothing until the tableau runs on
    it. For each role id: the ids of its subsumers and of its inverse.

    Interning writes to the table, so a tableau run holds `lock` from start
    to end: threads that share a TBox run on it one at a time."""

    def __init__(self, tbox):
        # The parts of the TBox that rules are read from, not the TBox: it
        # keeps this table, and a reference back would be a cycle, which
        # only the cyclic collector frees.
        self.definitions = tbox.definitions
        self.negated_definitions = tbox.negated_definitions
        self.absorbed = tbox.absorbed
        self.role_subsumers = tbox.role_subsumers
        self.domain_triggers = tbox.domain_triggers
        self.uses_inverse = tbox.uses_inverse
        self.lock = threading.Lock()
        self.ids: dict[ConceptExpression, int] = {}
        self.names: dict[Iri, int] = {}  # the id of each named concept
        self.exprs: list[ConceptExpression] = []
        self.kinds: list[int] = []
        self.args: list[tuple[int, ...]] = []
        self.roles: list[int] = []
        self.partner: list[int] = []  # -1: clashes with nothing
        self.has_inverse: list[bool] = []
        self.ranks: list[Optional[str]] = []
        self.unfoldings: list[Optional[tuple[int, ...]]] = []
        self.propagations: list[Optional[tuple[tuple[int, int], ...]]] = []
        self.role_ids: dict[RoleExpression, int] = {}
        self.role_exprs: list[RoleExpression] = []
        self.role_sups: list[frozenset[int]] = []
        self.role_inverse: list[int] = []
        self.domain: list[Optional[tuple[int, ...]]] = []
        # Transitive roles in repr order, as the ∀-rule tries them.
        self.transitive = [self.role(t) for t in sorted(tbox.transitive_roles, key=repr)]
        self.node_constraints = tuple(map(self.concept, tbox.node_constraints))

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.lock = threading.Lock()

    # -- interning --------------------------------------------------------------

    def concept(self, expr: ConceptExpression) -> int:
        found = self.ids.get(expr)
        if found is not None:
            return found
        kind = _KIND_OF[type(expr)]
        role = -1
        if kind in (AND, OR):
            args = tuple(map(self.concept, expr.operands))
        elif kind in (SOME, ALL):
            role = self.role(expr.role)
            args = (self.concept(expr.filler),)
        elif kind == NOT:
            args = (self.concept(expr.operand),)
        else:
            args = ()
        i = len(self.exprs)
        self.ids[expr] = i
        self.exprs.append(expr)
        self.kinds.append(kind)
        self.args.append(args)
        self.roles.append(role)
        self.partner.append(-1)
        self.has_inverse.append(
            role >= 0 and not isinstance(self.role_exprs[role], NamedRole)
            or True in map(self.has_inverse.__getitem__, args))
        self.ranks.append(None)
        self.unfoldings.append(None)
        self.propagations.append(None)
        if kind == NAMED:
            self.names[expr.iri] = i
        elif kind == NOT:
            self.partner[i] = args[0]
            if self.kinds[args[0]] == NAMED:
                self.partner[args[0]] = i
        return i

    def role(self, expr: RoleExpression) -> int:
        found = self.role_ids.get(expr)
        if found is not None:
            return found
        r = len(self.role_exprs)
        self.role_ids[expr] = r
        self.role_exprs.append(expr)
        self.role_sups.append(frozenset())
        self.role_inverse.append(-1)
        self.domain.append(None)
        sups = self.role_subsumers.get(expr, (expr,))
        self.role_sups[r] = frozenset(map(self.role, sups))
        self.role_inverse[r] = self.role(inverse_of(expr))
        return r

    # -- rules read off the TBox ------------------------------------------------

    def rank(self, i: int) -> str:
        """The tie-break key: deterministic and total, made on first use."""
        key = self.ranks[i]
        if key is None:
            key = self.ranks[i] = repr(self.exprs[i])
        return key

    def unfolding(self, i: int) -> tuple[int, ...]:
        """What a name (its definition, then its absorbed inclusions) or a
        negated name (its negated definition) adds to a label."""
        found = self.unfoldings[i]
        if found is None:
            if self.kinds[i] == NAMED:
                iri = self.exprs[i].iri
                defn = self.definitions.get(iri)
                found = tuple(map(self.concept, ((defn,) if defn is not None else ())
                                  + self.absorbed.get(iri, ())))
            else:
                operand = self.exprs[i].operand
                neg = (self.negated_definitions.get(operand.iri)
                       if isinstance(operand, Named) else None)
                found = (self.concept(neg),) if neg is not None else ()
            self.unfoldings[i] = found
        return found

    def propagation(self, i: int) -> tuple[tuple[int, int], ...]:
        """What a universal ∀R.C adds to its neighbours, as (role, concept):
        (R, C), then (T, ∀T.C) for each transitive T ⊒ R."""
        found = self.propagations[i]
        if found is None:
            role, filler = self.roles[i], self.exprs[i].filler
            found = self.propagations[i] = ((role, self.args[i][0]),) + tuple(
                (t, self.concept(Universal(self.role_exprs[t], filler)))
                for t in self.transitive if role in self.role_sups[t])
        return found

    def domain_constraints(self, r: int) -> tuple[int, ...]:
        """What an edge adds to a node it links by role `r`, read from that
        node's side: each domain constraint whose role subsumes `r`."""
        found = self.domain[r]
        if found is None:
            sups = self.role_sups[r]
            found = self.domain[r] = tuple(
                self.concept(concept) for role, concept in self.domain_triggers
                if self.role(role) in sups)
        return found

    def expressions(self, label) -> frozenset[ConceptExpression]:
        """The expressions of a label of ids."""
        exprs = self.exprs
        return frozenset([exprs[i] for i in label])


class _Clash(Exception):
    """A clash, with the union of the dependency sets of its two entries."""

    def __init__(self, deps: int):
        super().__init__()
        self.deps = deps


class _Work:
    """Work done by one tableau run, over every copy of its graph."""

    __slots__ = ("steps", "nodes", "copies", "max_steps", "max_nodes", "limits")

    def __init__(self, limits: ReasonerLimits):
        self.steps = self.nodes = self.copies = 0
        self.max_steps = limits.max_steps
        self.max_nodes = limits.max_nodes
        self.limits = limits

    def exceeded(self, limit: str = "step", field: str = "max_steps") -> ResourceLimitExceeded:
        """The error for the `limit` set by the `ReasonerLimits` field
        `field`: the limit and how far the run got."""
        return ResourceLimitExceeded(
            f"{limit} limit exceeded ({field} {getattr(self.limits, field)}) after {self.steps} "
            f"steps: {self.nodes} nodes created, {self.copies} graph copies")


class _Graph:
    """Mutable working graph over concept ids.

    Labels are dicts from id to the entry's dependency set, and each edge
    carries the set of the existential (or assertion) that made it. Besides
    the graph itself it holds the agenda: `todo` for the deterministic
    rules, and heaps of (node, rank, id) for the disjunctions and
    existentials that may still fire."""

    __slots__ = ("table", "work", "labels", "frozen", "parents", "out_edges",
                 "in_edges", "alls", "todo", "choices", "existentials")

    def __init__(self, table: ConceptTable, work: _Work):
        self.table = table
        self.work = work
        self.labels: list[dict[int, int]] = []
        self.frozen: list[Optional[frozenset[int]]] = []  # label sets, for blocking
        self.parents: list[Optional[int]] = []
        self.out_edges: list[list[tuple[int, int, int]]] = []  # (role, target, deps)
        self.in_edges: list[list[tuple[int, int, int]]] = []  # (inverse role, source, deps)
        self.alls: list[list[int]] = []  # each node's universals
        self.todo: list[tuple[int, int]] = []
        self.choices: list[tuple[int, str, int]] = []
        self.existentials: list[tuple[int, str, int]] = []

    def copy(self) -> "_Graph":
        work = self.work
        work.copies += 1
        work.steps += 1
        if work.steps > work.max_steps:
            raise work.exceeded()
        g = _Graph(self.table, work)
        g.labels = [dict(lbl) for lbl in self.labels]
        g.frozen = list(self.frozen)
        g.parents = list(self.parents)
        g.out_edges = [list(e) for e in self.out_edges]
        g.in_edges = [list(e) for e in self.in_edges]
        g.alls = [list(a) for a in self.alls]
        g.todo = list(self.todo)
        g.choices = list(self.choices)
        g.existentials = list(self.existentials)
        return g

    def new_node(self, parent: Optional[int]) -> int:
        work = self.work
        if work.nodes >= work.max_nodes:
            raise work.exceeded("node", "max_nodes")
        work.nodes += 1
        work.steps += 1
        if work.steps > work.max_steps:
            raise work.exceeded()
        node = len(self.labels)
        self.labels.append({})
        self.frozen.append(None)
        self.parents.append(parent)
        self.out_edges.append([])
        self.in_edges.append([])
        self.alls.append([])
        return node

    def add_edge(self, source: int, target: int, role: int, deps: int) -> None:
        """Link `source` to `target` by the named role `role`. The new
        neighbours put the universals at both ends back on the agenda, and
        the source and target take the domain constraints of the role and
        its inverse."""
        table = self.table
        inverse = table.role_inverse[role]
        self.out_edges[source].append((role, target, deps))
        self.in_edges[target].append((inverse, source, deps))
        for node, r in ((source, role), (target, inverse)):
            self.todo += [(node, universal) for universal in self.alls[node]]
            for concept in table.domain_constraints(r):
                self.add(node, concept, deps)

    def add(self, node: int, concept: int, deps: int) -> bool:
        label = self.labels[node]
        if concept in label:
            return False
        table = self.table
        if table.kinds[concept] == BOTTOM:
            raise _Clash(deps)
        partner = label.get(table.partner[concept])
        if partner is not None:
            raise _Clash(deps | partner)
        work = self.work
        work.steps += 1
        if work.steps > work.max_steps:
            raise work.exceeded()
        label[concept] = deps
        self.frozen[node] = None
        self.todo.append((node, concept))
        return True


class _Tableau:
    def __init__(self, table: ConceptTable, limits: ReasonerLimits, equality_blocking: bool):
        self.table = table
        self.limits = limits
        # Subset blocking is only sound without inverse flows.
        self.equality_blocking = equality_blocking

    def graph(self) -> _Graph:
        return _Graph(self.table, _Work(self.limits))

    def init_node(self, g: _Graph, parent: Optional[int]) -> int:
        node = g.new_node(parent)
        for constraint in self.table.node_constraints:
            g.add(node, constraint, 0)
        return node

    # -- neighbour access -----------------------------------------------------

    def _neighbours(self, g: _Graph, node: int, role: int) -> list[tuple[int, int]]:
        """(node, edge dependency set) for each node linked to `node` by an
        edge whose role, read from `node`'s side, is subsumed by `role`."""
        sups = self.table.role_sups
        out = [(target, deps) for r, target, deps in g.out_edges[node] if role in sups[r]]
        out += [(source, deps) for r, source, deps in g.in_edges[node] if role in sups[r]]
        return out

    # -- blocking --------------------------------------------------------------

    def _label_set(self, g: _Graph, node: int) -> frozenset[int]:
        found = g.frozen[node]
        if found is None:
            found = g.frozen[node] = frozenset(g.labels[node])
        return found

    def _blocker(self, g: _Graph, node: int) -> Optional[int]:
        """The nearest ancestor that directly blocks `node`: its label equals
        the node's under equality blocking, contains it otherwise."""
        label = self._label_set(g, node)
        ancestor = g.parents[node]
        while ancestor is not None:
            other = self._label_set(g, ancestor)
            if (label == other) if self.equality_blocking else (label <= other):
                return ancestor
            ancestor = g.parents[ancestor]
        return None

    def _blocked(self, g: _Graph, node: int) -> bool:
        """Whether the node or one of its ancestors is directly blocked."""
        while node is not None:
            if self._blocker(g, node) is not None:
                return True
            node = g.parents[node]
        return False

    # -- saturation -------------------------------------------------------------

    def _expand(self, g: _Graph) -> None:
        """Run the deterministic rules to a fixpoint off the agenda, and file
        each new disjunction and existential. A universal adds its filler and
        its transitive propagations to every matching neighbour at once."""
        table = self.table
        kinds, args, labels, todo = table.kinds, table.args, g.labels, g.todo
        while todo:
            node, concept = todo.pop()
            kind = kinds[concept]
            if kind == AND:
                deps = labels[node][concept]
                for op in args[concept]:
                    g.add(node, op, deps)
            elif kind == NAMED or kind == NOT:
                deps = labels[node][concept]
                for extra in table.unfolding(concept):
                    g.add(node, extra, deps)
            elif kind == OR:
                heappush(g.choices, (node, table.rank(concept), concept))
            elif kind == ALL:
                alls = g.alls[node]
                if concept not in alls:
                    alls.append(concept)
                deps = labels[node][concept]
                for role, filler in table.propagation(concept):
                    for target, edge in self._neighbours(g, node, role):
                        g.add(target, filler, deps | edge)
            elif kind == SOME:
                heappush(g.existentials, (node, table.rank(concept), concept))

    def _open_choice(self, g: _Graph) -> Optional[tuple[int, int]]:
        """The first (node, disjunction) with no operand in the label; a
        disjunction that has one leaves the heap for good."""
        args, heap = self.table.args, g.choices
        while heap:
            node, _, concept = heap[0]
            label = g.labels[node]
            if not any(op in label for op in args[concept]):
                return node, concept
            heappop(heap)
        return None

    def _fire_existential(self, g: _Graph) -> bool:
        """Make a successor for the first unwitnessed existential on a node
        that is not blocked. A witnessed one leaves the heap for good; one on
        a blocked node stays, since blocking can end."""
        table = self.table
        labels, heap = g.labels, g.existentials
        held = []
        blocked: dict[int, bool] = {}
        try:
            while heap:
                node, _, concept = heap[0]
                role, filler = table.roles[concept], table.args[concept][0]
                if any(filler in labels[t] for t, _ in self._neighbours(g, node, role)):
                    heappop(heap)
                    continue
                if node not in blocked:
                    blocked[node] = self._blocked(g, node)
                if blocked[node]:
                    held.append(heappop(heap))
                    continue
                # The successor, its edge and all it starts with rest on
                # what the existential rests on.
                deps = labels[node][concept]
                fresh = g.new_node(parent=node)
                inverse = table.role_inverse[role]
                if isinstance(table.role_exprs[role], NamedRole):
                    g.add_edge(node, fresh, role, deps)
                else:
                    g.add_edge(fresh, node, inverse, deps)
                for constraint in table.node_constraints:
                    g.add(fresh, constraint, deps)
                g.add(fresh, filler, deps)
                return True
            return False
        finally:
            for entry in held:
                heappush(heap, entry)

    def _saturate(self, g: _Graph) -> Optional[tuple[int, int]]:
        """Run the deterministic rules to a fixpoint, then fire one
        existential, until there is an open disjunction or none is left to
        fire. Returns the first open (node, disjunction), or None when the
        graph is complete. Raises _Clash."""
        while True:
            self._expand(g)
            choice = self._open_choice(g)
            if choice is not None:
                return choice
            if not self._fire_existential(g):
                return None

    def search(self, initial: _Graph) -> Optional[_Graph]:
        """Backtracking over disjunction choices, left to right, that jumps
        back to the latest choice a clash depends on. Choice i adds its
        operand with bit i set; its last operand instead carries the sets of
        the clashes its other operands met, without bit i, since it is
        forced by them. A clash that depends on no choice ends the search."""
        args = self.table.args
        # [base graph, node, operands, next index, deps of the disjunction,
        #  deps of the clashes met so far without this choice's bit]
        frames: list[list] = []

        def alternative() -> _Graph:
            # The next operand of the choice on top of the stack; raises _Clash.
            frame = frames[-1]
            base, node, operands, index, deps, failed = frame
            frame[3] = index + 1
            if index + 1 < len(operands):
                deps |= 1 << (len(frames) - 1)
            else:
                deps |= failed
            candidate = base.copy()
            candidate.add(node, operands[index], deps)
            return candidate

        current = initial
        while True:
            try:
                choice = self._saturate(current)
                if choice is None:
                    return current
                node, disjunction = choice
                if len(frames) >= self.limits.max_branch_depth:
                    raise current.work.exceeded("branch depth", "max_branch_depth")
                frames.append([current, node, args[disjunction], 0,
                               current.labels[node][disjunction], 0])
                current = alternative()
            except _Clash as clash:
                deps = clash.deps
                while True:
                    # No choice after the highest bit set can undo the
                    # clash, so the search resumes at that choice. It has
                    # an operand left, since its last one carries no bit.
                    top = deps.bit_length() - 1
                    if top < 0:
                        return None
                    del frames[top + 1:]
                    frames[top][5] |= deps & ~(1 << top)
                    try:
                        current = alternative()
                        break
                    except _Clash as again:
                        deps = again.deps

    def freeze(self, g: _Graph) -> CompletionGraph:
        table = self.table
        nodes = tuple(GraphNode(i, table.expressions(g.labels[i]), g.parents[i])
                      for i in range(len(g.labels)))
        edges = tuple(GraphEdge(source, target, table.role_exprs[role].iri)
                      for source, targets in enumerate(g.out_edges)
                      for role, target, _ in targets)
        blocking = tuple((i, ancestor) for i in range(len(g.labels))
                         if (ancestor := self._blocker(g, i)) is not None)
        return CompletionGraph(nodes=nodes, edges=edges, blocking=blocking, clash=False)


def _run(table: ConceptTable, roots: int, concepts: list[tuple[int, ConceptExpression]],
         edges: list[tuple[int, int, Iri]],
         limits: ReasonerLimits) -> tuple[_Tableau, Optional[_Graph]]:
    """One tableau run from `roots` root nodes, the NNF `concepts` (root,
    concept) and the `edges` (source root, target root, named role): the
    tableau and its final clash-free graph, or None for the graph when
    there is none.

    Subset blocking is only sound without inverse flows, so the run blocks
    by equality when the TBox has them (`uses_inverse`) or an inverse role
    occurs in a concept it starts from, a query or an ABox's assertions."""
    with table.lock:
        # Interned before `init_node` adds the node constraints, which the
        # table interned when it was made, so the ids are the same.
        ids = [table.concept(concept) for _, concept in concepts]
        tableau = _Tableau(table, limits, table.uses_inverse
                           or True in map(table.has_inverse.__getitem__, ids))
        g = tableau.graph()
        try:
            for _ in range(roots):
                tableau.init_node(g, parent=None)
            for (root, _), i in zip(concepts, ids):
                g.add(root, i, 0)
            for source, target, role in edges:
                g.add_edge(source, target, table.role(NamedRole(role)), 0)
        except _Clash:
            return tableau, None
        return tableau, tableau.search(g)
