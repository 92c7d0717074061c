"""Tableau-based description-logic engine.

Covers ALC plus role hierarchies, inverse roles, and transitive roles:
concept satisfiability, subsumption, classification, ABox consistency,
realization, and instance retrieval. The tableau uses lazy unfolding for
definitional equivalences, absorption for inclusions whose left-hand side
is or has as a conjunct a primitive name, and internalized disjunctions for
everything else; expansion order and tie-breaks are fixed so results are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Container, Iterable, Optional

from .model import (
    AnnotationAssertion,
    Bottom,
    BUILTIN_CONCEPTS,
    Complement,
    ConceptAssertion,
    ConceptExpression,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    InverseRoles,
    Iri,
    Named,
    NamedRole,
    Ontology,
    OWL_THING,
    RoleAssertion,
    RoleDomain,
    RoleExpression,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    Union,
    Universal,
    add_axiom,
    inverse_of,
    signature,
)
from .taxonomy import Taxonomy, build_taxonomy, most_specific


class ResourceLimitExceeded(Exception):
    """Node count or branch depth went past the configured limits."""


class InconsistentOntologyError(Exception):
    """Raised by operations whose precondition is a consistent ontology."""


class UnsupportedAxiomError(Exception):
    """Raised by normalize on an axiom kind outside the supported fragment."""


@dataclass(frozen=True)
class ReasonerLimits:
    max_nodes: int = 100_000
    max_branch_depth: int = 10_000

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_branch_depth <= 0:
            raise ValueError("reasoner limits must be strictly positive")


DEFAULT_LIMITS = ReasonerLimits()


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------


def to_nnf(expr: ConceptExpression) -> ConceptExpression:
    """Push negations down to named concepts, preserving semantics. The
    built-in top/bottom names normalize to their constant forms so the
    engine never tracks them as memberships."""
    if isinstance(expr, Named):
        if expr.iri == OWL_THING:
            return Top()
        if expr.iri in BUILTIN_CONCEPTS:
            return Bottom()
        return expr
    if isinstance(expr, (Top, Bottom)):
        return expr
    if isinstance(expr, Intersection):
        return Intersection(tuple(to_nnf(op) for op in expr.operands))
    if isinstance(expr, Union):
        return Union(tuple(to_nnf(op) for op in expr.operands))
    if isinstance(expr, Existential):
        return Existential(expr.role, to_nnf(expr.filler))
    if isinstance(expr, Universal):
        return Universal(expr.role, to_nnf(expr.filler))
    if isinstance(expr, Complement):
        inner = expr.operand
        if isinstance(inner, Named):
            return _nnf_complement(to_nnf(inner)) if inner.iri in BUILTIN_CONCEPTS else expr
        if isinstance(inner, Top):
            return Bottom()
        if isinstance(inner, Bottom):
            return Top()
        if isinstance(inner, Complement):
            return to_nnf(inner.operand)
        if isinstance(inner, Intersection):
            return Union(tuple(to_nnf(Complement(op)) for op in inner.operands))
        if isinstance(inner, Union):
            return Intersection(tuple(to_nnf(Complement(op)) for op in inner.operands))
        if isinstance(inner, Existential):
            return Universal(inner.role, to_nnf(Complement(inner.filler)))
        if isinstance(inner, Universal):
            return Existential(inner.role, to_nnf(Complement(inner.filler)))
    raise TypeError(f"unknown concept expression: {type(expr).__name__}")


def _nnf_complement(expr: ConceptExpression) -> ConceptExpression:
    return to_nnf(Complement(expr))


# ---------------------------------------------------------------------------
# TBox normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizedTBox:
    """Compiled TBox.

    `definitions` holds unfoldable equivalences (unique, acyclic); all other
    logical concept axioms live in `general_inclusions` as NNF pairs. The
    remaining fields are the evaluation form the tableau runs on, derived
    from the general inclusions: membership-triggered additions for primitive
    named left-hand sides, edge-triggered domain constraints, per-node
    constraints from Top-LHS axioms, and internalized disjunctions for the
    rest. `absorbed[P]` also holds `¬rest ⊔ rhs` for an inclusion
    `P ⊓ rest ⊑ rhs` whose left-hand side has the primitive conjunct `P`
    (binary absorption), so that disjunction only appears where `P` does.
    """

    definitions: dict[Iri, ConceptExpression]
    negated_definitions: dict[Iri, ConceptExpression]
    general_inclusions: tuple[tuple[ConceptExpression, ConceptExpression], ...]
    role_subsumers: dict[RoleExpression, frozenset[RoleExpression]]
    transitive_roles: frozenset[RoleExpression]
    absorbed: dict[Iri, tuple[ConceptExpression, ...]]
    domain_triggers: tuple[tuple[RoleExpression, ConceptExpression], ...]
    node_constraints: tuple[ConceptExpression, ...]
    uses_inverse: bool
    # Memo for sort_key; it lives and dies with the TBox the tableau runs on.
    sort_keys: dict = field(default_factory=dict, repr=False, compare=False)

    def subsumers_of(self, role: RoleExpression) -> frozenset[RoleExpression]:
        return self.role_subsumers.get(role, frozenset((role,)))

    def sort_key(self, expr) -> str:
        """Canonical text for lexicographic tie-breaks, memoized: expression
        reprs are deterministic and total but expensive to recompute."""
        key = self.sort_keys.get(expr)
        if key is None:
            key = self.sort_keys[expr] = repr(expr)
        return key


def _role_expressions_in(expr: ConceptExpression) -> set[RoleExpression]:
    out: set[RoleExpression] = set()
    if isinstance(expr, (Existential, Universal)):
        out.add(expr.role)
        out |= _role_expressions_in(expr.filler)
    elif isinstance(expr, (Intersection, Union)):
        for op in expr.operands:
            out |= _role_expressions_in(op)
    elif isinstance(expr, Complement):
        out |= _role_expressions_in(expr.operand)
    return out


def _primitive_conjunct(expr: ConceptExpression, definitions: Container[Iri]) -> Optional[int]:
    """Index of the first operand of an NNF intersection that is a name
    without a definition (NNF has no built-in names), or None."""
    if isinstance(expr, Intersection):
        for i, op in enumerate(expr.operands):
            if isinstance(op, Named) and op.iri not in definitions:
                return i
    return None


def _role_closure(ontology: Ontology) -> tuple[dict, frozenset, bool]:
    exprs: set[RoleExpression] = set()
    base: set[tuple[RoleExpression, RoleExpression]] = set()
    transitive_seed: set[RoleExpression] = set()
    uses_inverse = False
    for axiom in ontology.axioms:
        if isinstance(axiom, SubRoleOf):
            sub_n, sup_n = NamedRole(axiom.sub), NamedRole(axiom.sup)
            base.add((sub_n, sup_n))
            base.add((InverseRole(axiom.sub), InverseRole(axiom.sup)))
            exprs |= {sub_n, sup_n, InverseRole(axiom.sub), InverseRole(axiom.sup)}
        elif isinstance(axiom, InverseRoles):
            uses_inverse = True
            r, s = axiom.first, axiom.second
            pairs = [
                (NamedRole(r), InverseRole(s)), (InverseRole(s), NamedRole(r)),
                (InverseRole(r), NamedRole(s)), (NamedRole(s), InverseRole(r)),
            ]
            base.update(pairs)
            exprs |= {e for pair in pairs for e in pair}
        elif isinstance(axiom, TransitiveRole):
            transitive_seed |= {NamedRole(axiom.role), InverseRole(axiom.role)}
            exprs |= {NamedRole(axiom.role), InverseRole(axiom.role)}
        elif isinstance(axiom, (SubConceptOf, EquivalentConcepts, DisjointConcepts,
                                RoleDomain, RoleRange, ConceptAssertion)):
            concepts: list[ConceptExpression] = []
            if isinstance(axiom, SubConceptOf):
                concepts = [axiom.sub, axiom.sup]
            elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
                concepts = list(axiom.operands)
            elif isinstance(axiom, (RoleDomain, RoleRange)):
                concepts = [axiom.concept]
                exprs.add(NamedRole(axiom.role))
            else:
                concepts = [axiom.concept]
            for c in concepts:
                for role in _role_expressions_in(c):
                    exprs.add(role)
                    exprs.add(inverse_of(role))
                    if isinstance(role, InverseRole):
                        uses_inverse = True
    # Reflexive-transitive closure over the (small) role-expression set.
    ordered = sorted(exprs, key=repr)
    subsumers: dict[RoleExpression, set[RoleExpression]] = {e: {e} for e in ordered}
    for sub, sup in base:
        subsumers.setdefault(sub, {sub}).add(sup)
        subsumers.setdefault(sup, {sup})
    changed = True
    while changed:
        changed = False
        for e, sups in subsumers.items():
            extra = set()
            for s in sups:
                extra |= subsumers.get(s, set())
            if not extra <= sups:
                sups |= extra
                changed = True
    # A role equivalent to a transitive role is transitive as well.
    transitive: set[RoleExpression] = set()
    for e in subsumers:
        for t in transitive_seed:
            if t in subsumers[e] and e in subsumers.get(t, {t}):
                transitive.add(e)
    frozen = {e: frozenset(s) for e, s in subsumers.items()}
    return frozen, frozenset(transitive), uses_inverse


def normalize(ontology: Ontology) -> NormalizedTBox:
    """Compile the TBox: extract unfoldable definitions, lower everything
    else to NNF general inclusions, close the role hierarchy under inverses,
    and precompute the tableau evaluation form.

    Absorption (Horrocks & Tobies, KR 2000) keeps inclusions off the node
    constraints, which every node must satisfy. An inclusion with a
    primitive named left-hand side is added where that name is; one whose
    left-hand side is an intersection with a primitive conjunct `P` (the
    first in operand order) becomes `¬rest ⊔ rhs` added where `P` is. A
    definition `A ≡ C` whose name is also the left-hand side of another
    inclusion is demoted to `A ⊑ C` and `C ⊑ A` when `C` has such a
    conjunct, so that all three absorb: lazy unfolding cannot carry `A`'s
    other inclusions, since the tableau never adds `A` where only `C`
    holds. Multiple and cyclic definitions are demoted the same way."""
    candidates: dict[Iri, list[ConceptExpression]] = {}
    raw_gcis: list[tuple[ConceptExpression, ConceptExpression]] = []
    for axiom in ontology.axioms:
        if isinstance(axiom, SubConceptOf):
            raw_gcis.append((axiom.sub, axiom.sup))
        elif isinstance(axiom, EquivalentConcepts):
            ops = axiom.operands
            if len(ops) == 2:
                a, b = ops
                if isinstance(a, Named) and a.iri not in BUILTIN_CONCEPTS:
                    candidates.setdefault(a.iri, []).append(b)
                    continue
                if isinstance(b, Named) and b.iri not in BUILTIN_CONCEPTS:
                    candidates.setdefault(b.iri, []).append(a)
                    continue
            for i in range(len(ops)):
                raw_gcis.append((ops[i], ops[(i + 1) % len(ops)]))
        elif isinstance(axiom, DisjointConcepts):
            for i, j in itertools.combinations(range(len(axiom.operands)), 2):
                raw_gcis.append((axiom.operands[i], Complement(axiom.operands[j])))
        elif isinstance(axiom, RoleDomain):
            raw_gcis.append((Existential(NamedRole(axiom.role), Top()), axiom.concept))
        elif isinstance(axiom, RoleRange):
            raw_gcis.append((Top(), Universal(NamedRole(axiom.role), axiom.concept)))
        elif isinstance(axiom, (SubRoleOf, InverseRoles, TransitiveRole, Declaration,
                                ConceptAssertion, RoleAssertion, DataAssertion,
                                AnnotationAssertion)):
            pass  # role axioms are handled by the closure; assertions by the ABox
        else:
            raise UnsupportedAxiomError(f"unsupported axiom kind: {type(axiom).__name__}")

    # Unique definitions only; names with several candidate axioms fall back
    # to general inclusions.
    definitions: dict[Iri, ConceptExpression] = {}
    for name in sorted(candidates, key=lambda iri: iri.value):
        bodies = candidates[name]
        if len(bodies) == 1:
            definitions[name] = bodies[0]
        else:
            for body in bodies:
                raw_gcis.append((Named(name), body))
                raw_gcis.append((body, Named(name)))

    def _cycle_names() -> set[Iri]:
        state: dict[Iri, int] = {}  # 1 = visiting, 2 = done
        cyclic: set[Iri] = set()

        def deps(body: ConceptExpression) -> Iterable[Iri]:
            if isinstance(body, Named):
                if body.iri in definitions:
                    yield body.iri
            elif isinstance(body, (Intersection, Union)):
                for op in body.operands:
                    yield from deps(op)
            elif isinstance(body, Complement):
                yield from deps(body.operand)
            elif isinstance(body, (Existential, Universal)):
                yield from deps(body.filler)

        def visit(name: Iri, stack: list[Iri]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                cyclic.update(stack[stack.index(name):])
                return
            state[name] = 1
            stack.append(name)
            for dep in deps(definitions[name]):
                visit(dep, stack)
            stack.pop()
            state[name] = 2

        for name in sorted(definitions, key=lambda iri: iri.value):
            visit(name, [])
        return cyclic

    def demote(name: Iri) -> None:
        body = definitions.pop(name)
        raw_gcis.append((Named(name), body))
        raw_gcis.append((body, Named(name)))

    # Cyclic definitions are demoted the same way, and so are definitions
    # whose name has other inclusions and whose body can be absorbed.
    lhs_names = {lhs.iri for lhs, _ in raw_gcis if isinstance(lhs, Named)}
    for name in sorted(_cycle_names(), key=lambda iri: iri.value):
        demote(name)
    for name in sorted(definitions, key=lambda iri: iri.value):
        if name in lhs_names and \
                _primitive_conjunct(to_nnf(definitions[name]), definitions) is not None:
            demote(name)

    general = tuple((to_nnf(lhs), to_nnf(rhs)) for lhs, rhs in raw_gcis)
    # The closure's scan of every concept axiom also finds any inverse role
    # in the inclusions and definitions.
    role_subsumers, transitive, uses_inverse = _role_closure(ontology)

    absorbed: dict[Iri, list[ConceptExpression]] = {}
    domain_triggers: list[tuple[RoleExpression, ConceptExpression]] = []
    node_constraints: list[ConceptExpression] = []
    for lhs, rhs in general:
        if isinstance(lhs, Top):
            node_constraints.append(rhs)
        elif isinstance(lhs, Named) and lhs.iri not in definitions:
            absorbed.setdefault(lhs.iri, []).append(rhs)
        elif isinstance(lhs, Existential) and isinstance(lhs.filler, Top):
            domain_triggers.append((lhs.role, rhs))
        elif (i := _primitive_conjunct(lhs, definitions)) is not None:
            rest = lhs.operands[:i] + lhs.operands[i + 1:]
            rest_expr = rest[0] if len(rest) == 1 else Intersection(rest)
            absorbed.setdefault(lhs.operands[i].iri, []).append(
                Union((_nnf_complement(rest_expr), rhs)))
        else:
            node_constraints.append(Union((_nnf_complement(lhs), rhs)))

    return NormalizedTBox(
        definitions={name: to_nnf(body) for name, body in definitions.items()},
        negated_definitions={name: _nnf_complement(body)
                             for name, body in definitions.items()},
        general_inclusions=general,
        role_subsumers=role_subsumers,
        transitive_roles=transitive,
        absorbed={name: tuple(sorted(exprs, key=repr))
                  for name, exprs in absorbed.items()},
        domain_triggers=tuple(sorted(domain_triggers, key=repr)),
        node_constraints=tuple(sorted(node_constraints, key=repr)),
        uses_inverse=uses_inverse,
    )


# ---------------------------------------------------------------------------
# Completion graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    id: int
    label: frozenset[ConceptExpression]
    parent: Optional[int]


@dataclass(frozen=True)
class GraphEdge:
    source: int
    target: int
    role: Iri


@dataclass(frozen=True)
class CompletionGraph:
    """Frozen snapshot of the tableau working state returned as a witness."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    blocking: tuple[tuple[int, int], ...]  # (blocked node, blocking ancestor)
    clash: bool

    @cached_property
    def node_by_id(self) -> dict[int, GraphNode]:
        return {node.id: node for node in self.nodes}


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[CompletionGraph]

    def __bool__(self) -> bool:
        return self.satisfiable


class _Clash(Exception):
    pass


class _Graph:
    """Mutable working graph: labels are insertion-ordered concept sets with
    a lexicographically sorted view cached per node."""

    __slots__ = ("labels", "sorted_cache", "parents", "out_edges", "in_edges",
                 "next_id", "counter", "sort_key")

    def __init__(self, counter: list[int], sort_key: Callable[[object], str]):
        self.labels: list[dict[ConceptExpression, None]] = []
        self.sorted_cache: list[Optional[list[ConceptExpression]]] = []
        self.parents: list[Optional[int]] = []
        self.out_edges: list[list[tuple[Iri, int]]] = []
        self.in_edges: list[list[tuple[Iri, int]]] = []
        self.next_id = 0
        self.counter = counter  # shared created-node count for the limit check
        self.sort_key = sort_key

    def copy(self) -> "_Graph":
        g = _Graph(self.counter, self.sort_key)
        g.labels = [dict(lbl) for lbl in self.labels]
        g.sorted_cache = list(self.sorted_cache)
        g.parents = list(self.parents)
        g.out_edges = [list(e) for e in self.out_edges]
        g.in_edges = [list(e) for e in self.in_edges]
        g.next_id = self.next_id
        return g

    def new_node(self, parent: Optional[int], max_nodes: int) -> int:
        self.counter[0] += 1
        if self.counter[0] > max_nodes:
            raise ResourceLimitExceeded(f"node limit exceeded ({max_nodes})")
        node = self.next_id
        self.next_id += 1
        self.labels.append({})
        self.sorted_cache.append(None)
        self.parents.append(parent)
        self.out_edges.append([])
        self.in_edges.append([])
        return node

    def add_edge(self, source: int, target: int, role: Iri) -> None:
        self.out_edges[source].append((role, target))
        self.in_edges[target].append((role, source))

    def add(self, node: int, expr: ConceptExpression) -> bool:
        label = self.labels[node]
        if expr in label:
            return False
        if isinstance(expr, Bottom):
            raise _Clash()
        if isinstance(expr, Named) and Complement(expr) in label:
            raise _Clash()
        if isinstance(expr, Complement) and expr.operand in label:
            raise _Clash()
        label[expr] = None
        self.sorted_cache[node] = None
        return True

    def sorted_label(self, node: int) -> list[ConceptExpression]:
        cached = self.sorted_cache[node]
        if cached is None:
            cached = sorted(self.labels[node], key=self.sort_key)
            self.sorted_cache[node] = cached
        return cached


class _Tableau:
    def __init__(self, tbox: NormalizedTBox, limits: ReasonerLimits,
                 equality_blocking: Optional[bool] = None):
        self.tbox = tbox
        self.limits = limits
        # Subset blocking is only sound without inverse flows; a query can
        # introduce inverses the TBox does not have, so callers may force
        # the stricter condition.
        self.equality_blocking = (tbox.uses_inverse if equality_blocking is None
                                  else equality_blocking or tbox.uses_inverse)

    # -- neighbour access -----------------------------------------------------

    def _neighbours(self, g: _Graph, node: int, role: RoleExpression) -> list[int]:
        """Targets reachable from `node` via an edge whose role is subsumed by
        `role`, considering both edge directions for inverses."""
        out: list[int] = []
        for edge_role, target in g.out_edges[node]:
            if role in self.tbox.subsumers_of(NamedRole(edge_role)):
                out.append(target)
        for edge_role, source in g.in_edges[node]:
            if role in self.tbox.subsumers_of(InverseRole(edge_role)):
                out.append(source)
        return out

    # -- blocking --------------------------------------------------------------

    def _blocker(self, g: _Graph, node: int) -> Optional[int]:
        """The nearest ancestor that directly blocks `node`: its label equals
        the node's under equality blocking, contains it otherwise."""
        label = frozenset(g.labels[node])
        ancestor = g.parents[node]
        while ancestor is not None:
            other = frozenset(g.labels[ancestor])
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

    def _apply_conjunctions(self, g: _Graph, node: int) -> bool:
        for expr in g.sorted_label(node):
            if isinstance(expr, Intersection):
                added = False
                for op in expr.operands:
                    added |= g.add(node, op)
                if added:
                    return True
        return False

    def _apply_unfolding(self, g: _Graph, node: int) -> bool:
        tbox = self.tbox
        for expr in g.sorted_label(node):
            if isinstance(expr, Named):
                defn = tbox.definitions.get(expr.iri)
                if defn is not None and g.add(node, defn):
                    return True
                for extra in tbox.absorbed.get(expr.iri, ()):
                    if g.add(node, extra):
                        return True
            elif isinstance(expr, Complement) and isinstance(expr.operand, Named):
                neg = tbox.negated_definitions.get(expr.operand.iri)
                if neg is not None and g.add(node, neg):
                    return True
        for role, concept in tbox.domain_triggers:
            if concept not in g.labels[node] and self._neighbours(g, node, role):
                g.add(node, concept)
                return True
        return False

    def _find_disjunction(self, g: _Graph, node: int) -> Optional[Union]:
        for expr in g.sorted_label(node):
            if isinstance(expr, Union) and not any(op in g.labels[node] for op in expr.operands):
                return expr
        return None

    def _apply_universals(self, g: _Graph, node: int) -> bool:
        tbox = self.tbox
        for expr in g.sorted_label(node):
            if not isinstance(expr, Universal):
                continue
            role, filler = expr.role, expr.filler
            for target in self._neighbours(g, node, role):
                if g.add(target, filler):
                    return True
            for trans in sorted(tbox.transitive_roles, key=tbox.sort_key):
                if role in tbox.subsumers_of(trans):
                    propagated = Universal(trans, filler)
                    for target in self._neighbours(g, node, trans):
                        if g.add(target, propagated):
                            return True
        return False

    def _apply_existential(self, g: _Graph, node: int) -> bool:
        if self._blocked(g, node):
            return False
        for expr in g.sorted_label(node):
            if not isinstance(expr, Existential):
                continue
            role, filler = expr.role, expr.filler
            if any(filler in g.labels[t] for t in self._neighbours(g, node, role)):
                continue
            fresh = g.new_node(parent=node, max_nodes=self.limits.max_nodes)
            if isinstance(role, NamedRole):
                g.add_edge(node, fresh, role.iri)
            else:
                g.add_edge(fresh, node, role.iri)
            self._init_node(g, fresh)
            g.add(fresh, filler)
            return True
        return False

    def _init_node(self, g: _Graph, node: int) -> None:
        for constraint in self.tbox.node_constraints:
            g.add(node, constraint)

    def _saturate(self, g: _Graph):
        """Run non-branching rules to a fixpoint in priority order.

        Returns "complete", or ("choice", node, union) for the first open
        disjunction once conjunctions and unfolding are quiet. Raises _Clash.
        """
        while True:
            nodes = range(len(g.labels))
            if any(self._apply_conjunctions(g, n) for n in nodes):
                continue
            if any(self._apply_unfolding(g, n) for n in nodes):
                continue
            for n in nodes:
                disj = self._find_disjunction(g, n)
                if disj is not None:
                    return ("choice", n, disj)
            if any(self._apply_universals(g, n) for n in nodes):
                continue
            if any(self._apply_existential(g, n) for n in nodes):
                continue
            return ("complete",)

    def search(self, initial: _Graph) -> Optional[_Graph]:
        """Chronological backtracking over disjunction choices (left to right)."""
        frames: list[list] = []  # [base graph, node, operands, next index]
        current: Optional[_Graph] = initial

        def advance() -> Optional[_Graph]:
            # Resume from the most recent choice point with operands left.
            while frames:
                base, node, operands, index = frames[-1]
                if index >= len(operands):
                    frames.pop()
                    continue
                frames[-1][3] = index + 1
                candidate = base.copy()
                try:
                    candidate.add(node, operands[index])
                except _Clash:
                    continue
                return candidate
            return None

        while True:
            try:
                outcome = self._saturate(current)
            except _Clash:
                outcome = None
            if outcome is None:
                current = advance()
                if current is None:
                    return None
                continue
            if outcome[0] == "complete":
                return current
            _, node, disj = outcome
            if len(frames) >= self.limits.max_branch_depth:
                raise ResourceLimitExceeded(
                    f"branch depth limit exceeded ({self.limits.max_branch_depth})")
            frames.append([current, node, disj.operands, 0])
            current = advance()
            if current is None:
                return None

    # -- entry points -----------------------------------------------------------

    def freeze(self, g: _Graph) -> CompletionGraph:
        nodes = tuple(
            GraphNode(i, frozenset(g.labels[i]), g.parents[i])
            for i in range(len(g.labels))
        )
        edges = []
        for source, targets in enumerate(g.out_edges):
            for role, target in targets:
                edges.append(GraphEdge(source, target, role))
        blocking = [(i, ancestor) for i in range(len(g.labels))
                    if (ancestor := self._blocker(g, i)) is not None]
        return CompletionGraph(nodes=nodes, edges=tuple(edges),
                               blocking=tuple(blocking), clash=False)


def is_satisfiable(
    concept: ConceptExpression,
    tbox: NormalizedTBox,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> SatResult:
    """Decide concept satisfiability w.r.t. the TBox; a Satisfiable verdict
    carries the final completion graph as a witness."""
    nnf_concept = to_nnf(concept)
    tableau = _Tableau(tbox, limits, equality_blocking=any(
        isinstance(r, InverseRole) for r in _role_expressions_in(nnf_concept)))
    g = _Graph(counter=[0], sort_key=tbox.sort_key)
    root = g.new_node(parent=None, max_nodes=limits.max_nodes)
    try:
        tableau._init_node(g, root)
        g.add(root, nnf_concept)
    except _Clash:
        return SatResult(False, None)
    final = tableau.search(g)
    if final is None:
        return SatResult(False, None)
    return SatResult(True, tableau.freeze(final))


def is_subsumed_by(
    sub: ConceptExpression,
    sup: ConceptExpression,
    tbox: NormalizedTBox,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> bool:
    """sub ⊑ sup iff sub ⊓ ¬sup is unsatisfiable."""
    probe = Intersection((sub, _nnf_complement(sup)))
    return not is_satisfiable(probe, tbox, limits).satisfiable


# ---------------------------------------------------------------------------
# ABox reasoning
# ---------------------------------------------------------------------------


def _individuals_of(ontology: Ontology) -> list[Iri]:
    found: set[Iri] = set()
    for entity in signature(ontology):
        if entity.kind is EntityKind.INDIVIDUAL:
            found.add(entity.iri)
    return sorted(found, key=lambda iri: iri.value)


def _abox_labels(
    ontology: Ontology,
    tbox: NormalizedTBox,
    individuals: list[Iri],
    limits: ReasonerLimits,
    extra: Iterable[tuple[Iri, ConceptExpression]] = (),
) -> Optional[dict[Iri, dict[ConceptExpression, None]]]:
    """Tableau consistency of the ABox (one root per individual in
    `individuals`, which is `_individuals_of(ontology)`; no unique name
    assumption) with optional extra concept constraints. Returns the label of
    each individual's node in a clash-free completion graph, or None when
    there is none. With no named individuals the initial graph is empty and
    trivially clash-free."""
    extra = list(extra)
    tableau = _Tableau(tbox, limits, equality_blocking=any(
        isinstance(r, InverseRole) for _, c in extra for r in _role_expressions_in(c)))
    g = _Graph(counter=[0], sort_key=tbox.sort_key)
    node_of: dict[Iri, int] = {}
    try:
        for individual in individuals:
            node = g.new_node(parent=None, max_nodes=limits.max_nodes)
            node_of[individual] = node
            tableau._init_node(g, node)
        for axiom in ontology.axioms:
            if isinstance(axiom, ConceptAssertion):
                g.add(node_of[axiom.individual], to_nnf(axiom.concept))
            elif isinstance(axiom, RoleAssertion):
                g.add_edge(node_of[axiom.subject], node_of[axiom.object], axiom.role)
        for individual, concept in extra:
            g.add(node_of[individual], to_nnf(concept))
    except _Clash:
        return None
    final = tableau.search(g)
    if final is None:
        return None
    return {individual: final.labels[node] for individual, node in node_of.items()}


def _consistent_abox(
    ontology: Ontology, limits: ReasonerLimits
) -> tuple[NormalizedTBox, list[Iri], dict[Iri, dict[ConceptExpression, None]]]:
    """The compiled TBox, the individuals and their labels in the
    consistency check's completion graph, which every ABox query starts
    from. Raises InconsistentOntologyError when there is no such graph."""
    tbox = normalize(ontology)
    individuals = _individuals_of(ontology)
    labels = _abox_labels(ontology, tbox, individuals, limits)
    if labels is None:
        raise InconsistentOntologyError("ontology is inconsistent")
    return tbox, individuals, labels


def is_consistent(ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS) -> bool:
    """ABox consistency. With no named individuals the verdict is True by
    construction."""
    return _abox_labels(ontology, normalize(ontology), _individuals_of(ontology),
                        limits) is not None


def _named_concepts_of(ontology: Ontology) -> list[Iri]:
    return sorted(
        {e.iri for e in signature(ontology)
         if e.kind is EntityKind.CONCEPT and e.iri not in BUILTIN_CONCEPTS},
        key=lambda iri: iri.value,
    )


def instances_of(
    concept: ConceptExpression,
    ontology: Ontology,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> tuple[Iri, ...]:
    """All individuals whose membership in `concept` is entailed. For a
    named concept, an individual whose node in the consistency check's
    completion graph refutes it is ruled out without a test (`_refuted`)."""
    tbox, individuals, labels = _consistent_abox(ontology, limits)
    negated = _nnf_complement(concept)
    # owl:Thing is in no label, yet every individual is an instance of it.
    prunable = isinstance(concept, Named) and concept.iri not in BUILTIN_CONCEPTS
    members = [
        individual
        for individual in individuals
        if not (prunable and _refuted(labels[individual], concept.iri, tbox))
        and _abox_labels(ontology, tbox, individuals, limits,
                         extra=[(individual, negated)]) is None
    ]
    return tuple(members)


def entailed_types(
    ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS
) -> dict[Iri, tuple[Iri, ...]]:
    """For each individual, every named concept it provably belongs to. A
    name the individual's node in the consistency check's completion graph
    refutes is ruled out without a test (`_refuted`)."""
    tbox, individuals, labels = _consistent_abox(ontology, limits)
    names = _named_concepts_of(ontology)
    result: dict[Iri, tuple[Iri, ...]] = {}
    for individual in individuals:
        entailed = [
            name for name in names
            if not _refuted(labels[individual], name, tbox)
            and _abox_labels(ontology, tbox, individuals, limits,
                             extra=[(individual, Complement(Named(name)))]) is None
        ]
        result[individual] = tuple(entailed)
    return result


def realize(
    ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS
) -> dict[Iri, tuple[Iri, ...]]:
    """Most specific named concepts per individual (an antichain in the
    inferred taxonomy). An individual with no entailed named concept maps to
    the built-in top concept.

    Each individual descends the inferred taxonomy by the same top search
    the taxonomy builder runs, with an ABox entailment test in place of the
    subsumption test: a group is tested only once the individual belongs to
    all of its parents. The consistency check's completion graph is a model
    of the ontology, so a group with a primitive member missing from the
    individual's node is ruled out without a test (see `_refuted`)."""
    tbox, individuals, labels = _consistent_abox(ontology, limits)
    taxonomy = _classify(ontology, tbox, limits)

    def below(group: int) -> list[int]:
        return [c for c in taxonomy.children_of(group) if c != Taxonomy.BOTTOM]

    result: dict[Iri, tuple[Iri, ...]] = {}
    for individual, label in labels.items():
        def entailed(group: int) -> bool:
            members = taxonomy.members(group)
            if any(_refuted(label, name, tbox) for name in members):
                return False
            probe = [(individual, Complement(Named(members[0])))]
            return _abox_labels(ontology, tbox, individuals, limits, extra=probe) is None

        found = most_specific(Taxonomy.TOP, entailed, taxonomy.parents_of, below)
        names = sorted({name for group in found for name in taxonomy.members(group)},
                       key=lambda iri: iri.value)
        result[individual] = tuple(names) or (OWL_THING,)
    return result


def materialize_inverses(ontology: Ontology) -> Ontology:
    """Close role assertions under declared or sub-role-implied inverses:
    whenever r(a,b) holds and inv(r) ⊑* s for a named s, add s(b,a).
    Idempotent by construction (least fixpoint). Role-filler queries read
    the same closure off the told assertions without building it."""
    role_subsumers, _, _ = _role_closure(ontology)
    asserted = {a for a in ontology.axioms if isinstance(a, RoleAssertion)}
    closure = set(asserted)
    frontier = list(asserted)
    while frontier:
        assertion = frontier.pop()
        for sup in sorted(role_subsumers.get(InverseRole(assertion.role), ()), key=repr):
            if isinstance(sup, NamedRole):
                implied = RoleAssertion(sup.iri, assertion.object, assertion.subject)
                if implied not in closure:
                    closure.add(implied)
                    frontier.append(implied)
    result = ontology
    for assertion in sorted(closure - asserted, key=repr):
        result = add_axiom(result, assertion)
    return result


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def told_subsumers(ontology: Ontology) -> dict[Iri, frozenset[Iri]]:
    """Each named concept's told subsumers, itself included: the transitive
    closure of named-to-named subclass axioms and of the named members of
    equivalence axioms. Keys run in told-topological order (fewest told
    subsumers first, ties by IRI), so no name precedes a strict told
    subsumer: a strict subsumer's closure is a proper subset."""
    told: dict[Iri, set[Iri]] = {name: {name} for name in _named_concepts_of(ontology)}
    for axiom in ontology.axioms:
        if isinstance(axiom, SubConceptOf) and isinstance(axiom.sub, Named) \
                and isinstance(axiom.sup, Named):
            if axiom.sub.iri in told and axiom.sup.iri in told:
                told[axiom.sub.iri].add(axiom.sup.iri)
        elif isinstance(axiom, EquivalentConcepts):
            named_ops = [op.iri for op in axiom.operands
                         if isinstance(op, Named) and op.iri in told]
            for a in named_ops:
                told[a].update(named_ops)
    changed = True
    while changed:
        changed = False
        for ups in told.values():
            extra: set[Iri] = set()
            for up in ups:
                extra |= told[up]
            if not extra <= ups:
                ups |= extra
                changed = True
    order = sorted(told, key=lambda name: (len(told[name]), name.value))
    return {name: frozenset(told[name]) for name in order}


def _refuted(label: Container[ConceptExpression], name: Iri, tbox: NormalizedTBox) -> bool:
    """Whether the node with this label, in a clash-free completion graph,
    shows an element outside the named concept.

    Sound for primitive names only. A complete, clash-free graph reads as a
    model in which a primitive name holds exactly at the nodes whose label
    has it, since every inclusion that can put the name on a node has been
    applied wherever its premise holds. A defined name is unfolded lazily:
    the tableau adds its body when the name is in a label, never the name
    when its body holds. In the model the name holds wherever its body
    does, so its absence proves nothing. The fixture's
    `OrganismStructure ⊑ Infectious` is such a case. A definition that
    `normalize` demotes to two inclusions counts as primitive: its
    right-to-left half is absorbed into a primitive conjunct `P` of the
    body, so at every node labelled `P` the tableau adds the name or
    refutes the rest of the body, and the name holds exactly where it is
    labelled."""
    return name not in tbox.definitions and Named(name) not in label


def classify(ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS) -> Taxonomy:
    """Inferred taxonomy over all named concepts: unsatisfiable names in the
    bottom group, names equivalent to ⊤ in the top group, and the rest
    inserted by `build_taxonomy` in told-topological order, with mutually
    subsuming names merged. Independent of axiom order.

    A satisfiability pre-pass tests each name once and keeps its witness.
    The builder's questions "c ⊑ d?" are then answered without a tableau
    test where the answer is known: yes when d is a told subsumer of c, no
    when the root of c's witness refutes d (`_refuted`). ⊤'s witness
    refutes "⊤ ⊑ d" the same way. Only the other questions cost a test."""
    return _classify(ontology, normalize(ontology), limits)


def _classify(ontology: Ontology, tbox: NormalizedTBox, limits: ReasonerLimits) -> Taxonomy:
    told = told_subsumers(ontology)
    witness = {name: is_satisfiable(Named(name), tbox, limits).witness for name in told}
    bottom = [name for name in told if witness[name] is None]
    top: list[Iri] = []
    if len(bottom) < len(told):
        root = is_satisfiable(Top(), tbox, limits).witness.nodes[0].label
        top = [name for name in told
               if witness[name] is not None and not _refuted(root, name, tbox)
               and is_subsumed_by(Top(), Named(name), tbox, limits)]

    def leq(c: Iri, d: Iri) -> bool:
        if d in told[c]:
            return True
        if _refuted(witness[c].nodes[0].label, d, tbox):
            return False
        return is_subsumed_by(Named(c), Named(d), tbox, limits)

    return build_taxonomy(told, leq, top_names=top, bottom_names=bottom)
