"""Independent semantic oracle for the reasoner tests.

Interpretations are explicit extensions over a tiny domain; axioms are
checked by direct evaluation, with no shared code or concepts from the
tableau engine. Provides exhaustive (budgeted) countermodel search over
domains of size <= 3, and conversion of tableau witness graphs into finite
interpretations for model checking.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from ontokit.model import (
    AnnotationAssertion,
    Axiom,
    Bottom,
    Complement,
    ConceptAssertion,
    ConceptExpression,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    InverseRoles,
    Iri,
    Named,
    NamedRole,
    Ontology,
    OWL_NOTHING,
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
)
from ontokit.reasoner import CompletionGraph


@dataclass
class Interpretation:
    size: int
    concepts: dict[Iri, frozenset[int]]
    roles: dict[Iri, frozenset[tuple[int, int]]]

    @functools.cached_property
    def domain(self) -> frozenset[int]:
        # The size is fixed at construction; the search reads the domain
        # millions of times.
        return frozenset(range(self.size))


_THING, _NOTHING = OWL_THING.value, OWL_NOTHING.value


def eval_role(role: RoleExpression, interp: Interpretation) -> frozenset[tuple[int, int]]:
    pairs = interp.roles.get(role.iri, frozenset())
    if isinstance(role, InverseRole):
        return frozenset((b, a) for a, b in pairs)
    return pairs


def eval_concept(expr: ConceptExpression, interp: Interpretation) -> frozenset[int]:
    # Named leaves are the most frequent case in the countermodel search.
    # The expression classes have no subclasses, so dispatch on the exact
    # type, and compare IRI strings: both are cheaper than the general forms.
    kind = type(expr)
    if kind is Named:
        value = expr.iri.value
        if value == _THING:
            return interp.domain
        if value == _NOTHING:
            return frozenset()
        return interp.concepts.get(expr.iri, frozenset())
    if kind is Top:
        return interp.domain
    if kind is Bottom:
        return frozenset()
    if kind is Intersection:
        result = interp.domain
        for op in expr.operands:
            result &= eval_concept(op, interp)
        return result
    if kind is Union:
        result: frozenset[int] = frozenset()
        for op in expr.operands:
            result |= eval_concept(op, interp)
        return result
    if kind is Complement:
        return interp.domain - eval_concept(expr.operand, interp)
    if kind is Existential or kind is Universal:
        # Role pairs lie within the domain, so an element has a successor in
        # the filler iff it starts such a pair, and every successor in the
        # filler iff it starts no pair leaving it.
        pairs = eval_role(expr.role, interp)
        filler = eval_concept(expr.filler, interp)
        if kind is Existential:
            return frozenset(a for a, b in pairs if b in filler)
        return interp.domain - frozenset(a for a, b in pairs if b not in filler)
    raise TypeError(type(expr).__name__)


def _transitive(pairs: frozenset[tuple[int, int]]) -> bool:
    index: dict[int, set[int]] = {}
    for a, b in pairs:
        index.setdefault(a, set()).add(b)
    return all((a, c) in pairs
               for a, b in pairs for c in index.get(b, ()))


def satisfies(interp: Interpretation, axiom: Axiom) -> bool:
    """Semantic satisfaction of a single TBox/RBox axiom."""
    if isinstance(axiom, SubConceptOf):
        return eval_concept(axiom.sub, interp) <= eval_concept(axiom.sup, interp)
    if isinstance(axiom, EquivalentConcepts):
        first = eval_concept(axiom.operands[0], interp)
        return all(eval_concept(op, interp) == first for op in axiom.operands[1:])
    if isinstance(axiom, DisjointConcepts):
        for a, b in itertools.combinations(axiom.operands, 2):
            if eval_concept(a, interp) & eval_concept(b, interp):
                return False
        return True
    if isinstance(axiom, SubRoleOf):
        return (interp.roles.get(axiom.sub, frozenset())
                <= interp.roles.get(axiom.sup, frozenset()))
    if isinstance(axiom, InverseRoles):
        forward = interp.roles.get(axiom.first, frozenset())
        backward = interp.roles.get(axiom.second, frozenset())
        return forward == frozenset((b, a) for a, b in backward)
    if isinstance(axiom, TransitiveRole):
        return _transitive(interp.roles.get(axiom.role, frozenset()))
    if isinstance(axiom, RoleDomain):
        pairs = interp.roles.get(axiom.role, frozenset())
        return frozenset(a for a, _ in pairs) <= eval_concept(axiom.concept, interp)
    if isinstance(axiom, RoleRange):
        pairs = interp.roles.get(axiom.role, frozenset())
        return frozenset(b for _, b in pairs) <= eval_concept(axiom.concept, interp)
    if isinstance(axiom, (Declaration, ConceptAssertion, RoleAssertion,
                          DataAssertion, AnnotationAssertion)):
        return True
    raise TypeError(type(axiom).__name__)


def check_model(interp: Interpretation, axioms) -> list[Axiom]:
    """Axioms the interpretation violates (empty means it is a model)."""
    return [axiom for axiom in axioms if not satisfies(interp, axiom)]


# ---------------------------------------------------------------------------
# Exhaustive bounded search
# ---------------------------------------------------------------------------


def _symbols_of(axioms, extra_exprs) -> tuple[list[Iri], list[Iri]]:
    concepts: set[Iri] = set()
    roles: set[Iri] = set()

    def walk(expr: ConceptExpression) -> None:
        if isinstance(expr, Named):
            if expr.iri not in (OWL_THING, OWL_NOTHING):
                concepts.add(expr.iri)
        elif isinstance(expr, (Intersection, Union)):
            for op in expr.operands:
                walk(op)
        elif isinstance(expr, Complement):
            walk(expr.operand)
        elif isinstance(expr, (Existential, Universal)):
            roles.add(expr.role.iri)
            walk(expr.filler)

    for axiom in axioms:
        if isinstance(axiom, SubConceptOf):
            walk(axiom.sub)
            walk(axiom.sup)
        elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
            for op in axiom.operands:
                walk(op)
        elif isinstance(axiom, (RoleDomain, RoleRange)):
            roles.add(axiom.role)
            walk(axiom.concept)
        elif isinstance(axiom, SubRoleOf):
            roles.update((axiom.sub, axiom.sup))
        elif isinstance(axiom, InverseRoles):
            roles.update((axiom.first, axiom.second))
        elif isinstance(axiom, TransitiveRole):
            roles.add(axiom.role)
    for expr in extra_exprs:
        walk(expr)
    return sorted(concepts, key=str), sorted(roles, key=str)


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _search_interpretations(axioms, extra_exprs, accept, max_size, budget_limit):
    """Enumerate interpretations symbol by symbol, pruning on axioms whose
    symbols are fully assigned. Returns (found, exhausted)."""
    concepts, roles = _symbols_of(axioms, extra_exprs)
    logical = [a for a in axioms
               if not isinstance(a, (Declaration, ConceptAssertion, RoleAssertion,
                                     DataAssertion, AnnotationAssertion))]
    budget = _Budget(budget_limit)
    exhausted = True

    for size in range(1, max_size + 1):
        domain = list(range(size))
        concept_choices = [frozenset(s) for r in range(size + 1)
                           for s in itertools.combinations(domain, r)]
        pair_space = [(a, b) for a in domain for b in domain]
        role_choices = [frozenset(s) for r in range(len(pair_space) + 1)
                        for s in itertools.combinations(pair_space, r)]
        symbols = [("c", iri) for iri in concepts] + [("r", iri) for iri in roles]

        # Axiom can be checked once every symbol it uses is assigned.
        def ready_at(index: int) -> list[Axiom]:
            assigned_c = {iri for kind, iri in symbols[:index] if kind == "c"}
            assigned_r = {iri for kind, iri in symbols[:index] if kind == "r"}
            out = []
            for axiom in logical:
                used_c, used_r = _symbols_of([axiom], [])
                if set(used_c) <= assigned_c and set(used_r) <= assigned_r:
                    out.append(axiom)
            return out

        checkpoints = [ready_at(i) for i in range(len(symbols) + 1)]
        # Only check axioms newly ready at each depth.
        new_checks = [
            [a for a in checkpoints[i] if a not in checkpoints[i - 1]] if i else []
            for i in range(len(symbols) + 1)
        ]

        interp = Interpretation(size=size, concepts={}, roles={})

        def descend(index: int):
            nonlocal exhausted
            if not budget.spend():
                exhausted = False
                return None
            for axiom in new_checks[index]:
                if not satisfies(interp, axiom):
                    return None
            if index == len(symbols):
                return interp if accept(interp) else None
            kind, iri = symbols[index]
            choices = concept_choices if kind == "c" else role_choices
            store = interp.concepts if kind == "c" else interp.roles
            for choice in choices:
                store[iri] = choice
                found = descend(index + 1)
                if found is not None:
                    return found
                if budget.left < 0:
                    return None
            del store[iri]
            return None

        found = descend(0)
        if found is not None:
            return Interpretation(found.size, dict(found.concepts), dict(found.roles)), True
        if budget.left < 0:
            return None, False
    return None, exhausted


def find_countermodel(ontology: Ontology, sub: ConceptExpression,
                      sup: ConceptExpression, max_size: int = 3,
                      budget: int = 300_000):
    """A model of the ontology's TBox with an element in `sub` but outside
    `sup`, over a domain of at most `max_size` elements.

    Returns (interpretation or None, exhausted flag); exhausted=True means
    the whole space was covered, so no bounded countermodel exists.
    """

    def accept(interp: Interpretation) -> bool:
        return bool(eval_concept(sub, interp) - eval_concept(sup, interp))

    return _search_interpretations(ontology.axioms, [sub, sup], accept,
                                   max_size, budget)


# ---------------------------------------------------------------------------
# Witness graphs as finite interpretations
# ---------------------------------------------------------------------------


def interpretation_from_witness(graph: CompletionGraph,
                                ontology: Ontology) -> Interpretation:
    """Read a clash-free completion graph as a finite interpretation.

    Directly blocked nodes collapse into their blockers (their unexpanded
    subtrees are dropped), then the role extensions are closed under the
    ontology's sub-role, inverse, and transitivity axioms.
    """
    node_by_id = {node.id: node for node in graph.nodes}
    blocker = dict(graph.blocking)
    dropped: set[int] = set()
    for node in graph.nodes:
        ancestor = node.parent
        while ancestor is not None:
            if ancestor in blocker:
                dropped.add(node.id)
                break
            ancestor = node_by_id[ancestor].parent

    def resolve(node_id: int) -> int:
        while node_id in blocker:
            node_id = blocker[node_id]
        return node_id

    kept = sorted(n.id for n in graph.nodes
                  if n.id not in dropped and n.id not in blocker)
    remap = {node_id: index for index, node_id in enumerate(kept)}

    concepts: dict[Iri, set[int]] = {}
    for node_id in kept:
        for expr in node_by_id[node_id].label:
            if isinstance(expr, Named):
                concepts.setdefault(expr.iri, set()).add(remap[node_id])

    roles: dict[Iri, set[tuple[int, int]]] = {}
    for edge in graph.edges:
        if edge.source in dropped or edge.target in dropped:
            continue
        source = remap[resolve(edge.source)]
        target = remap[resolve(edge.target)]
        roles.setdefault(edge.role, set()).add((source, target))

    changed = True
    while changed:
        changed = False
        for axiom in ontology.axioms:
            if isinstance(axiom, SubRoleOf):
                sub = roles.get(axiom.sub, set())
                sup = roles.setdefault(axiom.sup, set())
                if not sub <= sup:
                    sup |= sub
                    changed = True
            elif isinstance(axiom, InverseRoles):
                first = roles.setdefault(axiom.first, set())
                second = roles.setdefault(axiom.second, set())
                flipped = {(b, a) for a, b in second}
                if not flipped <= first:
                    first |= flipped
                    changed = True
                flipped = {(b, a) for a, b in first}
                if not flipped <= second:
                    second |= flipped
                    changed = True
            elif isinstance(axiom, TransitiveRole):
                pairs = roles.setdefault(axiom.role, set())
                index: dict[int, set[int]] = {}
                for a, b in pairs:
                    index.setdefault(a, set()).add(b)
                extra = {(a, c) for a, b in pairs for c in index.get(b, ())}
                if not extra <= pairs:
                    pairs |= extra
                    changed = True

    return Interpretation(
        size=len(kept),
        concepts={iri: frozenset(members) for iri, members in concepts.items()},
        roles={iri: frozenset(pairs) for iri, pairs in roles.items()},
    )


# ---------------------------------------------------------------------------
# Declarative saturation checking
# ---------------------------------------------------------------------------


def verify_saturated(witness: CompletionGraph, tbox) -> list[str]:
    """Re-check every expansion rule's fixpoint condition on a witness graph.

    Returns human-readable violations (empty means the graph is clash-free,
    fully expanded, and blocking-consistent). This mirrors the tableau rules
    declaratively and independently of the engine's control flow.
    """
    problems: list[str] = []
    node_by_id = {node.id: node for node in witness.nodes}
    blocked_direct = {blocked for blocked, _ in witness.blocking}

    def is_blocked(node_id: int) -> bool:
        ancestor = node_by_id[node_id].parent
        while ancestor is not None:
            if ancestor in blocked_direct:
                return True
            ancestor = node_by_id[ancestor].parent
        return node_id in blocked_direct

    out_edges: dict[int, list] = {}
    in_edges: dict[int, list] = {}
    for edge in witness.edges:
        out_edges.setdefault(edge.source, []).append((edge.role, edge.target))
        in_edges.setdefault(edge.target, []).append((edge.role, edge.source))

    def subsumers(role):
        return tbox.role_subsumers.get(role, frozenset((role,)))

    def neighbours(node_id: int, role) -> list[int]:
        found = []
        for edge_role, target in out_edges.get(node_id, ()):
            if role in subsumers(NamedRole(edge_role)):
                found.append(target)
        for edge_role, source in in_edges.get(node_id, ()):
            if role in subsumers(InverseRole(edge_role)):
                found.append(source)
        return found

    for node in witness.nodes:
        label = node.label
        where = f"node {node.id}"
        for expr in label:
            if isinstance(expr, Bottom):
                problems.append(f"{where}: bottom in label")
            if isinstance(expr, Named) and Complement(expr) in label:
                problems.append(f"{where}: clash on {expr.iri.fragment}")
        for constraint in tbox.node_constraints:
            if constraint not in label:
                problems.append(f"{where}: missing node constraint")
        for role, concept in tbox.domain_triggers:
            if neighbours(node.id, role) and concept not in label:
                problems.append(f"{where}: domain trigger not applied")
        for expr in label:
            if isinstance(expr, Intersection):
                if any(op not in label for op in expr.operands):
                    problems.append(f"{where}: conjunction not decomposed")
            elif isinstance(expr, Union):
                if not any(op in label for op in expr.operands):
                    problems.append(f"{where}: disjunction unresolved")
            elif isinstance(expr, Named):
                defn = tbox.definitions.get(expr.iri)
                if defn is not None and defn not in label:
                    problems.append(f"{where}: definition not unfolded")
                for extra in tbox.absorbed.get(expr.iri, ()):
                    if extra not in label:
                        problems.append(f"{where}: absorbed inclusion missing")
            elif isinstance(expr, Complement) and isinstance(expr.operand, Named):
                neg = tbox.negated_definitions.get(expr.operand.iri)
                if neg is not None and neg not in label:
                    problems.append(f"{where}: negative unfolding missing")
            elif isinstance(expr, Universal):
                for target in neighbours(node.id, expr.role):
                    if expr.filler not in node_by_id[target].label:
                        problems.append(f"{where}: universal not propagated")
                for trans in tbox.transitive_roles:
                    if expr.role in subsumers(trans):
                        again = Universal(trans, expr.filler)
                        for target in neighbours(node.id, trans):
                            if again not in node_by_id[target].label:
                                problems.append(
                                    f"{where}: transitive universal missing")
            elif isinstance(expr, Existential):
                if is_blocked(node.id):
                    continue
                if not any(expr.filler in node_by_id[t].label
                           for t in neighbours(node.id, expr.role)):
                    problems.append(f"{where}: existential unwitnessed")
    return problems
