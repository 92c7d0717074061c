"""Tableau-based description-logic engine.

Covers ALC plus role hierarchies, inverse roles, and transitive roles:
concept satisfiability, subsumption, classification, ABox consistency,
realization, and instance retrieval. The tableau uses lazy unfolding for
definitional equivalences; absorption for inclusions whose left-hand side
is or has as a conjunct a primitive name, or is an existential over one;
edge triggers for domains and ranges; and internalized disjunctions for
everything else.

The tableau itself lives in `tableau.py`. Each compiled TBox carries a
`ConceptTable` that interns every concept and role it meets as an int id,
so node labels are int sets. Expansion is driven by an agenda: a concept
added to a label is queued once, and a new edge queues again only the
universals at its two ends, instead of every rule rescanning every node.
The order is fixed: the deterministic rules (conjunctions, unfolding,
domain constraints and universals) to a fixpoint, then the first open
disjunction, then one existential, each picked by (node, rank) with an
id's rank the repr of its expression. The branches,
witnesses and verdicts therefore do not depend on hash seeds or id order.
Each label entry carries the set of choices it depends on: the search
backjumps past choices a clash does not depend on, and an entry that
depends on none is an entailment, which classification and the ABox
queries read off instead of testing it (`_decided`).

The compiled TBox and its role closure read no assertion. Every run goes
through `tableau._run`, which holds the one blocking rule: a run blocks by
equality when the TBox has inverse flows (`uses_inverse`, set only by
`normalize`) or an inverse role occurs in the concepts it starts from, a
query or the ABox's assertions, as the table records for each id it
interns.

Each Ontology instance keeps what reasoning derives from it in its one
cache (`model._derive`), each part made on first use: the closure of its
role hierarchy (`_role_closure`), which role-filler queries read without
compiling a TBox; the closure of its told subsumptions, which
classification and the asserted taxonomy share; the compiled ABox
(`_compile`): the compiled TBox with its `ConceptTable`, the sorted
individuals and the NNF assertions on root indices; and the consistency
check's labels of ids per `ReasonerLimits`, made from that kept ABox. So
`is_consistent`, `classify`, `realize`, `entailed_types` and `instances_of`
compile the TBox and check consistency once per instance and limits, not
once per call. Public `normalize` still returns a fresh `NormalizedTBox`.
The cache lives and dies with its instance: `add_axiom` returns a new
instance with no reasoning part, and a copy or an unpickled instance
starts with an empty cache.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from operator import and_, or_
from typing import Container, Hashable, Iterable, Optional, Sequence

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
    add_axioms,
    inverse_of,
    subexpressions,
    _Value,
    _derive,
    _entities,
)
from .tableau import (  # the witness types, limits and graph are also reached from here
    DEFAULT_LIMITS,
    CompletionGraph,
    ConceptTable,
    GraphEdge,
    GraphNode,
    ReasonerLimits,
    ResourceLimitExceeded,
    SatResult,
    _Graph,
    _run,
)
from .taxonomy import Taxonomy, _bits, build_taxonomy, close_subsumers


class InconsistentOntologyError(Exception):
    """Raised by operations whose precondition is a consistent ontology."""


class UnsupportedAxiomError(Exception):
    """Raised by normalize on an axiom kind outside the supported fragment."""


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


class NormalizedTBox(_Value, cached=True):
    """Compiled TBox.

    `definitions` holds unfoldable equivalences (unique, acyclic); all other
    logical concept axioms live in `general_inclusions` as NNF pairs. The
    remaining fields are the evaluation form the tableau runs on, derived
    from the general inclusions (see `normalize`): additions triggered by a
    primitive name, edge triggers for domains `(R, C)` and ranges
    `(R⁻, C)`, per-node constraints, and internalized disjunctions for the
    rest. `uses_inverse`, set by an `InverseRoles` axiom, an inverse role
    in a general inclusion or a definition, or role absorption, makes the
    tableau block by equality. No field reads an assertion.
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

    def subsumers_of(self, role: RoleExpression) -> frozenset[RoleExpression]:
        return self.role_subsumers.get(role, frozenset((role,)))

    @cached_property
    def table(self) -> ConceptTable:
        """The int-coded form the tableau runs on; it lives and dies with
        this TBox."""
        return ConceptTable(self)


def _has_inverse(concepts: Iterable[ConceptExpression]) -> bool:
    """Whether an inverse role occurs in any of the concepts."""
    return any(isinstance(part, (Existential, Universal)) and isinstance(part.role, InverseRole)
               for concept in concepts for part in subexpressions(concept))


def _absorption(lhs: ConceptExpression, rhs: ConceptExpression,
                definitions: Container[Iri]) -> Optional[tuple[Iri, ConceptExpression]]:
    """Where the NNF inclusion `lhs ⊑ rhs` absorbs, as a primitive name (one
    without a definition; NNF has no built-in names) and what the tableau
    adds where that name is, or None. A primitive name adds `rhs`; an
    intersection with the primitive conjunct `P` (the first in operand
    order) adds `¬rest ⊔ rhs` at `P`, where `rest` is the other distinct
    operands, or `rhs` itself when there are none (`P ⊓ P`); and
    `∃R.C ⊑ rhs`, with `C` either of those, is `C ⊑ ∀R⁻.rhs` absorbed the
    same way."""
    if isinstance(lhs, Named) and lhs.iri not in definitions:
        return lhs.iri, rhs
    if isinstance(lhs, Intersection):
        for op in lhs.operands:
            if isinstance(op, Named) and op.iri not in definitions:
                rest = tuple(dict.fromkeys(other for other in lhs.operands if other != op))
                if not rest:
                    return op.iri, rhs
                rest_expr = rest[0] if len(rest) == 1 else Intersection(rest)
                return op.iri, Union((_nnf_complement(rest_expr), rhs))
    if isinstance(lhs, Existential) and isinstance(lhs.filler, (Named, Intersection)):
        return _absorption(lhs.filler, Universal(inverse_of(lhs.role), rhs), definitions)
    return None


def _closure(direct: dict[Hashable, set]) -> dict[Hashable, frozenset]:
    """The reflexive-transitive closure of a relation given as each key's
    direct successors, with every successor also a key. One stack search
    per key, in key order, that takes a key already closed whole instead of
    searching past it."""
    closed: dict[Hashable, frozenset] = {}
    for key in direct:
        reached = {key}
        stack = [key]
        while stack:
            for nxt in direct[stack.pop()]:
                if nxt in reached:
                    continue
                done = closed.get(nxt)
                if done is None:
                    reached.add(nxt)
                    stack.append(nxt)
                else:
                    reached |= done
        closed[key] = frozenset(reached)
    return closed


def _role_closure(ontology: Ontology) -> tuple[dict, frozenset]:
    """The role hierarchy closed under inverses, read off the role axioms
    alone (`SubRoleOf`, `InverseRoles`, `TransitiveRole`): each role
    expression they name -> its subsumers, itself included, and the
    transitive role expressions. A role they do not name has no entry, and
    every reader takes it as its own only subsumer."""
    direct: dict[RoleExpression, set[RoleExpression]] = {}
    transitive_seed: list[RoleExpression] = []
    for axiom in ontology.axioms:
        if isinstance(axiom, SubRoleOf):
            pairs = [(NamedRole(axiom.sub), NamedRole(axiom.sup)),
                     (InverseRole(axiom.sub), InverseRole(axiom.sup))]
        elif isinstance(axiom, InverseRoles):
            r, s = axiom.first, axiom.second
            pairs = [(NamedRole(r), InverseRole(s)), (InverseRole(s), NamedRole(r)),
                     (InverseRole(r), NamedRole(s)), (NamedRole(s), InverseRole(r))]
        elif isinstance(axiom, TransitiveRole):
            # A pair of a role with itself only makes the role a key.
            pairs = [(role, role) for role in (NamedRole(axiom.role), InverseRole(axiom.role))]
            transitive_seed += (role for role, _ in pairs)
        else:
            continue
        for sub, sup in pairs:
            direct.setdefault(sub, set()).add(sup)
            direct.setdefault(sup, set())
    subsumers = _closure(direct)
    # A role equivalent to a transitive role is transitive as well.
    transitive = frozenset(e for e in subsumers for t in transitive_seed
                           if t in subsumers[e] and e in subsumers[t])
    return subsumers, transitive


def normalize(ontology: Ontology) -> NormalizedTBox:
    """Compile the TBox: extract unfoldable definitions, lower everything
    else to NNF general inclusions, close the role hierarchy under inverses,
    and precompute the tableau evaluation form.

    Absorption (Horrocks & Tobies, KR 2000) keeps inclusions off the node
    constraints, which every node must satisfy. An inclusion with a
    primitive named left-hand side is added where that name is; one whose
    left-hand side is an intersection with a primitive conjunct `P` (the
    first in operand order) becomes `¬rest ⊔ rhs` added where `P` is; and
    `∃R.C ⊑ rhs`, with `C` either of those, becomes `C ⊑ ∀R⁻.rhs`,
    absorbed the same way (role absorption), which makes the tableau block
    by equality. Domains `∃R.⊤ ⊑ C` and ranges `⊤ ⊑ ∀R.C` become edge
    triggers (Tsarkov & Horrocks, DL 2004). Each operand of a union
    left-hand side is absorbed on its own, and the operands that do not
    absorb stay one node constraint. A definition `A ≡ C` is demoted to
    `A ⊑ C` and `C ⊑ A` when `C ⊑ A` absorbs as an intersection or an
    existential, so that the tableau adds `A` wherever `C` holds. Lazy
    unfolding never does that, so it could carry none of `A`'s other
    inclusions, and the absence of `A` from a label would prove nothing
    (see `_decided`). Multiple and cyclic definitions are demoted the same
    way. A definition `A ≡ C` is cyclic when `A` occurs in `C`, or in the
    body of a defined name that occurs in `C`, and so on; `_closure` of the
    defined names each body uses finds them."""
    candidates: dict[Iri, list[ConceptExpression]] = {}
    raw_gcis: list[tuple[ConceptExpression, ConceptExpression]] = []
    uses_inverse = False
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
        elif isinstance(axiom, InverseRoles):
            uses_inverse = True
        elif isinstance(axiom, (SubRoleOf, TransitiveRole, Declaration,
                                ConceptAssertion, RoleAssertion, DataAssertion,
                                AnnotationAssertion)):
            pass  # role axioms are handled by the closure; assertions by the ABox
        else:
            raise UnsupportedAxiomError(f"unsupported axiom kind: {type(axiom).__name__}")

    def demote(name: Iri, body: ConceptExpression) -> None:
        raw_gcis.append((Named(name), body))
        raw_gcis.append((body, Named(name)))

    # Unique definitions only; names with several candidate axioms fall back
    # to general inclusions.
    definitions: dict[Iri, ConceptExpression] = {}
    for name in sorted(candidates):
        bodies = candidates[name]
        if len(bodies) == 1:
            definitions[name] = bodies[0]
        else:
            for body in bodies:
                demote(name, body)

    # Cyclic definitions are demoted the same way, and so is every
    # definition whose body can be absorbed.
    uses = {name: {part.iri for part in subexpressions(body)
                   if isinstance(part, Named) and part.iri in definitions}
            for name, body in definitions.items()}
    reach = _closure(uses)
    for name in sorted(name for name, used in uses.items()
                       if any(name in reach[other] for other in used)):
        demote(name, definitions.pop(name))
    for name in sorted(definitions):
        body = to_nnf(definitions[name])
        if isinstance(body, (Intersection, Existential)) \
                and _absorption(body, Named(name), definitions) is not None:
            demote(name, definitions.pop(name))

    general = tuple((to_nnf(lhs), to_nnf(rhs)) for lhs, rhs in raw_gcis)
    uses_inverse = uses_inverse or _has_inverse(itertools.chain(*general, definitions.values()))
    role_subsumers, transitive = _derive(ontology, _role_closure)

    absorbed: dict[Iri, list[ConceptExpression]] = {}
    domain_triggers: list[tuple[RoleExpression, ConceptExpression]] = []
    node_constraints: list[ConceptExpression] = []
    for lhs, rhs in general:
        # Each operand of a union left-hand side is absorbed on its own;
        # the operands that do not absorb stay one inclusion on every node.
        rest = []
        for part in lhs.operands if isinstance(lhs, Union) else (lhs,):
            if isinstance(part, Top) and isinstance(rhs, Universal):  # a range
                domain_triggers.append((inverse_of(rhs.role), rhs.filler))
            elif isinstance(part, Existential) and isinstance(part.filler, Top):
                domain_triggers.append((part.role, rhs))
            elif (found := _absorption(part, rhs, definitions)) is not None:
                absorbed.setdefault(found[0], []).append(found[1])
                # An absorbed ∃R.C puts ∀R⁻.rhs on C's nodes, which subset
                # blocking does not allow.
                uses_inverse |= isinstance(part, Existential)
            else:
                rest.append(part)
        if rest:
            left = rest[0] if len(rest) == 1 else Union(tuple(rest))
            node_constraints.append(
                rhs if isinstance(left, Top) else Union((_nnf_complement(left), rhs)))

    return NormalizedTBox(
        definitions={name: to_nnf(body) for name, body in definitions.items()},
        negated_definitions={name: _nnf_complement(body)
                             for name, body in definitions.items()},
        general_inclusions=general,
        role_subsumers=dict(role_subsumers),  # the caller's own, like the rest
        transitive_roles=transitive,
        absorbed={name: tuple(sorted(exprs, key=repr))
                  for name, exprs in absorbed.items()},
        domain_triggers=tuple(sorted(domain_triggers, key=repr)),
        node_constraints=tuple(sorted(node_constraints, key=repr)),
        uses_inverse=uses_inverse,
    )


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------


def is_satisfiable(
    concept: ConceptExpression,
    tbox: NormalizedTBox,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> SatResult:
    """Decide concept satisfiability w.r.t. the TBox; a Satisfiable verdict
    carries the final completion graph as a witness."""
    tableau, final = _run(tbox.table, 1, [(0, to_nnf(concept))], [], limits)
    return SatResult(False) if final is None else SatResult(True, final, tableau)


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


class _CompiledABox(_Value):
    """The compiled TBox, whose `ConceptTable` gives the ids of every label
    made from this ABox; the sorted individuals; and the NNF concept
    assertions and the role assertions on root indices."""

    __slots__ = ()
    tbox: NormalizedTBox
    individuals: list[Iri]
    root: dict[Iri, int]
    concepts: list[tuple[int, ConceptExpression]]
    edges: list[tuple[int, int, Iri]]


def _compile(ontology: Ontology) -> _CompiledABox:
    """What every ABox query runs on, kept per instance by `_compiled`."""
    tbox = normalize(ontology)
    # Built before the cache holds the TBox, so that two threads never
    # intern into two tables of one TBox.
    tbox.table
    individuals = sorted(_derive(ontology, _entities)[EntityKind.INDIVIDUAL])
    root = {individual: i for i, individual in enumerate(individuals)}
    return _CompiledABox(
        tbox, individuals, root,
        concepts=[(root[axiom.individual], to_nnf(axiom.concept))
                  for axiom in ontology.axioms if isinstance(axiom, ConceptAssertion)],
        edges=[(root[axiom.subject], root[axiom.object], axiom.role)
               for axiom in ontology.axioms if isinstance(axiom, RoleAssertion)])


def _compiled(ontology: Ontology) -> _CompiledABox:
    """`_compile(ontology)`, made once per instance."""
    return _derive(ontology, _compile)


def _abox_labels(
    abox: _CompiledABox,
    limits: ReasonerLimits,
    extra: Iterable[tuple[Iri, ConceptExpression]] = (),
) -> Optional[list[dict[int, int]]]:
    """Tableau consistency of the ABox (one root per individual; no unique
    name assumption) with optional extra concept constraints. Returns the
    label of concept ids of each individual's node in a clash-free
    completion graph, in `abox.individuals` order, or None when there is
    none. With no named individuals the initial graph is empty and trivially
    clash-free."""
    concepts = abox.concepts + [(abox.root[individual], to_nnf(concept))
                                for individual, concept in extra]
    roots = len(abox.individuals)
    _, final = _run(abox.tbox.table, roots, concepts, abox.edges, limits)
    return None if final is None else final.labels[:roots]


def _consistency_labels(ontology: Ontology,
                        limits: ReasonerLimits) -> Optional[list[dict[int, int]]]:
    """The consistency check's labels, checked once per instance and limits
    on the kept compiled ABox, whose table gives their ids."""
    return _derive(ontology, lambda ontology: _abox_labels(_compiled(ontology), limits),
                   (_consistency_labels, limits))


def _consistent_abox(
    ontology: Ontology, limits: ReasonerLimits
) -> tuple[_CompiledABox, dict[Iri, dict[int, int]]]:
    """The compiled ABox and the individuals' labels of ids in the
    consistency check's completion graph, which every ABox query starts
    from. Raises InconsistentOntologyError when there is no such graph."""
    abox = _compiled(ontology)
    labels = _consistency_labels(ontology, limits)
    if labels is None:
        raise InconsistentOntologyError("ontology is inconsistent")
    return abox, dict(zip(abox.individuals, labels))


def is_consistent(ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS) -> bool:
    """ABox consistency. With no named individuals the verdict is True by
    construction."""
    return _consistency_labels(ontology, limits) is not None


def _named_concepts_of(ontology: Ontology) -> list[Iri]:
    return sorted(_derive(ontology, _entities)[EntityKind.CONCEPT] - BUILTIN_CONCEPTS)


def instances_of(
    concept: ConceptExpression,
    ontology: Ontology,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> tuple[Iri, ...]:
    """All individuals whose membership in `concept` is entailed. For a
    named concept, the individual's node in the consistency check's
    completion graph answers without a test where it can (`_abox_entails`)."""
    abox, labels = _consistent_abox(ontology, limits)
    negated = _nnf_complement(concept)
    # owl:Thing is in no label, yet every individual is an instance of it.
    if not isinstance(concept, Named) or concept.iri in BUILTIN_CONCEPTS:
        return tuple(individual for individual in abox.individuals
                     if _abox_labels(abox, limits, extra=[(individual, negated)]) is None)
    reading = _reading([concept.iri], abox.tbox)
    return tuple(individual for individual in abox.individuals
                 if _abox_entails(abox, limits, individual,
                                  _decided(labels[individual], *reading), 1, concept.iri))


def _abox_entails(abox: _CompiledABox, limits: ReasonerLimits, individual: Iri,
                  read: tuple[int, int], bit: int, name: Iri) -> bool:
    """Whether the ABox entails that `individual` belongs to the named
    concept `name`, whose bit is `bit`. `read` is what `_decided` reads off
    the individual's node in the consistency check's graph. It decides
    where it can, a refutation first; otherwise one ABox test does."""
    known, undecided = read
    if not (known | undecided) & bit:
        return False
    if known & bit:
        return True
    return _abox_labels(abox, limits, extra=[(individual, Complement(Named(name)))]) is None


def entailed_types(
    ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS
) -> dict[Iri, tuple[Iri, ...]]:
    """For each individual, every named concept it provably belongs to,
    read off the individual's node in the consistency check's completion
    graph where it can be (see `instances_of`)."""
    abox, labels = _consistent_abox(ontology, limits)
    names = _named_concepts_of(ontology)
    reading = _reading(names, abox.tbox)
    result: dict[Iri, tuple[Iri, ...]] = {}
    for individual, label in labels.items():
        read = _decided(label, *reading)
        result[individual] = tuple(name for i, name in enumerate(names)
                                   if _abox_entails(abox, limits, individual, read, 1 << i, name))
    return result


def realize(
    ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS
) -> dict[Iri, tuple[Iri, ...]]:
    """Most specific named concepts per individual: its entailed named
    types that no other of them is strictly below, sorted, or the built-in
    top concept when it has none. It classifies nothing.

    One `_reading` of every name reads each individual's node in the
    consistency check's completion graph (`_decided`): the names it is
    known to be in, the names only a test can tell, and none else. Only
    these candidates, over all individuals, take part in subsumption. Each
    gets one satisfiability run, read the same way and with its told
    subsumers (`_subsumers_read`, as in `classify`'s pre-pass), and
    `close_subsumers` tests only the pairs that leaves open. An
    unsatisfiable candidate is dropped, and one known to be below a name
    that no individual can have is entailed for none.

    Each individual then visits the candidates' equivalence groups, strict
    subsumers first. A group is entailed when a member is known and
    refuted when a member is outside. An undecided group is tested once,
    on its first member, and only once all its strict subsumers are
    entailed, so a failure prunes everything below it, as the enhanced
    traversal of Baader et al. (1994) does. An undecided group with no
    strict subsumer passes without a test when it is equivalent to ⊤, and
    ⊤ runs only when such a group needs it."""
    abox, labels = _consistent_abox(ontology, limits)
    tbox = abox.tbox
    told = told_subsumers(ontology)
    names = list(told)
    reading = _reading(names, tbox)
    bit = {name: 1 << i for i, name in enumerate(names)}
    reads = [_decided(label, *reading) for label in labels.values()]
    # A name equivalent to ⊤ holds in every model, so no label refutes it.
    unrefuted = reduce(and_, (known | undecided for known, undecided in reads), -1)

    subsumers = [1 << i for i in range(len(names))]  # known, of the candidates
    possible = [0] * len(names)
    candidates = 0
    for i in _bits(reduce(or_, (known | undecided for known, undecided in reads), 0)):
        root = is_satisfiable(Named(names[i]), tbox, limits).root_label
        if root is not None:
            subsumers[i], possible[i] = _subsumers_read(root, told[names[i]], reading, bit)
            unrefuted &= subsumers[i] | possible[i]
            candidates |= 1 << i
    # A pair whose subsumer is no candidate is refuted untested. Where that
    # is wrong, or close_subsumers derives a wrong refutation from it, the
    # subsumee is below a name that no individual has, so it is entailed for
    # none: the subsumers of every name that can be entailed stay exact. The
    # known ones outside the candidates stay too, and bar their subsumees.
    closed = close_subsumers(names, subsumers, [mask & candidates for mask in possible],
                             lambda c, d: is_subsumed_by(Named(c), Named(d), tbox, limits))
    groups: dict[int, int] = {}  # a group's subsumers -> its members
    for i in _bits(candidates):
        groups[closed[i]] = groups.get(closed[i], 0) | 1 << i
    # Strict subsumers first; a group is tested on its first member.
    ordered = [(up & ~members, members, names[(members & -members).bit_length() - 1])
               for up, members in sorted(groups.items(), key=lambda group: group[0].bit_count())]

    @cache
    def top_reading() -> tuple[int, int]:
        return _decided(is_satisfiable(Top(), tbox, limits).root_label, *reading)

    @cache
    def is_top(first: Iri) -> bool:
        if not unrefuted & bit[first]:
            return False
        known, undecided = top_reading()
        return bool(known & bit[first] or undecided & bit[first]
                    and is_subsumed_by(Top(), Named(first), tbox, limits))

    result: dict[Iri, tuple[Iri, ...]] = {}
    for individual, (known, undecided) in zip(labels, reads):
        entailed = above = 0
        for strict, members, first in ordered:
            if members & ~(known | undecided) or strict & ~entailed:
                continue  # a member is refuted, or a strict subsumer is not entailed
            if members & known or not strict and is_top(first) or _abox_labels(
                    abox, limits, extra=[(individual, Complement(Named(first)))]) is None:
                entailed |= members
                above |= strict
        found = sorted(names[i] for i in _bits(entailed & ~above))
        result[individual] = tuple(found) or (OWL_THING,)
    return result


def materialize_inverses(ontology: Ontology) -> Ontology:
    """Close role assertions under declared or sub-role-implied inverses:
    whenever r(a,b) holds and inv(r) ⊑* s for a named s, add s(b,a).
    Idempotent by construction (least fixpoint). Role-filler queries read
    the same closure off the told assertions without building it."""
    role_subsumers, _ = _derive(ontology, _role_closure)
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
    return add_axioms(ontology, sorted(closure - asserted, key=repr))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def told_subsumers(ontology: Ontology) -> dict[Iri, frozenset[Iri]]:
    """Each named concept's told subsumers, itself included: the transitive
    closure of named-to-named subclass axioms and of the named members of
    equivalence axioms. Keys run in told-topological order (fewest told
    subsumers first: a strict subsumer's closure is a proper subset). Made
    once per instance, like the role closure; each call returns a fresh
    dict."""
    return dict(_derive(ontology, _told_closure))


def _told_closure(ontology: Ontology) -> dict[Iri, frozenset[Iri]]:
    direct: dict[Iri, set[Iri]] = {name: set() for name in _named_concepts_of(ontology)}
    for axiom in ontology.axioms:
        if isinstance(axiom, SubConceptOf) and isinstance(axiom.sub, Named) \
                and isinstance(axiom.sup, Named):
            if axiom.sub.iri in direct and axiom.sup.iri in direct:
                direct[axiom.sub.iri].add(axiom.sup.iri)
        elif isinstance(axiom, EquivalentConcepts):
            named_ops = [op.iri for op in axiom.operands
                         if isinstance(op, Named) and op.iri in direct]
            for a in named_ops:
                direct[a].update(named_ops)
    told = _closure(direct)
    return {name: told[name] for name in sorted(told, key=lambda name: (len(told[name]), name))}


def _reading(names: Sequence[Iri], tbox: NormalizedTBox) -> tuple[dict[int, int], int]:
    """How `_decided` reads labels about the named concepts `names`: each
    name's id in `tbox`'s table (a name without one gets a key no label
    has) -> the name's bit, and the bits of the names with a definition."""
    ids = tbox.table.names
    return ({ids.get(name, ~i): 1 << i for i, name in enumerate(names)},
            sum(1 << i for i, name in enumerate(names) if name in tbox.definitions))


def _decided(label: dict[int, int], bits: dict[int, int], defined: int) -> tuple[int, int]:
    """What the node with this label of ids, in a clash-free completion
    graph, shows about its membership in the named concepts of a
    `_reading`, as two bitsets: the names it is in whatever the choices,
    and the names only a tableau test can tell about. It is outside every
    other name.

    In when the name is in the label with an empty dependency set. Such
    an entry was derived from the run's input and the TBox by
    deterministic rules alone, so every model of them puts the node in
    the concept, whichever choices a model makes.

    Outside when the name is absent and primitive. A complete, clash-free
    graph reads as a model in which a primitive name holds exactly at the
    nodes whose label has it, since every inclusion that can put the name
    on a node has been applied wherever its premise holds. A defined name
    is unfolded lazily: the tableau adds its body when the name is in a
    label, never the name when its body holds. In the model the name holds
    wherever its body does, so its absence proves nothing: with
    `I ≡ ∀r.G` and `O ⊑ ∀r.G`, the label of `O` lacks `I` although
    `O ⊑ I`. `normalize` keeps a definition only when its body does not
    absorb; every other one is demoted to two inclusions and counts as
    primitive: its right-to-left half is absorbed into a primitive name `P`
    of the body, a conjunct or an existential's filler, so at every node
    labelled `P` the tableau adds the name, to the node or to its
    predecessors over the existential's role, or refutes the rest of the
    body, and the name holds exactly where it is labelled."""
    known = present = 0
    for concept, deps in label.items():
        bit = bits.get(concept)
        if bit:
            present |= bit
            if not deps:
                known |= bit
    return known, present & ~known | defined & ~present


def classify(ontology: Ontology, limits: ReasonerLimits = DEFAULT_LIMITS) -> Taxonomy:
    """Inferred taxonomy over all named concepts: unsatisfiable names in the
    bottom group, names equivalent to ⊤ in the top group, and the rest
    read off their known subsumers by `build_taxonomy`, with mutually
    subsuming names merged. Independent of axiom order.

    A satisfiability pre-pass tests each name once, and the root label of
    its completion graph gives the name's known and possible subsumers in
    one reading (`_decided`): known where the label entails the name or it
    is a told subsumer, possible where only a test can tell. ⊤'s run
    decides "⊤ ⊑ d" the same way. The builder closes the known subsumers
    and tests only the possible pairs it cannot settle from them."""
    tbox = _compiled(ontology).tbox
    told = told_subsumers(ontology)
    label = {name: is_satisfiable(Named(name), tbox, limits).root_label for name in told}
    bottom = [name for name in told if label[name] is None]
    names = [name for name in told if label[name] is not None]

    def subsumed(sub: ConceptExpression, sup: Iri) -> bool:
        return is_subsumed_by(sub, Named(sup), tbox, limits)

    top: set[Iri] = set()
    if names:
        root = is_satisfiable(Top(), tbox, limits).root_label
        known, undecided = _decided(root, *_reading(names, tbox))
        top = {name for i, name in enumerate(names) if known >> i & 1
               or undecided >> i & 1 and subsumed(Top(), name)}
        names = [name for name in names if name not in top]
    bit = {name: 1 << i for i, name in enumerate(names)}
    reading = _reading(names, tbox)
    rows = [_subsumers_read(label[name], told[name], reading, bit) for name in names]
    return build_taxonomy(names, [known for known, _ in rows], [possible for _, possible in rows],
                          lambda c, d: subsumed(Named(c), d), top_names=top, bottom_names=bottom)


def _subsumers_read(label: dict[int, int], told: Iterable[Iri], reading: tuple[dict[int, int], int],
                    bit: dict[Iri, int]) -> tuple[int, int]:
    """A name's known and possible subsumers, as bitsets over `bit`, read
    off the root label of its satisfiability run and its `told`
    subsumers: known where the label entails a name or it is told,
    possible where only a test can tell."""
    entailed, undecided = _decided(label, *reading)
    told_mask = sum(bit.get(up, 0) for up in told)
    return entailed | told_mask, undecided & ~told_mask
