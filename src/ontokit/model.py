"""Immutable in-memory ontology model.

Entities, concept and role expressions, axioms, and the Ontology value type,
plus the signature/counting/usage queries everything else is built on. All
types are plain frozen dataclasses: construction validates invariants, and no
operation mutates its inputs. The only things written after construction are
an Ontology's cached signature and the reasoner's compiled context, which are
never compared or printed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


class UndeclaredEntityError(Exception):
    """Raised in strict mode when an axiom uses an entity with no declaration."""


class EntityNotInSignatureError(Exception):
    """Raised when an operation is asked about an entity the ontology never mentions."""


# `\s` in a str pattern matches exactly the characters for which
# str.isspace() is true.
_WHITESPACE = re.compile(r"\s").search


@dataclass(frozen=True, order=True)
class Iri:
    """An absolute IRI. Equality and ordering are on the full text."""

    value: str

    def __post_init__(self):
        if not self.value or _WHITESPACE(self.value):
            raise ValueError(f"invalid IRI: {self.value!r}")

    @property
    def fragment(self) -> str:
        """Text after '#', or the last path segment when there is no fragment."""
        if "#" in self.value:
            return self.value.rsplit("#", 1)[1]
        return self.value.rstrip("/").rsplit("/", 1)[-1]

    def __str__(self) -> str:
        return self.value


OWL_THING = Iri(OWL_NS + "Thing")
OWL_NOTHING = Iri(OWL_NS + "Nothing")
XSD_STRING = Iri(XSD_NS + "string")

#: Concept IRIs that are built in and never counted as declared entities.
BUILTIN_CONCEPTS = frozenset({OWL_THING, OWL_NOTHING})


class EntityKind(enum.Enum):
    # Values double as the functional-syntax declaration keywords.
    CONCEPT = "Class"
    OBJECT_ROLE = "ObjectProperty"
    DATA_ROLE = "DataProperty"
    ANNOTATION_ROLE = "AnnotationProperty"
    INDIVIDUAL = "NamedIndividual"
    DATATYPE = "Datatype"


KIND_ORDER = {kind: index for index, kind in enumerate(EntityKind)}


@dataclass(frozen=True)
class Entity:
    kind: EntityKind
    iri: Iri

    def sort_key(self) -> tuple[int, str]:
        return (KIND_ORDER[self.kind], self.iri.value)


# ---------------------------------------------------------------------------
# Concept and role expressions
# ---------------------------------------------------------------------------


class RoleExpression:
    """Base for role expressions: a named role or the inverse of a named role."""

    iri: Iri


@dataclass(frozen=True)
class NamedRole(RoleExpression):
    iri: Iri


@dataclass(frozen=True)
class InverseRole(RoleExpression):
    """The inverse of the named role `iri`; a double inverse is unrepresentable."""

    iri: Iri


def inverse_of(role: RoleExpression) -> RoleExpression:
    if isinstance(role, NamedRole):
        return InverseRole(role.iri)
    return NamedRole(role.iri)


class ConceptExpression:
    """Base for the concept language (finite expression trees)."""


@dataclass(frozen=True)
class Top(ConceptExpression):
    pass


@dataclass(frozen=True)
class Bottom(ConceptExpression):
    pass


@dataclass(frozen=True)
class Named(ConceptExpression):
    iri: Iri


@dataclass(frozen=True)
class Intersection(ConceptExpression):
    operands: tuple[ConceptExpression, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ValueError("Intersection needs at least 2 operands")


@dataclass(frozen=True)
class Union(ConceptExpression):
    operands: tuple[ConceptExpression, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ValueError("Union needs at least 2 operands")


@dataclass(frozen=True)
class Complement(ConceptExpression):
    operand: ConceptExpression


@dataclass(frozen=True)
class Existential(ConceptExpression):
    role: RoleExpression
    filler: ConceptExpression


@dataclass(frozen=True)
class Universal(ConceptExpression):
    role: RoleExpression
    filler: ConceptExpression


@dataclass(frozen=True)
class Literal:
    """A data value; the datatype defaults to the plain-text type (xsd:string)."""

    lexical: str
    datatype: Iri = XSD_STRING


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


class Axiom:
    """Base for all axiom kinds; instances are frozen and structurally comparable."""


@dataclass(frozen=True)
class SubConceptOf(Axiom):
    sub: ConceptExpression
    sup: ConceptExpression


@dataclass(frozen=True)
class EquivalentConcepts(Axiom):
    operands: tuple[ConceptExpression, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ValueError("EquivalentConcepts needs at least 2 members")


@dataclass(frozen=True)
class DisjointConcepts(Axiom):
    operands: tuple[ConceptExpression, ...]

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ValueError("DisjointConcepts needs at least 2 members")


@dataclass(frozen=True)
class SubRoleOf(Axiom):
    sub: Iri
    sup: Iri


@dataclass(frozen=True)
class InverseRoles(Axiom):
    first: Iri
    second: Iri


@dataclass(frozen=True)
class TransitiveRole(Axiom):
    role: Iri


@dataclass(frozen=True)
class RoleDomain(Axiom):
    role: Iri
    concept: ConceptExpression


@dataclass(frozen=True)
class RoleRange(Axiom):
    role: Iri
    concept: ConceptExpression


@dataclass(frozen=True)
class ConceptAssertion(Axiom):
    concept: ConceptExpression
    individual: Iri


@dataclass(frozen=True)
class RoleAssertion(Axiom):
    role: Iri
    subject: Iri
    object: Iri


@dataclass(frozen=True)
class DataAssertion(Axiom):
    role: Iri
    subject: Iri
    value: Literal


@dataclass(frozen=True)
class AnnotationAssertion(Axiom):
    role: Iri
    subject: Iri
    value: Literal


@dataclass(frozen=True)
class Declaration(Axiom):
    entity: Entity


# ---------------------------------------------------------------------------
# Reference extraction (shared by signature, usages, and strict checking)
# ---------------------------------------------------------------------------


def _expr_refs(expr: ConceptExpression) -> Iterator[tuple[EntityKind, Iri]]:
    if isinstance(expr, Named):
        if expr.iri not in BUILTIN_CONCEPTS:
            yield (EntityKind.CONCEPT, expr.iri)
    elif isinstance(expr, (Intersection, Union)):
        for op in expr.operands:
            yield from _expr_refs(op)
    elif isinstance(expr, Complement):
        yield from _expr_refs(expr.operand)
    elif isinstance(expr, (Existential, Universal)):
        yield (EntityKind.OBJECT_ROLE, expr.role.iri)
        yield from _expr_refs(expr.filler)


def axiom_references(axiom: Axiom) -> Iterator[tuple[Optional[EntityKind], Iri]]:
    """Yield (kind, iri) for every entity position in the axiom.

    A kind of None marks a position compatible with any entity kind
    (annotation subjects), which never forces a declaration.
    """
    if isinstance(axiom, Declaration):
        yield (axiom.entity.kind, axiom.entity.iri)
    elif isinstance(axiom, SubConceptOf):
        yield from _expr_refs(axiom.sub)
        yield from _expr_refs(axiom.sup)
    elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
        for op in axiom.operands:
            yield from _expr_refs(op)
    elif isinstance(axiom, SubRoleOf):
        yield (EntityKind.OBJECT_ROLE, axiom.sub)
        yield (EntityKind.OBJECT_ROLE, axiom.sup)
    elif isinstance(axiom, InverseRoles):
        yield (EntityKind.OBJECT_ROLE, axiom.first)
        yield (EntityKind.OBJECT_ROLE, axiom.second)
    elif isinstance(axiom, TransitiveRole):
        yield (EntityKind.OBJECT_ROLE, axiom.role)
    elif isinstance(axiom, (RoleDomain, RoleRange)):
        yield (EntityKind.OBJECT_ROLE, axiom.role)
        yield from _expr_refs(axiom.concept)
    elif isinstance(axiom, ConceptAssertion):
        yield from _expr_refs(axiom.concept)
        yield (EntityKind.INDIVIDUAL, axiom.individual)
    elif isinstance(axiom, RoleAssertion):
        yield (EntityKind.OBJECT_ROLE, axiom.role)
        yield (EntityKind.INDIVIDUAL, axiom.subject)
        yield (EntityKind.INDIVIDUAL, axiom.object)
    elif isinstance(axiom, DataAssertion):
        yield (EntityKind.DATA_ROLE, axiom.role)
        yield (EntityKind.INDIVIDUAL, axiom.subject)
        yield (EntityKind.DATATYPE, axiom.value.datatype)
    elif isinstance(axiom, AnnotationAssertion):
        yield (EntityKind.ANNOTATION_ROLE, axiom.role)
        yield (None, axiom.subject)
        yield (EntityKind.DATATYPE, axiom.value.datatype)
    else:
        raise TypeError(f"unknown axiom type: {type(axiom).__name__}")


# ---------------------------------------------------------------------------
# Ontology
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ontology:
    """A set of axioms over declared entities, with a prefix map.

    Axiom storage is an ordered set: insertion order is preserved and
    duplicates are dropped, so serialization and site generation stay
    deterministic. Structural equality ignores axiom order, prefix order,
    and recorded warnings.
    """

    iri: Iri
    prefixes: tuple[tuple[str, str], ...] = ()
    axioms: tuple[Axiom, ...] = ()
    strict: bool = False
    warnings: tuple[str, ...] = ()
    # `signature`'s result, kept with the instance it describes; an
    # operation that changes the axioms builds a new Ontology.
    _signature: Optional[tuple[Entity, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    # What the reasoner compiles from this instance (`reasoner._context`),
    # typed loosely so that this module imports nothing from the reasoner.
    _reasoning: Optional[object] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "prefixes", tuple(sorted(dict(self.prefixes).items())))
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def prefix_map(self) -> dict[str, str]:
        return dict(self.prefixes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ontology):
            return NotImplemented
        return (
            self.iri == other.iri
            and dict(self.prefixes) == dict(other.prefixes)
            and frozenset(self.axioms) == frozenset(other.axioms)
        )

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self):
        # A copy or an unpickled instance compiles afresh: the reasoning
        # context is a cache kept with this instance, not part of its value.
        state = dict(self.__dict__)
        state["_reasoning"] = None
        return state


def _declared_set(axioms: Iterable[Axiom]) -> set[Entity]:
    return {a.entity for a in axioms if isinstance(a, Declaration)}


def _check_strict(axiom: Axiom, declared: set[Entity]) -> None:
    if isinstance(axiom, Declaration):
        return
    for kind, iri in axiom_references(axiom):
        if kind is None:
            continue
        if Entity(kind, iri) not in declared:
            raise UndeclaredEntityError(f"undeclared entity: {kind.value} <{iri}>")


def add_axiom(ontology: Ontology, axiom: Axiom) -> Ontology:
    """Return an ontology containing `axiom`; a duplicate add is a no-op.

    In strict mode every typed entity the axiom references must already be
    declared (or be the axiom's own declaration).
    """
    if axiom in ontology.axioms:
        return ontology
    warnings = list(ontology.warnings)
    if ontology.strict:
        declared = _declared_set(ontology.axioms)
        if isinstance(axiom, Declaration):
            declared.add(axiom.entity)
        _check_strict(axiom, declared)
    elif not isinstance(axiom, Declaration):
        known = set(signature(ontology))
        for kind, iri in axiom_references(axiom):
            if kind is not None and Entity(kind, iri) not in known:
                known.add(Entity(kind, iri))
                warnings.append(f"auto-declared {kind.value} <{iri}>")
    return Ontology(
        iri=ontology.iri,
        prefixes=ontology.prefixes,
        axioms=ontology.axioms + (axiom,),
        strict=ontology.strict,
        warnings=tuple(warnings),
    )


def make_ontology(
    iri: Iri,
    prefixes: Iterable[tuple[str, str]] = (),
    axioms: Iterable[Axiom] = (),
    strict: bool = False,
) -> Ontology:
    """Build an ontology from an axiom stream.

    Deduplicates while preserving first-occurrence order. Strict validation is
    whole-set (declarations may appear anywhere in the stream); lenient mode
    records one auto-declaration warning per undeclared entity.
    """
    ordered: list[Axiom] = []
    seen: set[Axiom] = set()
    for a in axioms:
        if a not in seen:
            seen.add(a)
            ordered.append(a)
    declared = _declared_set(ordered)
    warnings: list[str] = []
    if strict:
        for a in ordered:
            _check_strict(a, declared)
    else:
        known = set(declared)
        for a in ordered:
            for kind, ref in axiom_references(a):
                if kind is None or isinstance(a, Declaration):
                    continue
                entity = Entity(kind, ref)
                if entity not in known:
                    known.add(entity)
                    warnings.append(f"auto-declared {kind.value} <{ref}>")
    return Ontology(iri=iri, prefixes=tuple(prefixes), axioms=tuple(ordered),
                    strict=strict, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Signature queries
# ---------------------------------------------------------------------------


def signature(ontology: Ontology) -> tuple[Entity, ...]:
    """All entities declared or referenced, ordered by (kind, IRI text).

    Computed once per Ontology instance and kept on it.
    """
    if ontology._signature is None:
        entities = {Entity(kind, iri) for axiom in ontology.axioms
                    for kind, iri in axiom_references(axiom) if kind is not None}
        object.__setattr__(ontology, "_signature",
                           tuple(sorted(entities, key=Entity.sort_key)))
    return ontology._signature


def declared_entities(ontology: Ontology) -> tuple[Entity, ...]:
    """The declared-entity set: explicit declarations, plus (in lenient mode)
    every typed reference, which the ontology treats as auto-declared."""
    if ontology.strict:
        entities = _declared_set(ontology.axioms)
        return tuple(sorted(entities, key=Entity.sort_key))
    return signature(ontology)


@dataclass(frozen=True)
class EntityCounts:
    concepts: int
    object_roles: int
    data_roles: int
    annotation_roles: int
    individuals: int
    datatypes: int

    @property
    def concepts_including_top(self) -> int:
        """The published-table convention counts the built-in top concept."""
        return self.concepts + 1


def compute_counts(ontology: Ontology) -> EntityCounts:
    """Counts over declared entities; built-in top/bottom concepts excluded."""
    return _counts_of(declared_entities(ontology))


def _counts_of(entities: Iterable[Entity]) -> EntityCounts:
    tally = {kind: 0 for kind in EntityKind}
    for entity in entities:
        if entity.kind is EntityKind.CONCEPT and entity.iri in BUILTIN_CONCEPTS:
            continue
        tally[entity.kind] += 1
    return EntityCounts(
        concepts=tally[EntityKind.CONCEPT],
        object_roles=tally[EntityKind.OBJECT_ROLE],
        data_roles=tally[EntityKind.DATA_ROLE],
        annotation_roles=tally[EntityKind.ANNOTATION_ROLE],
        individuals=tally[EntityKind.INDIVIDUAL],
        datatypes=tally[EntityKind.DATATYPE],
    )


def usages(entity: Entity, ontology: Ontology) -> tuple[Axiom, ...]:
    """Every axiom mentioning the entity in a kind-compatible position, in
    ontology order.

    The entity is in the signature iff some axiom references exactly its kind
    and IRI; an annotation subject alone, compatible with any kind, does not
    put it there."""
    found: list[Axiom] = []
    in_signature = False
    for axiom in ontology.axioms:
        mentioned = False
        for kind, iri in axiom_references(axiom):
            if iri == entity.iri:
                if kind == entity.kind:
                    in_signature = mentioned = True
                    break
                mentioned = mentioned or kind is None
        if mentioned:
            found.append(axiom)
    if not in_signature:
        raise EntityNotInSignatureError(
            f"entity not in signature: {entity.kind.value} <{entity.iri}>"
        )
    return tuple(found)
