"""Immutable in-memory ontology model.

Entities, concept and role expressions, axioms, and the Ontology value type,
plus the signature/counting/usage queries everything else is built on. An
`Iri` is a validated `str`. Entities, expressions, literals and axioms are
`_Value` records: tuples of their type's name and their fields, which hash
and compare in C. The Ontology is a plain frozen class whose equality ignores
order. Construction validates invariants, and no operation mutates its
inputs. The only thing written after construction is an Ontology's cache of
what is derived from it (`_derive`): its signature, and what the reasoner
compiles from it. The cache is never compared, printed, copied or pickled.
"""

from __future__ import annotations

import enum
import re
from collections import _tuplegetter
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


class Iri(str):
    """An absolute IRI: its text, checked to be non-empty and free of
    whitespace. Hashing, equality and ordering are `str`'s own, so an `Iri`
    equals and hashes like its text."""

    __slots__ = ()

    def __new__(cls, value: str):
        if not value or _WHITESPACE(value):
            raise ValueError(f"invalid IRI: {value!r}")
        return str.__new__(cls, value)

    @property
    def value(self) -> str:
        """The text, as a plain `str`."""
        return str(self)

    @property
    def fragment(self) -> str:
        """Text after '#', or the last path segment when there is no fragment."""
        if "#" in self:
            return self.rsplit("#", 1)[1]
        return self.rstrip("/").rsplit("/", 1)[-1]

    def __repr__(self) -> str:
        return f"Iri(value={str.__repr__(self)})"


OWL_THING = Iri(OWL_NS + "Thing")
OWL_NOTHING = Iri(OWL_NS + "Nothing")
XSD_STRING = Iri(XSD_NS + "string")

#: Concept IRIs that are built in and never counted as declared entities.
BUILTIN_CONCEPTS = frozenset({OWL_THING, OWL_NOTHING})


class EntityKind(str, enum.Enum):
    # Values double as the functional-syntax declaration keywords. The str
    # mixin hashes and compares a kind in C, as its keyword string: a kind
    # equals its keyword and orders like it.
    CONCEPT = "Class"
    OBJECT_ROLE = "ObjectProperty"
    DATA_ROLE = "DataProperty"
    ANNOTATION_ROLE = "AnnotationProperty"
    INDIVIDUAL = "NamedIndividual"
    DATATYPE = "Datatype"


KIND_ORDER = {kind: index for index, kind in enumerate(EntityKind)}

_tuple_new = tuple.__new__


class _Value(tuple):
    """An immutable record: the tuple of its type's name and its fields.

    A subclass sets `__slots__ = ()` and declares its fields as annotations;
    each field is read by a `_tuplegetter`, as a namedtuple's is. Hashing,
    equality and ordering are the tuple's own, in C, over a whole expression
    tree. The leading name keeps types with equal fields apart and hashes
    like its text, so a hash depends on the hash seed alone. The repr is
    `Type(field=value, ...)`. A subclass whose fields have defaults or are
    checked declares them in its own `__new__`, which Python binds. A
    subclass made with `cached=True` sets no `__slots__`, so its instances
    keep a dict for what is not a field: values a `cached_property` computes
    once, or what a verdict carries beside its fields. No attribute can be
    assigned or deleted."""

    __slots__ = ()

    def __init_subclass__(cls, cached: bool = False):
        super().__init_subclass__()
        if ("__slots__" in cls.__dict__) == cached:
            raise TypeError(f"{cls.__name__} must set __slots__ = () unless made with cached=True")
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = names
        for index, name in enumerate(names, 1):
            setattr(cls, name, _tuplegetter(index, None))
        cls._repr = f"{cls.__name__}({', '.join(name + '={!r}' for name in names)})".format

    def __new__(cls, *fields, **named):
        if named or len(fields) != len(cls.__match_args__):
            fields = cls._bind(fields, named)
        return _tuple_new(cls, (cls.__name__,) + fields)

    @classmethod
    def _bind(cls, fields: tuple, named: dict) -> tuple:
        """The fields of a call that names some or gives the wrong number."""
        names = cls.__match_args__
        # With the count right, a field given twice or an unknown one leaves
        # a field after the positional ones unnamed.
        if len(fields) + len(named) == len(names):
            try:
                return fields + tuple(map(named.__getitem__, names[len(fields):]))
            except KeyError:
                pass
        raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)}), "
                        f"not {len(fields)} positional and {sorted(named)} by name")

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return self._repr(*self[1:])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Entity(_Value):
    __slots__ = ()
    kind: EntityKind
    iri: Iri

    def sort_key(self) -> tuple[int, Iri]:
        return (KIND_ORDER[self.kind], self.iri)


# ---------------------------------------------------------------------------
# Concept and role expressions
# ---------------------------------------------------------------------------


class RoleExpression:
    """Base for role expressions: a named role or the inverse of a named role."""

    __slots__ = ()
    iri: Iri


class NamedRole(RoleExpression, _Value):
    __slots__ = ()
    iri: Iri


class InverseRole(RoleExpression, _Value):
    """The inverse of the named role `iri`; a double inverse is unrepresentable."""

    __slots__ = ()
    iri: Iri


def inverse_of(role: RoleExpression) -> RoleExpression:
    if isinstance(role, NamedRole):
        return InverseRole(role.iri)
    return NamedRole(role.iri)


class ConceptExpression:
    """Base for the concept language (finite expression trees)."""

    __slots__ = ()


class Top(ConceptExpression, _Value):
    __slots__ = ()


class Bottom(ConceptExpression, _Value):
    __slots__ = ()


class Named(ConceptExpression, _Value):
    __slots__ = ()
    iri: Iri


def _at_least_two(cls: type, operands: Iterable, noun: str) -> _Value:
    operands = tuple(operands)
    if len(operands) < 2:
        raise ValueError(f"{cls.__name__} needs at least 2 {noun}")
    return _tuple_new(cls, (cls.__name__, operands))


class Intersection(ConceptExpression, _Value):
    __slots__ = ()
    operands: tuple[ConceptExpression, ...]

    def __new__(cls, operands: Iterable[ConceptExpression]):
        return _at_least_two(cls, operands, "operands")


class Union(ConceptExpression, _Value):
    __slots__ = ()
    operands: tuple[ConceptExpression, ...]

    def __new__(cls, operands: Iterable[ConceptExpression]):
        return _at_least_two(cls, operands, "operands")


class Complement(ConceptExpression, _Value):
    __slots__ = ()
    operand: ConceptExpression


class Existential(ConceptExpression, _Value):
    __slots__ = ()
    role: RoleExpression
    filler: ConceptExpression


class Universal(ConceptExpression, _Value):
    __slots__ = ()
    role: RoleExpression
    filler: ConceptExpression


class Literal(_Value):
    """A data value; the datatype defaults to the plain-text type (xsd:string)."""

    __slots__ = ()
    lexical: str
    datatype: Iri

    def __new__(cls, lexical: str, datatype: Iri = XSD_STRING):
        return _tuple_new(cls, (cls.__name__, lexical, datatype))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


class Axiom:
    """Base for all axiom kinds; instances are frozen and structurally comparable."""

    __slots__ = ()


class SubConceptOf(Axiom, _Value):
    __slots__ = ()
    sub: ConceptExpression
    sup: ConceptExpression


class EquivalentConcepts(Axiom, _Value):
    __slots__ = ()
    operands: tuple[ConceptExpression, ...]

    def __new__(cls, operands: Iterable[ConceptExpression]):
        return _at_least_two(cls, operands, "members")


class DisjointConcepts(Axiom, _Value):
    __slots__ = ()
    operands: tuple[ConceptExpression, ...]

    def __new__(cls, operands: Iterable[ConceptExpression]):
        return _at_least_two(cls, operands, "members")


class SubRoleOf(Axiom, _Value):
    __slots__ = ()
    sub: Iri
    sup: Iri


class InverseRoles(Axiom, _Value):
    __slots__ = ()
    first: Iri
    second: Iri


class TransitiveRole(Axiom, _Value):
    __slots__ = ()
    role: Iri


class RoleDomain(Axiom, _Value):
    __slots__ = ()
    role: Iri
    concept: ConceptExpression


class RoleRange(Axiom, _Value):
    __slots__ = ()
    role: Iri
    concept: ConceptExpression


class ConceptAssertion(Axiom, _Value):
    __slots__ = ()
    concept: ConceptExpression
    individual: Iri


class RoleAssertion(Axiom, _Value):
    __slots__ = ()
    role: Iri
    subject: Iri
    object: Iri


class DataAssertion(Axiom, _Value):
    __slots__ = ()
    role: Iri
    subject: Iri
    value: Literal


class AnnotationAssertion(Axiom, _Value):
    __slots__ = ()
    role: Iri
    subject: Iri
    value: Literal


class Declaration(Axiom, _Value):
    __slots__ = ()
    entity: Entity


# ---------------------------------------------------------------------------
# Reference extraction (shared by signature, usages, and strict checking)
# ---------------------------------------------------------------------------


def subexpressions(expr: ConceptExpression) -> Iterator[ConceptExpression]:
    """`expr` and every concept expression inside it, in pre-order with
    operands left to right: the order references are reported in, which
    decides the order of auto-declaration warnings."""
    stack: list[ConceptExpression] = []
    while True:
        yield expr
        if isinstance(expr, Named):
            pass  # the commonest expression, a leaf, is tested for first
        elif isinstance(expr, (Intersection, Union)):
            stack.extend(reversed(expr.operands))
        elif isinstance(expr, Complement):
            stack.append(expr.operand)
        elif isinstance(expr, (Existential, Universal)):
            stack.append(expr.filler)
        if not stack:
            return
        expr = stack.pop()


def _expr_refs(expr: ConceptExpression) -> Iterator[tuple[EntityKind, Iri]]:
    for part in subexpressions(expr):
        if isinstance(part, Named):
            if part.iri not in BUILTIN_CONCEPTS:
                yield (EntityKind.CONCEPT, part.iri)
        elif isinstance(part, (Existential, Universal)):
            yield (EntityKind.OBJECT_ROLE, part.role.iri)


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


class Ontology:
    """A set of axioms over declared entities, with a prefix map.

    Axiom storage is an ordered set: insertion order is preserved and
    duplicates are dropped, so serialization and site generation stay
    deterministic. Structural equality ignores axiom order, prefix order,
    and recorded warnings. Fields cannot be assigned.
    """

    def __init__(self, iri: Iri, prefixes: Iterable[tuple[str, str]] = (),
                 axioms: Iterable[Axiom] = (), strict: bool = False,
                 warnings: Iterable[str] = ()):
        vars(self).update(
            iri=iri,
            prefixes=tuple(sorted(dict(prefixes).items())),
            axioms=tuple(axioms),
            strict=strict,
            warnings=tuple(warnings),
            # Every value derived from this instance, made once (`_derive`);
            # an operation that changes the axioms builds a new Ontology.
            _derived={},
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"Ontology(iri={self.iri!r}, prefixes={self.prefixes!r}, "
                f"axioms={self.axioms!r}, strict={self.strict!r}, warnings={self.warnings!r})")

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
        # A copy or an unpickled instance derives afresh: the cache is kept
        # with this instance, not part of its value.
        state = dict(self.__dict__)
        state["_derived"] = {}
        return state


def _derive(ontology: Ontology, make, key=None):
    """`make(ontology)`, made on first use and kept in the instance's cache
    under `key` (by default `make` itself). A value is stored only once it
    is complete, and the first one stored is the one every caller gets: two
    threads that make it at once both return the kept one. A `make` that
    raises stores nothing."""
    derived = ontology._derived
    key = make if key is None else key
    if key not in derived:
        derived.setdefault(key, make(ontology))
    return derived[key]


def _declared_by_kind(axioms: Iterable[Axiom]) -> dict[EntityKind, set[Iri]]:
    declared: dict[EntityKind, set[Iri]] = {kind: set() for kind in EntityKind}
    for axiom in axioms:
        if isinstance(axiom, Declaration):
            declared[axiom.entity.kind].add(axiom.entity.iri)
    return declared


def _admit(axiom: Axiom, known: dict[EntityKind, set[Iri]], strict: bool,
           warnings: list[str]) -> None:
    """Check the typed references of `axiom`, not a declaration, against
    `known`, the IRIs of each kind declared so far. In strict mode a new
    one raises; in lenient mode it is auto-declared: added to `known`, with
    a warning."""
    for kind, iri in axiom_references(axiom):
        if kind is not None:
            iris = known[kind]
            if iri not in iris:
                if strict:
                    raise UndeclaredEntityError(f"undeclared entity: {kind.value} <{iri}>")
                iris.add(iri)
                warnings.append(f"auto-declared {kind.value} <{iri}>")


def _admitted(axioms: tuple[Axiom, ...], strict: bool
              ) -> tuple[dict[EntityKind, set[Iri]], list[str]]:
    """One walk over the references of the axioms that are not declarations:
    the entities per kind and the auto-declaration warnings. Declarations
    count wherever they stand. A strict walk that returns has met only
    declared entities, so in both modes the entities are the signature."""
    known = _declared_by_kind(axioms)
    warnings: list[str] = []
    for axiom in axioms:
        if not isinstance(axiom, Declaration):
            _admit(axiom, known, strict, warnings)
    return known, warnings


def _entities(ontology: Ontology) -> dict[EntityKind, set[Iri]]:
    """The signature as one unsorted set of IRIs per kind, read through
    `_derive`. `make_ontology` and `add_axioms` hand theirs over; an
    instance built directly walks its axioms for it on first use."""
    return _admitted(ontology.axioms, strict=False)[0]


def _with_entities(ontology: Ontology, entities: dict[EntityKind, set[Iri]]) -> Ontology:
    ontology._derived[_entities] = entities
    return ontology


def add_axiom(ontology: Ontology, axiom: Axiom) -> Ontology:
    """Return an ontology containing `axiom`; a duplicate add is a no-op.

    In strict mode every typed entity the axiom references must already be
    declared (or be the axiom's own declaration).
    """
    return add_axioms(ontology, (axiom,))


def add_axioms(ontology: Ontology, axioms: Iterable[Axiom]) -> Ontology:
    """Return an ontology containing each of `axioms`: the result of adding
    them one at a time with `add_axiom`, the same axioms in the same order
    with the same warnings, built in one step. Only the added axioms are
    walked; the signature is carried forward from `ontology`."""
    present = set(ontology.axioms)
    added = tuple(a for a in dict.fromkeys(axioms) if a not in present)
    if not added:
        return ontology
    known = {kind: set(iris) for kind, iris in _derive(ontology, _entities).items()}
    # Strict mode checks against the declarations made so far, lenient mode
    # against the signature so far.
    declared = _declared_by_kind(ontology.axioms) if ontology.strict else known
    warnings = list(ontology.warnings)
    for axiom in added:
        if isinstance(axiom, Declaration):
            known[axiom.entity.kind].add(axiom.entity.iri)
            declared[axiom.entity.kind].add(axiom.entity.iri)
        else:
            _admit(axiom, declared, ontology.strict, warnings)
    return _with_entities(Ontology(
        iri=ontology.iri,
        prefixes=ontology.prefixes,
        axioms=ontology.axioms + added,
        strict=ontology.strict,
        warnings=tuple(warnings),
    ), known)


def make_ontology(
    iri: Iri,
    prefixes: Iterable[tuple[str, str]] = (),
    axioms: Iterable[Axiom] = (),
    strict: bool = False,
) -> Ontology:
    """Build an ontology from an axiom stream.

    Deduplicates while preserving first-occurrence order. Strict validation is
    whole-set (declarations may appear anywhere in the stream); lenient mode
    records one auto-declaration warning per undeclared entity. The one walk
    over the references that does either also yields the signature, which
    the instance keeps unsorted until `signature` is first asked.
    """
    ordered = tuple(dict.fromkeys(axioms))
    entities, warnings = _admitted(ordered, strict)
    return _with_entities(Ontology(iri=iri, prefixes=tuple(prefixes), axioms=ordered,
                                   strict=strict, warnings=tuple(warnings)), entities)


# ---------------------------------------------------------------------------
# Signature queries
# ---------------------------------------------------------------------------


def signature(ontology: Ontology) -> tuple[Entity, ...]:
    """All entities declared or referenced, ordered by (kind, IRI text).

    Sorted on the first call and kept on the instance, from the entities
    that the operation building it collected (see `_entities`).
    """
    return _derive(ontology, _sorted_signature)


def _sorted_signature(ontology: Ontology) -> tuple[Entity, ...]:
    return _sorted_entities(_derive(ontology, _entities))


def _sorted_entities(entities: dict[EntityKind, set[Iri]]) -> tuple[Entity, ...]:
    """The entities in `Entity.sort_key` order: kind by kind, each kind's
    IRIs sorted as text."""
    return tuple(Entity(kind, iri) for kind in EntityKind for iri in sorted(entities[kind]))


def declared_entities(ontology: Ontology) -> tuple[Entity, ...]:
    """The declared-entity set: explicit declarations, plus (in lenient mode)
    every typed reference, which the ontology treats as auto-declared."""
    if ontology.strict:
        return _sorted_entities(_declared_by_kind(ontology.axioms))
    return signature(ontology)


class EntityCounts(_Value):
    __slots__ = ()
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


#: The IRI of the bundled disease ontology (`ontokit.disease`), which keys
#: the published counts below.
DISEASE_IRI = "http://www.disintel.lk/ontologies/disease.owl"

#: Entity counts reported by the published description of the disease
#: ontology. The class count follows the published convention of including
#: the built-in top concept; the bundled build derives 24 named concepts (25
#: with top) and 9 object properties from the source text, so `stats`
#: reports the deviation. They live here, beside the counts they are
#: compared with, so that the CLI does not import the ontology's builder.
PUBLISHED_COUNTS = {
    "concepts_including_top": 26,
    "object_roles": 10,
    "data_roles": 1,
    "annotation_roles": 1,
    "individuals": 1,
    "datatypes": 1,
}


def published_reference() -> dict[str, dict[str, int]]:
    """Published entity counts keyed by ontology IRI, for `stats` deviation notes."""
    return {DISEASE_IRI: dict(PUBLISHED_COUNTS)}


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
