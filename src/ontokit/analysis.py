"""Reasoner-backed analyses.

Asserted-vs-inferred taxonomy diffing, the probe-class consistency harness,
and retrieval-style competency queries over the role assertions.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator, Optional, Union as TypingUnion

from .model import (
    ConceptExpression,
    EntityKind,
    Intersection,
    InverseRole,
    Iri,
    Named,
    NamedRole,
    Ontology,
    RoleAssertion,
    _Value,
    _derive,
    _entities,
)
from .reasoner import (
    DEFAULT_LIMITS,
    ReasonerLimits,
    Taxonomy,
    _compiled,
    _role_closure,
    build_taxonomy,
    classify,
    instances_of,
    is_satisfiable,
    told_subsumers,
)


class ProbeNameCollisionError(Exception):
    """A probe concept name collides with a declared entity."""


class TaxonomyMismatchError(Exception):
    """Diffed taxonomies do not cover the same concept set."""


class UnknownEntityError(Exception):
    """A query names an entity the ontology does not know."""


# ---------------------------------------------------------------------------
# Asserted taxonomy and hierarchy diff
# ---------------------------------------------------------------------------


def asserted_taxonomy(ontology: Ontology) -> Taxonomy:
    """Taxonomy from told subsumptions between named concepts (plus the
    named-to-named halves of equivalences); no reasoning involved."""
    told = told_subsumers(ontology)
    bit = {name: 1 << i for i, name in enumerate(told)}
    return build_taxonomy(list(told), [sum(map(bit.__getitem__, ups)) for ups in told.values()])


class HierarchyDiff(_Value):
    __slots__ = ()
    added_parent_links: tuple[tuple[Iri, Iri], ...]
    removed_parent_links: tuple[tuple[Iri, Iri], ...]
    new_equivalences: tuple[tuple[Iri, Iri], ...]

    @property
    def empty(self) -> bool:
        return not (self.added_parent_links or self.removed_parent_links
                    or self.new_equivalences)


def _equivalence_pairs(taxonomy: Taxonomy) -> frozenset[tuple[Iri, Iri]]:
    return frozenset(pair for members in taxonomy.groups
                     for pair in itertools.combinations(members, 2))


def diff_taxonomies(asserted: Taxonomy, inferred: Taxonomy) -> HierarchyDiff:
    """Direct links present on one side but missing from the other side's
    transitive closure, plus newly merged equivalence groups."""
    if set(asserted.concepts()) != set(inferred.concepts()):
        raise TaxonomyMismatchError("taxonomies cover different concept sets")
    added = sorted(_links_outside(inferred, asserted))
    removed = sorted(_links_outside(asserted, inferred))
    new_equiv = sorted(_equivalence_pairs(inferred) - _equivalence_pairs(asserted))
    return HierarchyDiff(tuple(added), tuple(removed), tuple(new_equiv))


def _links_outside(one: Taxonomy, other: Taxonomy) -> Iterator[tuple[Iri, Iri]]:
    """`one`'s direct named links (c, d) with no c ⊑ d in `other`: d's group
    in `other` is neither c's nor above it. Each group's ancestry is walked
    once."""
    above: dict[int, set[int]] = {}  # a group of `other` -> it and its ancestors
    for c, d in one.named_links():
        group = other.group_of(c)
        if group not in above:
            above[group] = other._reach(group, other._parents) | {group}
        if other.group_of(d) not in above[group]:
            yield c, d


# ---------------------------------------------------------------------------
# Probe classes
# ---------------------------------------------------------------------------


class ProbeSpec(_Value):
    """A fresh concept name placed beneath the listed superclasses."""

    __slots__ = ()
    name: str
    supers: tuple[str, ...]

    def __new__(cls, name: str, supers: Iterable[str]):
        supers = tuple(supers)
        if len(supers) < 2:
            raise ValueError("a probe needs at least 2 superclasses")
        return super().__new__(cls, name, supers)


class ProbeResult(_Value):
    __slots__ = ()
    probe: ProbeSpec
    satisfiable: bool


def parse_probe_file(text: str) -> list[ProbeSpec]:
    """One probe per line: "Name: Super1, Super2, ..."; '#' comments allowed.
    A line with no name part defaults to ProbeType<n>."""
    probes: list[ProbeSpec] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, rest = line.partition(":")
        if not sep:
            name, rest = f"ProbeType{len(probes) + 1}", name
        supers = tuple(s.strip() for s in rest.split(",") if s.strip())
        if not name.strip() or len(supers) < 2:
            raise ValueError(f"malformed probe line: {raw!r}")
        probes.append(ProbeSpec(name.strip(), supers))
    return probes


def _fragment_index(ontology: Ontology, kind: EntityKind) -> dict[str, Iri]:
    """Each fragment of the IRIs of `kind` -> the least IRI with it."""
    index: dict[str, Iri] = {}
    for iri in sorted(_derive(ontology, _entities)[kind]):
        index.setdefault(iri.fragment, iri)
    return index


def run_probes(
    ontology: Ontology,
    probes: Iterable[ProbeSpec],
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> list[ProbeResult]:
    """Satisfiability of each probe beneath its superclasses. A fresh
    primitive `P ⊑ S1 ⊓ … ⊓ Sk` is satisfiable iff `S1 ⊓ … ⊓ Sk` is, so
    each probe tests that intersection on the ontology's own compiled TBox;
    the input ontology is left untouched."""
    concepts = _fragment_index(ontology, EntityKind.CONCEPT)
    taken = {iri.fragment for iris in _derive(ontology, _entities).values() for iri in iris}
    results: list[ProbeResult] = []
    for probe in probes:
        if probe.name in taken:
            raise ProbeNameCollisionError(
                f"probe name collides with a declared entity: {probe.name}")
        for super_name in probe.supers:
            if super_name not in concepts:
                raise UnknownEntityError(f"unknown superclass: {super_name}")
        supers = Intersection(tuple(Named(concepts[name]) for name in probe.supers))
        verdict = is_satisfiable(supers, _compiled(ontology).tbox, limits)
        results.append(ProbeResult(probe, verdict.satisfiable))
    return results


# ---------------------------------------------------------------------------
# Competency queries
# ---------------------------------------------------------------------------


class QueryKind(enum.Enum):
    SYMPTOMS_OF = "SymptomsOf"
    DISEASES_WITH_SYMPTOM = "DiseasesWithSymptom"
    PREVENTIONS_OF = "PreventionsOf"
    AREAS_OF = "AreasOf"
    STRUCTURES_OF = "StructuresOf"
    GENETICS_OF = "GeneticsOf"
    SUB_CONCEPTS_OF = "SubConceptsOf"
    SUPER_CONCEPTS_OF = "SuperConceptsOf"
    INSTANCES_OF = "InstancesOf"
    FILLERS_OF = "FillersOf"


_ROLE_OF_KIND = {
    QueryKind.SYMPTOMS_OF: "hasSymptoms",
    QueryKind.DISEASES_WITH_SYMPTOM: "isSymptomsOf",
    QueryKind.PREVENTIONS_OF: "hasPrevention",
    QueryKind.AREAS_OF: "hasArea",
    QueryKind.STRUCTURES_OF: "hasStructure",
    QueryKind.GENETICS_OF: "hasGenetics",
}


class CompetencyQuery(_Value):
    __slots__ = ()
    kind: QueryKind
    subject: TypingUnion[Iri, ConceptExpression]
    role: Optional[Iri]

    def __new__(cls, kind: QueryKind, subject: TypingUnion[Iri, ConceptExpression],
                role: Optional[Iri] = None):
        if (role is not None) != (kind is QueryKind.FILLERS_OF):
            raise ValueError("a role is given exactly when the kind is FillersOf")
        return super().__new__(cls, kind, subject, role)


def _role_fillers(
    ontology: Ontology, subject: Iri, role: Iri
) -> tuple[Iri, ...]:
    """Objects of the role (or a sub-role) from the subject once the role
    assertions are closed under inverses, read off the told assertions: a
    told `r(subject, b)` with `r ⊑* role`, or a told `r(b, subject)` with
    `r⁻ ⊑* role`. Exact, because the role hierarchy is closed under
    inverse: an assertion `materialize_inverses` chains to is already below
    `role` through the told one it came from."""
    subsumers, _ = _derive(ontology, _role_closure)
    target = NamedRole(role)

    def implies(expr) -> bool:
        return expr == target or target in subsumers.get(expr, ())

    fillers = set()
    for axiom in ontology.axioms:
        if isinstance(axiom, RoleAssertion):
            if axiom.subject == subject and implies(NamedRole(axiom.role)):
                fillers.add(axiom.object)
            if axiom.object == subject and implies(InverseRole(axiom.role)):
                fillers.add(axiom.subject)
    return tuple(sorted(fillers))


def answer_competency_query(
    query: CompetencyQuery,
    ontology: Ontology,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> tuple[Iri, ...]:
    """Entities answering the query, sorted by IRI."""
    kind = query.kind
    if kind in _ROLE_OF_KIND or kind is QueryKind.FILLERS_OF:
        subject = query.subject
        if not isinstance(subject, Iri):
            raise UnknownEntityError("FillersOf takes an individual IRI"
                                     if kind is QueryKind.FILLERS_OF
                                     else "role-filler queries take an individual IRI")
        if not any(subject in iris for iris in _derive(ontology, _entities).values()):
            raise UnknownEntityError(f"unknown subject entity: <{subject}>")
        role = query.role or _fragment_index(ontology, EntityKind.OBJECT_ROLE).get(
            _ROLE_OF_KIND[kind])
        return () if role is None else _role_fillers(ontology, subject, role)
    if kind in (QueryKind.SUB_CONCEPTS_OF, QueryKind.SUPER_CONCEPTS_OF):
        subject = query.subject
        if isinstance(subject, Named):
            subject = subject.iri
        if not isinstance(subject, Iri):
            raise UnknownEntityError("taxonomy queries take a named concept")
        taxonomy = classify(ontology, limits)
        if subject not in taxonomy.concepts():
            raise UnknownEntityError(f"unknown concept: <{subject}>")
        if kind is QueryKind.SUPER_CONCEPTS_OF:
            return taxonomy.ancestors_of(subject)
        return taxonomy.descendants_of(subject)
    # INSTANCES_OF
    subject = query.subject
    if isinstance(subject, Iri):
        if subject not in _derive(ontology, _entities)[EntityKind.CONCEPT]:
            raise UnknownEntityError(f"unknown concept: <{subject}>")
        subject = Named(subject)
    return tuple(sorted(instances_of(subject, ontology, limits)))
