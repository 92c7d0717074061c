"""Reasoner-backed analyses.

Asserted-vs-inferred taxonomy diffing, the probe-class consistency harness,
and retrieval-style competency queries over the role assertions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Union as TypingUnion

from .model import (
    ConceptExpression,
    Declaration,
    Entity,
    EntityKind,
    InverseRole,
    Iri,
    Named,
    NamedRole,
    Ontology,
    RoleAssertion,
    SubConceptOf,
    add_axiom,
    signature,
)
from .reasoner import (
    DEFAULT_LIMITS,
    ReasonerLimits,
    Taxonomy,
    _role_closure,
    build_taxonomy,
    classify,
    instances_of,
    is_satisfiable,
    normalize,
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
    return build_taxonomy(told, lambda c, d: d in told[c])


@dataclass(frozen=True)
class HierarchyDiff:
    added_parent_links: tuple[tuple[Iri, Iri], ...]
    removed_parent_links: tuple[tuple[Iri, Iri], ...]
    new_equivalences: tuple[tuple[Iri, Iri], ...]

    @property
    def empty(self) -> bool:
        return not (self.added_parent_links or self.removed_parent_links
                    or self.new_equivalences)


def _equivalence_pairs(taxonomy: Taxonomy) -> frozenset[tuple[Iri, Iri]]:
    pairs: set[tuple[Iri, Iri]] = set()
    for members in taxonomy.groups:
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pairs.add((a, b))
    return frozenset(pairs)


def diff_taxonomies(asserted: Taxonomy, inferred: Taxonomy) -> HierarchyDiff:
    """Direct links present on one side but missing from the other side's
    transitive closure, plus newly merged equivalence groups."""
    if set(asserted.concepts()) != set(inferred.concepts()):
        raise TaxonomyMismatchError("taxonomies cover different concept sets")
    asserted_closure = asserted.closure_pairs()
    inferred_closure = inferred.closure_pairs()
    added = sorted(inferred.named_links() - asserted_closure)
    removed = sorted(asserted.named_links() - inferred_closure)
    new_equiv = sorted(_equivalence_pairs(inferred) - _equivalence_pairs(asserted))
    return HierarchyDiff(tuple(added), tuple(removed), tuple(new_equiv))


# ---------------------------------------------------------------------------
# Probe classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSpec:
    """A fresh concept name placed beneath the listed superclasses."""

    name: str
    supers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "supers", tuple(self.supers))
        if len(self.supers) < 2:
            raise ValueError("a probe needs at least 2 superclasses")


@dataclass(frozen=True)
class ProbeResult:
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
    index: dict[str, Iri] = {}
    for entity in signature(ontology):
        if entity.kind is kind:
            index.setdefault(entity.iri.fragment, entity.iri)
    return index


def _probe_namespace(ontology: Ontology) -> str:
    for prefix, expansion in ontology.prefixes:
        if prefix == "":
            return expansion
    return ontology.iri.value + "#"


def run_probes(
    ontology: Ontology,
    probes: Iterable[ProbeSpec],
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> list[ProbeResult]:
    """Satisfiability of each probe beneath its superclasses. The extension is
    built on a copy and discarded; the input ontology is left untouched."""
    concepts = _fragment_index(ontology, EntityKind.CONCEPT)
    taken = {entity.iri.fragment for entity in signature(ontology)}
    namespace = _probe_namespace(ontology)
    results: list[ProbeResult] = []
    for probe in probes:
        if probe.name in taken:
            raise ProbeNameCollisionError(
                f"probe name collides with a declared entity: {probe.name}")
        probe_iri = Iri(namespace + probe.name)
        extended = add_axiom(
            ontology, Declaration(Entity(EntityKind.CONCEPT, probe_iri)))
        for super_name in probe.supers:
            if super_name not in concepts:
                raise UnknownEntityError(f"unknown superclass: {super_name}")
            extended = add_axiom(
                extended, SubConceptOf(Named(probe_iri), Named(concepts[super_name])))
        verdict = is_satisfiable(Named(probe_iri), normalize(extended), limits)
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


@dataclass(frozen=True)
class CompetencyQuery:
    kind: QueryKind
    subject: TypingUnion[Iri, ConceptExpression]
    role: Optional[Iri] = None

    def __post_init__(self):
        if (self.role is not None) != (self.kind is QueryKind.FILLERS_OF):
            raise ValueError("a role is given exactly when the kind is FillersOf")


def _role_fillers(
    ontology: Ontology, subject: Iri, role: Iri
) -> tuple[Iri, ...]:
    """Objects of the role (or a sub-role) from the subject once the role
    assertions are closed under inverses, read off the told assertions: a
    told `r(subject, b)` with `r ⊑* role`, or a told `r(b, subject)` with
    `r⁻ ⊑* role`. Exact, because the role hierarchy is closed under
    inverse: an assertion `materialize_inverses` chains to is already below
    `role` through the told one it came from."""
    subsumers, _, _ = _role_closure(ontology)
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
    return tuple(sorted(fillers, key=lambda iri: iri.value))


def answer_competency_query(
    query: CompetencyQuery,
    ontology: Ontology,
    limits: ReasonerLimits = DEFAULT_LIMITS,
) -> tuple[Iri, ...]:
    """Entities answering the query, sorted by IRI."""
    kind = query.kind
    if kind in _ROLE_OF_KIND:
        subject = query.subject
        if not isinstance(subject, Iri):
            raise UnknownEntityError("role-filler queries take an individual IRI")
        if not any(e.iri == subject for e in signature(ontology)):
            raise UnknownEntityError(f"unknown subject entity: <{subject}>")
        roles = _fragment_index(ontology, EntityKind.OBJECT_ROLE)
        role = roles.get(_ROLE_OF_KIND[kind])
        if role is None:
            return ()
        return _role_fillers(ontology, subject, role)
    if kind is QueryKind.FILLERS_OF:
        subject = query.subject
        if not isinstance(subject, Iri):
            raise UnknownEntityError("FillersOf takes an individual IRI")
        if not any(e.iri == subject for e in signature(ontology)):
            raise UnknownEntityError(f"unknown subject entity: <{subject}>")
        return _role_fillers(ontology, subject, query.role)
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
        known = {e.iri for e in signature(ontology) if e.kind is EntityKind.CONCEPT}
        if subject not in known:
            raise UnknownEntityError(f"unknown concept: <{subject}>")
        subject = Named(subject)
    return tuple(sorted(instances_of(subject, ontology, limits),
                        key=lambda iri: iri.value))
