"""The bundled disease-domain ontology.

A worked example shipped both as a programmatic builder and as fixture files
(`fixtures/disease.ofn`, `fixtures/table1.probes`, `fixtures/ledger`). Every
axiom carries a provenance entry: either a verbatim quote from the source
description of the ontology, or the rationale for a reconstruction where the
source is silent or contradicts itself. The ontology's IRI and its published
entity counts (`DISEASE_IRI`, `PUBLISHED_COUNTS`, `published_reference`)
live in `ontokit.model`, so that `stats` needs no builder, and are
re-exported here.
"""

from __future__ import annotations

import enum

from .analysis import ProbeSpec
from .model import (
    AnnotationAssertion,
    Axiom,
    ConceptAssertion,
    DataAssertion,
    DISEASE_IRI,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    InverseRoles,
    Iri,
    Literal,
    Named,
    NamedRole,
    Ontology,
    OWL_NS,
    PUBLISHED_COUNTS,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Union,
    Universal,
    XSD_NS,
    XSD_STRING,
    make_ontology,
    published_reference,
    _Value,
)
from .parser import render_axiom

DISEASE_NS = DISEASE_IRI + "#"

PREFIXES = (
    ("", DISEASE_NS),
    ("owl", OWL_NS),
    ("xsd", XSD_NS),
)


class Provenance(enum.Enum):
    SOURCE_TEXT = "source-text"
    RECONSTRUCTION = "reconstruction"


class FixtureLedgerEntry(_Value):
    __slots__ = ()
    axiom: Axiom
    kind: Provenance
    note: str


def _iri(fragment: str) -> Iri:
    return Iri(DISEASE_NS + fragment)


CONCEPT_NAMES = (
    "Disease", "Infectious", "Autoimmune",
    "Virus", "Fungus", "Prion", "Bacteria", "Protozoa",
    "Debilitating", "Chronic", "Lifethreatening",
    "DiseaseArea", "Internal", "External",
    "DiseaseSymptoms", "Inside", "Outside",
    "DiseasePrevention",
    "DiseaseStructure", "AreaStructure", "OrganismStructure",
    "GeneticMaterial", "DNA", "RNA",
)

OBJECT_ROLE_NAMES = (
    "hasStructure", "isStructureOf",
    "hasSymptoms", "isSymptomsOf",
    "hasOrganismStructure", "hasAreaStructure",
    "hasGenetics", "hasPrevention", "hasArea",
)

GIARDIA = _iri("Giardia_lambliia")


def _named(fragment: str) -> Named:
    return Named(_iri(fragment))


def _fixture_entries() -> list[FixtureLedgerEntry]:
    src = Provenance.SOURCE_TEXT
    rec = Provenance.RECONSTRUCTION
    entries: list[FixtureLedgerEntry] = []

    def add(axiom: Axiom, kind: Provenance, note: str) -> None:
        entries.append(FixtureLedgerEntry(axiom, kind, note))

    quotes = {
        "six": "The resulting base disease ontology has 6 most generic classes or "
               "concepts namely Disease, DiseaseArea, DiseaseSymptoms, "
               "DiseasePrevention, DiseaseStructure and GeneticMaterial",
        "two_kinds": "It has two categories of diseases represented by two "
                     "sub-classes named as Autoimmune and Infectious",
        "organisms": "five most common infectious organisms/ agents namely Virus, "
                     "Fungus, Prion, Bacteria and Protozoa are placed as sub classes",
        "autoimmune": "it has three sub-concepts/ classes called Debilitating, "
                      "Chronic and Lifethreatening",
        "area": "DiseaseArea has two sub classes called Internal and External",
        "symptoms": "DiseaseSymptoms has two classes called Inside and Outside",
        "structure": "the class DiseaseStructure has two sub concepts/ classes "
                     "called AreaStructure and OrganismStructure",
        "genetics": "It has details of DNA and RNA stored in DNA and RNA sub "
                    "classes respectively",
    }

    # Declarations: concepts.
    concept_quote = {
        "Disease": quotes["six"], "DiseaseArea": quotes["six"],
        "DiseaseSymptoms": quotes["six"], "DiseasePrevention": quotes["six"],
        "DiseaseStructure": quotes["six"], "GeneticMaterial": quotes["six"],
        "Infectious": quotes["two_kinds"], "Autoimmune": quotes["two_kinds"],
        "Virus": quotes["organisms"], "Fungus": quotes["organisms"],
        "Prion": quotes["organisms"], "Bacteria": quotes["organisms"],
        "Protozoa": quotes["organisms"],
        "Debilitating": quotes["autoimmune"], "Chronic": quotes["autoimmune"],
        "Lifethreatening": quotes["autoimmune"],
        "Internal": quotes["area"], "External": quotes["area"],
        "Inside": quotes["symptoms"], "Outside": quotes["symptoms"],
        "AreaStructure": quotes["structure"], "OrganismStructure": quotes["structure"],
        "DNA": quotes["genetics"], "RNA": quotes["genetics"],
    }
    for name in CONCEPT_NAMES:
        add(Declaration(Entity(EntityKind.CONCEPT, _iri(name))), src, concept_quote[name])

    role_quotes = {
        "hasStructure": "Two of them are hasStructure and hasSymptoms with inverse "
                        "properties isStructureOf and isSymptomsOf respectively",
        "isStructureOf": "Two of them are hasStructure and hasSymptoms with inverse "
                         "properties isStructureOf and isSymptomsOf respectively",
        "hasSymptoms": "Disease class is interconnected with DiseaseSymptoms by "
                       "hasSymptoms relationship",
        "isSymptomsOf": "Two of them are hasStructure and hasSymptoms with inverse "
                        "properties isStructureOf and isSymptomsOf respectively",
        "hasOrganismStructure": "The hasOrganismStructure is a sub property of "
                                "hasStructure",
        "hasAreaStructure": "The hasAreaStructure is a sub property of hasStructure",
        "hasGenetics": "building the hasGenetics relationship between "
                       "GeneticMaterial class and DiseaseStructure class",
        "hasPrevention": "building the hasPrevention relationship between Disease "
                         "class and DiseasePrevention class",
        "hasArea": "The answer to question twelve forms the hasArea relationship "
                   "between Disease class and DiseaseArea class",
    }
    for name in OBJECT_ROLE_NAMES:
        add(Declaration(Entity(EntityKind.OBJECT_ROLE, _iri(name))), src, role_quotes[name])

    add(Declaration(Entity(EntityKind.DATA_ROLE, _iri("locomotion"))), src,
        "the individual Giardia lamblia with data property 'locomotion' with the "
        "value 'Flagellates'")
    add(Declaration(Entity(EntityKind.ANNOTATION_ROLE, _iri("comment"))), rec,
        "one annotation property is reported but never named; a generic comment "
        "property stands in")
    add(Declaration(Entity(EntityKind.INDIVIDUAL, GIARDIA)), src,
        "it is given a URI: "
        "'http://www.disintel.lk/ontologies/disease.owl#Giardia_lambliia'")
    add(Declaration(Entity(EntityKind.DATATYPE, XSD_STRING)), rec,
        "one datatype is reported; the plain string type carried by the "
        "locomotion value is the only one in use")

    # Told hierarchy.
    told = [
        ("Infectious", "Disease", quotes["two_kinds"]),
        ("Autoimmune", "Disease", quotes["two_kinds"]),
        ("Virus", "Infectious", quotes["organisms"]),
        ("Fungus", "Infectious", quotes["organisms"]),
        ("Prion", "Infectious", quotes["organisms"]),
        ("Bacteria", "Infectious", quotes["organisms"]),
        ("Protozoa", "Infectious", quotes["organisms"]),
        ("Debilitating", "Autoimmune", quotes["autoimmune"]),
        ("Chronic", "Autoimmune", quotes["autoimmune"]),
        ("Lifethreatening", "Autoimmune", quotes["autoimmune"]),
        ("Internal", "DiseaseArea", quotes["area"]),
        ("External", "DiseaseArea", quotes["area"]),
        ("Inside", "DiseaseSymptoms", quotes["symptoms"]),
        ("Outside", "DiseaseSymptoms", quotes["symptoms"]),
        ("AreaStructure", "DiseaseStructure", quotes["structure"]),
        ("OrganismStructure", "DiseaseStructure", quotes["structure"]),
        ("DNA", "GeneticMaterial", quotes["genetics"]),
        ("RNA", "GeneticMaterial", quotes["genetics"]),
    ]
    for sub, sup, quote in told:
        add(SubConceptOf(_named(sub), _named(sup)), src, quote)

    # Restrictions and the defined class.
    add(SubConceptOf(_named("Disease"),
                     Existential(NamedRole(_iri("hasSymptoms")), _named("DiseaseSymptoms"))),
        src,
        "individuals in Disease class that participate in at least one relationship "
        "along a hasSymptoms (some) property with individuals that are members of "
        "the DiseaseSymptoms class")
    add(SubConceptOf(_named("OrganismStructure"),
                     Existential(NamedRole(_iri("hasGenetics")), _named("GeneticMaterial"))),
        src,
        "if an individual is a member of the class OrganismStructure then it has at "
        "least one genetic material that is a member of the class GeneticMaterial")
    add(EquivalentConcepts((_named("Infectious"),
                            Existential(NamedRole(_iri("hasGenetics")),
                                        _named("GeneticMaterial")))),
        src,
        "This class enables necessary and sufficient condition for hasGenetics "
        "(hasGenetics some GeneticMaterial) object property and makes the class "
        "falls under equivalent classes")
    add(SubConceptOf(_named("Infectious"),
                     Universal(NamedRole(_iri("hasGenetics")),
                               Union((_named("DNA"), _named("RNA"))))),
        rec,
        "closure form of 'Closure axioms are used here for describing the genetics "
        "of the individuals of Infectious class' with DNA and RNA as the only "
        "admitted kinds of genetic material")

    # Disjointness.
    add(DisjointConcepts((_named("Autoimmune"), _named("Infectious"))), rec,
        "the probe under Autoimmune and Infectious is reported inconsistent, which "
        "requires the two disease categories to be disjoint")
    add(DisjointConcepts(tuple(_named(n) for n in
                               ("Virus", "Fungus", "Prion", "Bacteria", "Protozoa"))),
        src,
        "In Infectious class, all subclasses are made disjoint to each other as no "
        "organism is fall into more than one class in this domain")
    add(DisjointConcepts(tuple(_named(n) for n in
                               ("Debilitating", "Chronic", "Lifethreatening"))),
        src,
        "The same is done for subclasses of Autoimmune, subclasses of DiseaseArea "
        "and subclasses of DiseaseStructure")
    add(DisjointConcepts((_named("Internal"), _named("External"))), rec,
        "kept disjoint: the External+Internal probe is reported inconsistent and "
        "the disjointness paragraph covers DiseaseArea subclasses, although one "
        "sentence of the source says the opposite")
    add(DisjointConcepts((_named("AreaStructure"), _named("OrganismStructure"))), src,
        "The same is done for subclasses of Autoimmune, subclasses of DiseaseArea "
        "and subclasses of DiseaseStructure")

    # Role hierarchy, inverses, domains and ranges.
    add(SubRoleOf(_iri("hasOrganismStructure"), _iri("hasStructure")), src,
        "The hasOrganismStructure is a sub property of hasStructure")
    add(SubRoleOf(_iri("hasAreaStructure"), _iri("hasStructure")), src,
        "The hasAreaStructure is a sub property of hasStructure")
    add(InverseRoles(_iri("hasStructure"), _iri("isStructureOf")), src,
        "Two of them are hasStructure and hasSymptoms with inverse properties "
        "isStructureOf and isSymptomsOf respectively")
    add(InverseRoles(_iri("hasSymptoms"), _iri("isSymptomsOf")), src,
        "Two of them are hasStructure and hasSymptoms with inverse properties "
        "isStructureOf and isSymptomsOf respectively")
    add(RoleDomain(_iri("hasSymptoms"), _named("Disease")), src,
        "the domain and range for the hasSymptoms property are Disease and "
        "DiseaseSymptoms classes respectively")
    add(RoleRange(_iri("hasSymptoms"), _named("DiseaseSymptoms")), src,
        "the domain and range for the hasSymptoms property are Disease and "
        "DiseaseSymptoms classes respectively")
    add(RoleDomain(_iri("isSymptomsOf"), _named("DiseaseSymptoms")), src,
        "The domain and range for isSymptomsOf is the domain and range for "
        "hasSymptoms swapped over")
    add(RoleRange(_iri("isSymptomsOf"), _named("Disease")), src,
        "The domain and range for isSymptomsOf is the domain and range for "
        "hasSymptoms swapped over")
    add(RoleRange(_iri("hasGenetics"), _named("GeneticMaterial")), rec,
        "range kept so read genetic material classifies under GeneticMaterial; no "
        "domain is added because the source warns against domain and range "
        "conditions on the remaining properties")

    # Assertions.
    add(ConceptAssertion(_named("OrganismStructure"), GIARDIA), src,
        "OrganismStructure class under DiseaseStructure class has the individual "
        "Giardia lamblia")
    add(DataAssertion(_iri("locomotion"), GIARDIA, Literal("Flagellates")), src,
        "with data property 'locomotion' with the value 'Flagellates'")

    # Annotations.
    add(AnnotationAssertion(_iri("comment"), _iri("Disease"),
                            Literal("Types of diseases grouped by how they originate; "
                                    "the anchor point for every other concept here.")),
        rec,
        "entity annotations (human-readable comments) are reported as partially "
        "implemented; one comment on the root concept stands in")
    add(AnnotationAssertion(_iri("comment"), GIARDIA, Literal("Giardia lamblia")), rec,
        "display name for the individual whose IRI keeps the doubled-i spelling "
        "printed in the source")
    return entries


def fixture_ledger() -> tuple[FixtureLedgerEntry, ...]:
    """One provenance entry per fixture axiom, in builder order."""
    return tuple(_fixture_entries())


def build_disease_ontology() -> Ontology:
    """The disease ontology, built strict: 24 concepts, 9 object roles, one
    data role, one annotation role, one individual, one datatype."""
    return make_ontology(
        Iri(DISEASE_IRI),
        PREFIXES,
        (entry.axiom for entry in _fixture_entries()),
        strict=True,
    )


def table1_probes() -> list[ProbeSpec]:
    """The three probe classes checked against the ontology's disjointness."""
    return [
        ProbeSpec("ProbeType1", ("Autoimmune", "Infectious")),
        ProbeSpec("ProbeType2", ("External", "Internal")),
        ProbeSpec("ProbeType3", ("AreaStructure", "OrganismStructure")),
    ]


def render_ledger() -> str:
    """The shipped ledger file: canonical axiom text, TAB, provenance kind,
    TAB, note, ordered as the axiom's line in the canonical .ofn
    serialization of `build_disease_ontology()`."""
    from .parser import serialize

    prefixes = dict(PREFIXES)
    position = {line: i for i, line in enumerate(serialize(build_disease_ontology()).splitlines())}
    rows = [(render_axiom(e.axiom, prefixes), e) for e in fixture_ledger()]
    rows.sort(key=lambda row: position[row[0]])
    lines = [f"{text}\t{e.kind.value}\t{e.note}" for text, e in rows]
    return "\n".join(lines) + "\n"
