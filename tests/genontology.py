"""Seeded random ontology generators for property tests."""

from __future__ import annotations

import random

from ontokit.model import (
    AnnotationAssertion,
    Bottom,
    Complement,
    ConceptAssertion,
    ConceptExpression,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    InverseRoles,
    Iri,
    Literal,
    Named,
    NamedRole,
    RoleAssertion,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    Union,
    Universal,
    XSD_STRING,
    add_axiom,
    make_ontology,
)

NS = "http://example.org/gen#"


def _concept_iris(count: int) -> list[Iri]:
    return [Iri(f"{NS}A{i}") for i in range(count)]


def _role_iris(count: int) -> list[Iri]:
    return [Iri(f"{NS}r{i}") for i in range(count)]


def random_expression(rng: random.Random, concepts: list[Iri], roles: list[Iri],
                      depth: int, allow_inverse: bool = False) -> ConceptExpression:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.05:
            return Top()
        if roll < 0.08:
            return Bottom()
        return Named(rng.choice(concepts))
    kind = rng.randrange(5)
    if kind == 0:
        return Intersection(tuple(
            random_expression(rng, concepts, roles, depth - 1, allow_inverse)
            for _ in range(2)))
    if kind == 1:
        return Union(tuple(
            random_expression(rng, concepts, roles, depth - 1, allow_inverse)
            for _ in range(2)))
    if kind == 2:
        return Complement(random_expression(rng, concepts, roles, depth - 1,
                                            allow_inverse))
    role_iri = rng.choice(roles)
    role = NamedRole(role_iri)
    if allow_inverse and rng.random() < 0.3:
        role = InverseRole(role_iri)
    filler = random_expression(rng, concepts, roles, depth - 1, allow_inverse)
    if kind == 3:
        return Existential(role, filler)
    return Universal(role, filler)


def random_alc_ontology(rng: random.Random, max_concepts: int = 8,
                        max_roles: int = 3, depth: int = 2):
    """A small random ALC TBox (no inverses, no role axioms, no transitivity).

    Sizes are biased downward so the bounded-domain oracle can usually
    exhaust its search space. Returns (ontology, concept IRIs, role IRIs).
    """
    if rng.random() < 0.6:
        n_concepts = rng.randint(2, min(3, max_concepts))
        n_roles = 1
    elif rng.random() < 0.75:
        n_concepts = rng.randint(3, min(5, max_concepts))
        n_roles = rng.randint(1, min(2, max_roles))
    else:
        n_concepts = rng.randint(4, max_concepts)
        n_roles = rng.randint(1, max_roles)
    concepts = _concept_iris(n_concepts)
    roles = _role_iris(n_roles)
    axioms = [Declaration(Entity(EntityKind.CONCEPT, iri)) for iri in concepts]
    axioms += [Declaration(Entity(EntityKind.OBJECT_ROLE, iri)) for iri in roles]
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.45:
            axioms.append(SubConceptOf(
                Named(rng.choice(concepts)),
                random_expression(rng, concepts, roles, depth)))
        elif roll < 0.6:
            axioms.append(SubConceptOf(
                random_expression(rng, concepts, roles, depth),
                random_expression(rng, concepts, roles, depth)))
        elif roll < 0.8:
            axioms.append(EquivalentConcepts((
                Named(rng.choice(concepts)),
                random_expression(rng, concepts, roles, depth))))
        else:
            first, second = rng.sample(concepts, 2) if len(concepts) >= 2 \
                else (concepts[0], concepts[0])
            if first != second:
                axioms.append(DisjointConcepts((Named(first), Named(second))))
    ontology = make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms, strict=True)
    return ontology, concepts, roles


def random_abox_ontology(rng: random.Random):
    """A random ALC TBox with one to three individuals, typed by random
    concepts (inverse roles allowed) and linked by random role assertions."""
    ontology, concepts, roles = random_alc_ontology(rng)
    individuals = [Iri(f"{NS}i{k}") for k in range(rng.randint(1, 3))]
    for individual in individuals:
        ontology = add_axiom(
            ontology, Declaration(Entity(EntityKind.INDIVIDUAL, individual)))
        for _ in range(rng.randint(0, 2)):
            concept = random_expression(rng, concepts, roles, 1, allow_inverse=True)
            ontology = add_axiom(ontology, ConceptAssertion(concept, individual))
    for _ in range(rng.randint(0, 2)):
        ontology = add_axiom(ontology, RoleAssertion(
            rng.choice(roles), rng.choice(individuals), rng.choice(individuals)))
    return ontology


def random_full_ontology(rng: random.Random):
    """A random ontology across the whole supported axiom surface, for
    round-trip and site-generation properties."""
    n_concepts = rng.randint(2, 6)
    n_roles = rng.randint(1, 3)
    concepts = _concept_iris(n_concepts)
    roles = _role_iris(n_roles)
    individuals = [Iri(f"{NS}i{i}") for i in range(rng.randint(0, 3))]
    data_roles = [Iri(f"{NS}d{i}") for i in range(rng.randint(0, 2))]
    annotation_roles = [Iri(f"{NS}note")] if rng.random() < 0.5 else []

    axioms = [Declaration(Entity(EntityKind.CONCEPT, iri)) for iri in concepts]
    axioms += [Declaration(Entity(EntityKind.OBJECT_ROLE, iri)) for iri in roles]
    axioms += [Declaration(Entity(EntityKind.INDIVIDUAL, iri)) for iri in individuals]
    axioms += [Declaration(Entity(EntityKind.DATA_ROLE, iri)) for iri in data_roles]
    axioms += [Declaration(Entity(EntityKind.ANNOTATION_ROLE, iri))
               for iri in annotation_roles]
    if data_roles or annotation_roles:
        axioms.append(Declaration(Entity(EntityKind.DATATYPE, XSD_STRING)))

    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3:
            axioms.append(SubConceptOf(
                random_expression(rng, concepts, roles, 2, allow_inverse=True),
                random_expression(rng, concepts, roles, 2, allow_inverse=True)))
        elif roll < 0.4:
            axioms.append(EquivalentConcepts(tuple(
                random_expression(rng, concepts, roles, 1, allow_inverse=True)
                for _ in range(rng.randint(2, 3)))))
        elif roll < 0.5:
            members = rng.sample(concepts, min(len(concepts), rng.randint(2, 3)))
            if len(members) >= 2:
                axioms.append(DisjointConcepts(tuple(Named(m) for m in members)))
        elif roll < 0.6 and len(roles) >= 2:
            sub, sup = rng.sample(roles, 2)
            axioms.append(SubRoleOf(sub, sup))
        elif roll < 0.7 and len(roles) >= 2:
            first, second = rng.sample(roles, 2)
            axioms.append(InverseRoles(first, second))
        elif roll < 0.75:
            axioms.append(TransitiveRole(rng.choice(roles)))
        elif roll < 0.85:
            axioms.append(RoleDomain(rng.choice(roles),
                                     random_expression(rng, concepts, roles, 1)))
        else:
            axioms.append(RoleRange(rng.choice(roles),
                                    random_expression(rng, concepts, roles, 1)))
    for individual in individuals:
        if rng.random() < 0.8:
            axioms.append(ConceptAssertion(Named(rng.choice(concepts)), individual))
        if rng.random() < 0.5 and individuals:
            axioms.append(RoleAssertion(rng.choice(roles), individual,
                                        rng.choice(individuals)))
        if data_roles and rng.random() < 0.5:
            axioms.append(DataAssertion(rng.choice(data_roles), individual,
                                        Literal(f"value-{rng.randrange(10)}")))
        if annotation_roles and rng.random() < 0.5:
            axioms.append(AnnotationAssertion(annotation_roles[0], individual,
                                              Literal("a short note")))
    return make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms, strict=True)


def disease_abox_ontology(rng: random.Random, count: int) -> tuple:
    """`count` diseases in one ABox, in the shape of the benchmark's
    abox-realize inputs: bacterial and viral alternate, each disease is
    caused by its own organism and linked to its own symptom, and every
    disease node must choose `Chronic ⊔ Acute` and its absorbed
    `Bacterial` definition. The seed picks whether each symptom link is
    asserted as `hasSymptoms` or as its inverse, and the axiom order.
    Returns the ontology, which is consistent, and each individual's most
    specific named concepts."""
    def c(name):
        return Named(Iri(NS + name))

    def r(name):
        return Iri(NS + name)

    axioms = [
        SubConceptOf(c("Bacteria"), c("Organism")), SubConceptOf(c("Virus"), c("Organism")),
        DisjointConcepts((c("Bacteria"), c("Virus"))),
        SubConceptOf(c("Infectious"), c("Disease")),
        SubConceptOf(c("Infectious"), Union((c("Chronic"), c("Acute")))),
        EquivalentConcepts((c("Bacterial"), Intersection(
            (c("Disease"), Existential(NamedRole(r("causedBy")), c("Bacteria")))))),
        SubConceptOf(c("Bacterial"), c("Infectious")),
        RoleRange(r("causedBy"), c("Organism")),
        RoleRange(r("hasSymptoms"), c("Symptom")),
        InverseRoles(r("hasSymptoms"), r("isSymptomsOf")),
    ]
    expected = {}
    for i in range(count):
        kind = ("Bacteria", "Virus")[i % 2]
        disease, organism, symptom = r(f"d{i}"), r(f"o{i}"), r(f"s{i}")
        axioms += [ConceptAssertion(c("Disease"), disease), ConceptAssertion(c(kind), organism),
                   RoleAssertion(r("causedBy"), disease, organism)]
        if rng.random() < 0.5:
            axioms.append(RoleAssertion(r("hasSymptoms"), disease, symptom))
        else:
            axioms.append(RoleAssertion(r("isSymptomsOf"), symptom, disease))
        expected[disease] = (c("Bacterial" if kind == "Bacteria" else "Disease").iri,)
        expected[organism] = (c(kind).iri,)
        expected[symptom] = (c("Symptom").iri,)
    rng.shuffle(axioms)
    return make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms), expected
