"""The per-kind axiom index (`model._by_kind`) and the walkers that read it.

Each Ontology files its axioms by record type once, and every walker that
wants the axioms of a kind reads them from that index; `axiom_references`
dispatches on an axiom's type through a table. These tests pin that the
table gives exactly the references of the isinstance ladder it replaced,
in the same order; that the index holds each kind's axioms in axiom order
however an instance was made; that the closures and `normalize` ask the
index only for the kinds they read; and that reading by kind loses no
order the tableau sees.
"""

from __future__ import annotations

import copy
import pickle
import random
from typing import Iterator

from ontokit import analysis, model, reasoner
from ontokit.disease import build_disease_ontology
from ontokit.model import (
    AnnotationAssertion,
    Complement,
    ConceptAssertion,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRoles,
    Iri,
    Named,
    Ontology,
    RoleAssertion,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    TransitiveRole,
    Union,
    Universal,
    XSD_STRING,
    add_axioms,
    axiom_references,
    make_ontology,
)
from ontokit.parser import parse, serialize
from ontokit.reasoner import normalize
from genontology import (NS, random_abox_ontology, random_alc_ontology,
                         random_full_ontology)

AXIOM_KINDS = (Declaration, SubConceptOf, EquivalentConcepts, DisjointConcepts, SubRoleOf,
               InverseRoles, TransitiveRole, RoleDomain, RoleRange, ConceptAssertion,
               RoleAssertion, DataAssertion, AnnotationAssertion)
ASSERTION_KINDS = {Declaration, ConceptAssertion, RoleAssertion, DataAssertion,
                   AnnotationAssertion}
ROLE_KINDS = {SubRoleOf, InverseRoles, TransitiveRole}

# Every kind, typed literals, an annotation on a class, ⊤ and ⊥ operands and
# inverse roles inside nested expressions.
TYPED = """Prefix(:=<http://t#>)
Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)
Prefix(owl:=<http://www.w3.org/2002/07/owl#>)
Ontology(<http://t>
Declaration(Class(:A))
SubClassOf(ObjectIntersectionOf(:A owl:Thing) ObjectUnionOf(:B ObjectComplementOf(owl:Nothing)))
SubClassOf(:B ObjectAllValuesFrom(ObjectInverseOf(:r) ObjectSomeValuesFrom(:s :C)))
EquivalentClasses(:C ObjectSomeValuesFrom(:r :A) ObjectUnionOf(:B :D))
DisjointClasses(:A :D owl:Thing)
SubObjectPropertyOf(:r :s)
InverseObjectProperties(:s :t)
TransitiveObjectProperty(:t)
ObjectPropertyDomain(:r ObjectIntersectionOf(:A ObjectSomeValuesFrom(:t owl:Thing)))
ObjectPropertyRange(:s :B)
ClassAssertion(ObjectSomeValuesFrom(ObjectInverseOf(:r) :A) :i)
ObjectPropertyAssertion(:r :i :j)
DataPropertyAssertion(:age :i "3"^^xsd:integer)
DataPropertyAssertion(:age :j "three")
AnnotationAssertion(:note :A "a class"^^xsd:token)
AnnotationAssertion(:note :nowhere "plain")
)
"""


# ---------------------------------------------------------------------------
# The reference walk as it was: an isinstance ladder over nested generators
# ---------------------------------------------------------------------------


def ladder_subexpressions(expr) -> Iterator:
    stack = []
    while True:
        yield expr
        if isinstance(expr, Named):
            pass
        elif isinstance(expr, (Intersection, Union)):
            stack.extend(reversed(expr.operands))
        elif isinstance(expr, Complement):
            stack.append(expr.operand)
        elif isinstance(expr, (Existential, Universal)):
            stack.append(expr.filler)
        if not stack:
            return
        expr = stack.pop()


def ladder_expr_refs(expr) -> Iterator:
    for part in ladder_subexpressions(expr):
        if isinstance(part, Named):
            if part.iri not in model.BUILTIN_CONCEPTS:
                yield (EntityKind.CONCEPT, part.iri)
        elif isinstance(part, (Existential, Universal)):
            yield (EntityKind.OBJECT_ROLE, part.role.iri)


def ladder_references(axiom) -> Iterator:
    role, individual = EntityKind.OBJECT_ROLE, EntityKind.INDIVIDUAL
    if isinstance(axiom, Declaration):
        yield (axiom.entity.kind, axiom.entity.iri)
    elif isinstance(axiom, SubConceptOf):
        yield from ladder_expr_refs(axiom.sub)
        yield from ladder_expr_refs(axiom.sup)
    elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
        for op in axiom.operands:
            yield from ladder_expr_refs(op)
    elif isinstance(axiom, SubRoleOf):
        yield (role, axiom.sub)
        yield (role, axiom.sup)
    elif isinstance(axiom, InverseRoles):
        yield (role, axiom.first)
        yield (role, axiom.second)
    elif isinstance(axiom, TransitiveRole):
        yield (role, axiom.role)
    elif isinstance(axiom, (RoleDomain, RoleRange)):
        yield (role, axiom.role)
        yield from ladder_expr_refs(axiom.concept)
    elif isinstance(axiom, ConceptAssertion):
        yield from ladder_expr_refs(axiom.concept)
        yield (individual, axiom.individual)
    elif isinstance(axiom, RoleAssertion):
        yield (role, axiom.role)
        yield (individual, axiom.subject)
        yield (individual, axiom.object)
    elif isinstance(axiom, DataAssertion):
        yield (EntityKind.DATA_ROLE, axiom.role)
        yield (individual, axiom.subject)
        yield (EntityKind.DATATYPE, axiom.value.datatype)
    elif isinstance(axiom, AnnotationAssertion):
        yield (EntityKind.ANNOTATION_ROLE, axiom.role)
        yield (None, axiom.subject)
        yield (EntityKind.DATATYPE, axiom.value.datatype)
    else:
        raise TypeError(type(axiom).__name__)


def draws(count: int, seed: int) -> list[Ontology]:
    """`count` draws from `tests/genontology`, its three generators in turn."""
    rng = random.Random(seed)
    makers = (lambda: random_alc_ontology(rng)[0], lambda: random_full_ontology(rng),
              lambda: random_abox_ontology(rng))
    return [makers[i % 3]() for i in range(count)]


def test_references_equal_the_ladder_in_order(fixture_dir):
    ontologies = [parse((fixture_dir / "disease.ofn").read_text(encoding="utf-8")),
                  parse(TYPED), *draws(300, 29)]
    kinds, none_subjects, typed = set(), 0, 0
    for ontology in ontologies:
        for axiom in ontology.axioms:
            references = axiom_references(axiom)
            assert references == list(ladder_references(axiom)), axiom
            kinds.add(type(axiom))
            none_subjects += any(kind is None for kind, _ in references)
            typed += isinstance(axiom, (DataAssertion, AnnotationAssertion)) \
                and axiom.value.datatype != XSD_STRING
    assert kinds == set(AXIOM_KINDS)
    assert none_subjects > 20 and typed == 2


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------


def assert_index_holds_each_kind_in_order(ontology: Ontology) -> None:
    index = model._derive(ontology, model._by_kind)
    assert set(index) == {type(axiom) for axiom in ontology.axioms}
    for kind in AXIOM_KINDS:
        assert list(index.get(kind, ())) == [a for a in ontology.axioms if type(a) is kind]


def test_the_index_holds_each_kinds_axioms_in_axiom_order(fixture_dir):
    made = build_disease_ontology()
    parsed = parse((fixture_dir / "disease.ofn").read_text(encoding="utf-8"))
    direct = Ontology(made.iri, made.prefixes, reversed(made.axioms))
    extra = (Declaration(Entity(EntityKind.INDIVIDUAL, Iri(NS + "x"))),
             ConceptAssertion(Named(Iri(NS + "C")), Iri(NS + "x")),
             SubConceptOf(Named(Iri(NS + "C")), Named(Iri(NS + "D"))))
    extended = add_axioms(make_ontology(made.iri, made.prefixes, made.axioms[:40]),
                          made.axioms[40:] + extra)
    for ontology in (made, parsed, direct, extended, parse(TYPED), *draws(60, 31)):
        kept = model._derive(ontology, model._by_kind)
        assert_index_holds_each_kind_in_order(ontology)
        copies = [copy.copy(ontology), copy.deepcopy(ontology)]
        copies += [pickle.loads(pickle.dumps(ontology, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert model._by_kind not in other._derived  # each copy files its own
            assert_index_holds_each_kind_in_order(other)
            assert model._derive(other, model._by_kind) is not kept


class CountingIndex(dict):
    """An index that records each kind it is asked for."""

    def __init__(self, index):
        super().__init__(index)
        self.asked: list[type] = []

    def get(self, kind, default=None):
        self.asked.append(kind)
        return super().get(kind, default)

    def __getitem__(self, kind):
        self.asked.append(kind)
        return super().__getitem__(kind)

    def __contains__(self, kind):
        self.asked.append(kind)
        return super().__contains__(kind)


def asked_for(read, ontology: Ontology) -> set[type]:
    """The kinds `read(ontology)` asks a fresh instance's index for."""
    fresh = Ontology(ontology.iri, ontology.prefixes, ontology.axioms)
    index = CountingIndex(model._by_kind(fresh))
    fresh._derived[model._by_kind] = index
    read(fresh)
    return set(index.asked)


TBOX_KINDS = {SubConceptOf, EquivalentConcepts, DisjointConcepts, RoleDomain, RoleRange,
              InverseRoles}


def test_each_reader_asks_the_index_only_for_its_kinds():
    subject, role = Iri(NS + "i0"), Iri(NS + "r0")
    readers = {
        reasoner._role_closure: ROLE_KINDS,
        reasoner._told_closure: {SubConceptOf, EquivalentConcepts},
        # normalize reads the role closure through the same index.
        normalize: TBOX_KINDS | ROLE_KINDS,
        reasoner._compile: TBOX_KINDS | ROLE_KINDS | {ConceptAssertion, RoleAssertion},
        reasoner.materialize_inverses: ROLE_KINDS | {RoleAssertion},
        lambda o: analysis._role_fillers(o, subject, role): ROLE_KINDS | {RoleAssertion},
    }
    for ontology in (build_disease_ontology(), parse(TYPED), *draws(30, 37)):
        for read, kinds in readers.items():
            assert asked_for(read, ontology) == kinds, read
        assert not asked_for(normalize, ontology) & ASSERTION_KINDS
    # In strict mode the counts and the declared entities read the
    # declarations alone.
    typed = parse(TYPED)
    strict = Ontology(typed.iri, typed.prefixes, typed.axioms, strict=True)
    index = strict._derived[model._by_kind] = CountingIndex(model._by_kind(strict))
    model.compute_counts(strict)
    model.declared_entities(strict)
    assert set(index.asked) == {Declaration}


# ---------------------------------------------------------------------------
# normalize reads by kind and keeps no axiom order
# ---------------------------------------------------------------------------


def evaluation_form(tbox) -> tuple:
    """What the tableau reads of a normalized TBox; the general inclusions
    as a set, since only their order may follow the axioms'."""
    return (tbox.definitions, tbox.negated_definitions, tbox.absorbed, tbox.domain_triggers,
            tbox.node_constraints, tbox.transitive_roles, tbox.uses_inverse,
            tbox.role_subsumers, set(tbox.general_inclusions))


def test_normalize_ignores_axiom_order():
    rng = random.Random(41)
    ontologies = [build_disease_ontology(), parse(TYPED), *draws(300, 43)]
    for ontology in ontologies:
        expected = evaluation_form(normalize(ontology))
        for _ in range(3):
            shuffled = list(ontology.axioms)
            rng.shuffle(shuffled)
            other = Ontology(ontology.iri, ontology.prefixes, shuffled)
            assert evaluation_form(normalize(other)) == expected
            assert serialize(other) == serialize(ontology)
