import copy
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys

import pytest

from ontokit.analysis import CompetencyQuery, HierarchyDiff, ProbeResult, ProbeSpec, QueryKind
from ontokit.model import (
    AnnotationAssertion,
    Bottom,
    Complement,
    ConceptAssertion,
    DataAssertion,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityCounts,
    EntityKind,
    EntityNotInSignatureError,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    InverseRoles,
    Iri,
    Literal,
    Named,
    NamedRole,
    Ontology,
    RoleAssertion,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    UndeclaredEntityError,
    Union,
    Universal,
    XSD_STRING,
    add_axiom,
    add_axioms,
    axiom_references,
    compute_counts,
    make_ontology,
    signature,
    usages,
)
from ontokit.disease import DISEASE_NS, GIARDIA, FixtureLedgerEntry, Provenance
from ontokit.parser import SourceLocation, Token, TokenKind
from ontokit.sitegen import LinkReport
from ontokit.tableau import GraphEdge, GraphNode, ReasonerLimits


def iri(fragment):
    return Iri(DISEASE_NS + fragment)


def named(fragment):
    return Named(iri(fragment))


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        Iri("")
    with pytest.raises(ValueError):
        Iri("http://x y")


def test_regex_whitespace_class_is_str_isspace():
    # Iri's check relies on it, for every code point.
    space = re.compile(r"\s")
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert bool(space.match(ch)) == ch.isspace(), hex(code)


@pytest.mark.parametrize("ch", ["\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"])
def test_iri_rejects_unicode_whitespace(ch):
    with pytest.raises(ValueError):
        Iri(f"http://x{ch}y")


def test_iri_accepts_hash_percent_and_non_ascii_letters():
    for value in ("http://x#A", "http://x/%41", "http://x/\xe9t\xe9#\u03b1\u4e2d"):
        assert Iri(value).value == value


def test_iri_fragment():
    assert iri("Disease").fragment == "Disease"
    assert Iri("http://example.org/things/Disease").fragment == "Disease"


def test_iri_hashes_compares_and_sorts_with_str_own_methods():
    # No Python-level identity code: every hash, == and < runs in C.
    for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Iri, name) is getattr(str, name), name
    assert "__dict__" not in dir(Iri("http://x"))


def test_iri_hashes_and_equals_like_its_text():
    # So a set or dict of IRIs iterates in the order of their texts' one,
    # under any hash seed.
    for text in ("http://x", "http://x#A", "http://x/\xe9t\xe9#\u03b1"):
        assert hash(Iri(text)) == hash(text)
        assert Iri(text) == text and text == Iri(text)


def test_iri_repr_is_unchanged():
    assert repr(Iri("http://x#A")) == "Iri(value='http://x#A')"
    assert repr(Iri("http://x/it's")) == 'Iri(value="http://x/it\'s")'
    assert repr(Named(Iri("http://x#A"))) == "Named(iri=Iri(value='http://x#A'))"


def test_iri_sort_is_the_sort_of_its_text():
    rng = random.Random(17)
    alphabet = "ab#/:%\xe9\u03b1Z0"
    iris = [Iri("http://" + "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
            for _ in range(200)]
    assert sorted(iris) == sorted(iris, key=lambda i: i.value)


def test_iri_value_keyword_and_plain_text():
    made = Iri(value="http://x#A")
    assert made == Iri("http://x#A")
    assert type(made.value) is str and made.value == "http://x#A"
    assert type(str(made)) is str and type(f"{made}") is str


def test_iri_survives_pickle_and_copy():
    original = Iri("http://x#A")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(original, protocol))
        assert type(restored) is Iri and restored == original
    for restored in (copy.copy(original), copy.deepcopy(original)):
        assert type(restored) is Iri and restored == original


def test_iri_attributes_cannot_be_set():
    made = Iri("http://x#A")
    with pytest.raises(AttributeError):
        made.value = "http://y"
    with pytest.raises(AttributeError):
        made.other = 1


def test_operand_arity_enforced():
    with pytest.raises(ValueError):
        Intersection((named("A"),))
    with pytest.raises(ValueError):
        Union((named("A"),))
    with pytest.raises(ValueError):
        EquivalentConcepts((named("A"),))


def test_add_axiom_is_set_like():
    o = Ontology(Iri("http://x"))
    a = Declaration(Entity(EntityKind.CONCEPT, iri("Disease")))
    o1 = add_axiom(o, a)
    o2 = add_axiom(o1, a)
    assert len(o1.axioms) == 1
    assert len(o2.axioms) == 1
    assert compute_counts(o2).concepts == 1
    assert o.axioms == ()  # input untouched


def test_add_axiom_strict_requires_declarations():
    o = Ontology(Iri("http://x"), strict=True)
    with pytest.raises(UndeclaredEntityError, match="Virus"):
        add_axiom(o, SubConceptOf(named("Virus"), named("Infectious")))


def test_add_axiom_lenient_records_warnings():
    o = Ontology(Iri("http://x"))
    o1 = add_axiom(o, SubConceptOf(named("Virus"), named("Infectious")))
    assert any("Virus" in w for w in o1.warnings)
    assert compute_counts(o1).concepts == 2


def test_signature_empty_ontology():
    assert signature(Ontology(Iri("http://x"))) == ()


def test_signature_contains_fixture_entities(disease):
    entities = set(signature(disease))
    assert Entity(EntityKind.CONCEPT, iri("Disease")) in entities
    assert Entity(EntityKind.OBJECT_ROLE, iri("hasSymptoms")) in entities
    assert Entity(EntityKind.INDIVIDUAL, GIARDIA) in entities


def test_signature_is_sorted_and_counts_24_concepts(disease):
    entities = signature(disease)
    concepts = [e for e in entities if e.kind is EntityKind.CONCEPT]
    assert len(concepts) == 24
    keys = [e.sort_key() for e in entities]
    assert keys == sorted(keys)


def test_compute_counts_fixture(disease):
    counts = compute_counts(disease)
    assert counts.concepts == 24
    assert counts.object_roles == 9
    assert counts.data_roles == 1
    assert counts.annotation_roles == 1
    assert counts.individuals == 1
    assert counts.datatypes == 1
    assert counts.concepts_including_top == 25


def test_compute_counts_empty():
    counts = compute_counts(Ontology(Iri("http://x")))
    assert (counts.concepts, counts.object_roles, counts.data_roles,
            counts.annotation_roles, counts.individuals, counts.datatypes) \
        == (0, 0, 0, 0, 0, 0)


def test_counts_agree_with_signature(disease):
    counts = compute_counts(disease)
    by_kind = {}
    for entity in signature(disease):
        by_kind[entity.kind] = by_kind.get(entity.kind, 0) + 1
    assert counts.concepts == by_kind[EntityKind.CONCEPT]
    assert counts.object_roles == by_kind[EntityKind.OBJECT_ROLE]
    assert counts.individuals == by_kind[EntityKind.INDIVIDUAL]


def test_usages_range_axiom(disease):
    entity = Entity(EntityKind.CONCEPT, iri("DiseaseSymptoms"))
    found = usages(entity, disease)
    assert RoleRange(iri("hasSymptoms"), named("DiseaseSymptoms")) in found


def test_usages_equivalence(disease):
    entity = Entity(EntityKind.CONCEPT, iri("GeneticMaterial"))
    found = usages(entity, disease)
    assert EquivalentConcepts((named("Infectious"),
                               Existential(NamedRole(iri("hasGenetics")),
                                           named("GeneticMaterial")))) in found


def test_usages_declaration_only():
    decl = Declaration(Entity(EntityKind.CONCEPT, iri("Lonely")))
    o = make_ontology(Iri("http://x"), (), [decl], strict=True)
    assert usages(Entity(EntityKind.CONCEPT, iri("Lonely")), o) == (decl,)


def test_usages_requires_signature_membership(disease):
    with pytest.raises(EntityNotInSignatureError):
        usages(Entity(EntityKind.CONCEPT, Iri("http://elsewhere#X")), disease)


def test_usages_annotation_subject_alone_is_not_membership():
    x = Iri("http://x#X")
    note = AnnotationAssertion(Iri("http://x#note"), x, Literal("n"))
    decl = Declaration(Entity(EntityKind.CONCEPT, x))
    with pytest.raises(EntityNotInSignatureError):
        usages(Entity(EntityKind.CONCEPT, x), make_ontology(Iri("http://x"), (), [note]))
    o = make_ontology(Iri("http://x"), (), [note, decl])
    assert usages(Entity(EntityKind.CONCEPT, x), o) == (note, decl)
    with pytest.raises(EntityNotInSignatureError):
        usages(Entity(EntityKind.INDIVIDUAL, x), o)


def test_usages_in_ontology_order(disease):
    entity = Entity(EntityKind.CONCEPT, iri("Disease"))
    found = usages(entity, disease)
    positions = [disease.axioms.index(a) for a in found]
    assert positions == sorted(positions)


def test_ontology_equality_ignores_order_and_warnings():
    a1 = Declaration(Entity(EntityKind.CONCEPT, iri("A")))
    a2 = Declaration(Entity(EntityKind.CONCEPT, iri("B")))
    left = make_ontology(Iri("http://x"), (("", DISEASE_NS),), [a1, a2])
    right = make_ontology(Iri("http://x"), (("", DISEASE_NS),), [a2, a1])
    assert left == right
    with_warning = add_axiom(make_ontology(Iri("http://x"), (("", DISEASE_NS),), [a1]),
                             a2)
    assert with_warning == left


def test_axiom_equality_is_on_full_iris():
    # Prefix choices live on the ontology; axioms compare on expanded IRIs.
    one = SubConceptOf(named("Virus"), named("Infectious"))
    other = SubConceptOf(Named(Iri(DISEASE_NS + "Virus")),
                         Named(Iri(DISEASE_NS + "Infectious")))
    assert one == other
    assert hash(one) == hash(other)


def test_signature_grows_monotonically(disease):
    o = Ontology(Iri("http://x"))
    before = set(signature(o))
    extended = add_axiom(o, ConceptAssertion(named("Virus"), iri("v1")))
    assert before <= set(signature(extended))


def test_signature_is_computed_once_per_ontology():
    o = make_ontology(Iri("http://x"), (), [ConceptAssertion(named("Virus"), iri("v1"))])
    assert signature(o) is signature(o)


def test_signature_of_an_extended_ontology_has_the_new_entity():
    o = make_ontology(Iri("http://x"), (), [ConceptAssertion(named("Virus"), iri("v1"))])
    before = signature(o)
    new = Entity(EntityKind.OBJECT_ROLE, iri("hasHost"))
    extended = add_axiom(o, Declaration(new))
    assert new in signature(extended)
    assert new not in signature(o)
    assert signature(o) is before
    assert set(signature(extended)) == set(before) | {new}


def test_literal_defaults_to_plain_text():
    assert Literal("Flagellates").datatype == XSD_STRING


def test_strict_mode_tracks_punning():
    decls = [
        Declaration(Entity(EntityKind.CONCEPT, iri("Thing1"))),
        Declaration(Entity(EntityKind.INDIVIDUAL, iri("Thing1"))),
        Declaration(Entity(EntityKind.CONCEPT, iri("Other"))),
    ]
    o = make_ontology(Iri("http://x"), (), decls, strict=True)
    o = add_axiom(o, ConceptAssertion(named("Other"), iri("Thing1")))
    assert compute_counts(o).concepts == 2
    assert compute_counts(o).individuals == 1
    # Using an IRI with an undeclared kind still fails.
    with pytest.raises(UndeclaredEntityError):
        add_axiom(o, ConceptAssertion(named("Other"), iri("Other")))


# ---------------------------------------------------------------------------
# The signature handed over by the operation that builds an ontology
# ---------------------------------------------------------------------------


def _walked_signature(ontology):
    """The signature by its definition: every typed reference of every
    axiom, walked afresh."""
    entities = {Entity(kind, ref) for axiom in ontology.axioms
                for kind, ref in axiom_references(axiom) if kind is not None}
    return tuple(sorted(entities, key=Entity.sort_key))


def _built_every_way(ontology):
    """Ontologies over `ontology`'s axioms (or a part of them), built by
    each operation that makes one: lenient and strict `make_ontology`,
    the constructor, and `add_axiom`/`add_axioms` onto either."""
    axioms, name, prefixes = ontology.axioms, ontology.iri, ontology.prefixes
    declarations = tuple(a for a in axioms if isinstance(a, Declaration))
    logical = tuple(a for a in axioms if not isinstance(a, Declaration))
    half = len(axioms) // 2
    yield make_ontology(name, prefixes, axioms)
    yield make_ontology(name, prefixes, logical)  # every entity auto-declared
    yield make_ontology(name, prefixes, axioms[::-1], strict=True)
    yield Ontology(name, prefixes, axioms)
    yield Ontology(name, prefixes, logical, strict=True)  # never validated
    lenient = make_ontology(name, prefixes, axioms[:half])
    for axiom in axioms[half:]:
        lenient = add_axiom(lenient, axiom)
    yield lenient
    strict = make_ontology(name, prefixes, declarations, strict=True)
    for axiom in logical:
        strict = add_axiom(strict, axiom)
    yield strict
    yield add_axioms(Ontology(name, prefixes, logical[:half]), logical[half:] + logical)


def test_signature_matches_the_walk_over_every_axiom(disease):
    import random
    from genontology import random_full_ontology
    rng = random.Random(20261019)
    sources = [disease] + [random_full_ontology(rng) for _ in range(200)]
    built = 0
    for source in sources:
        for ontology in _built_every_way(source):
            assert signature(ontology) == _walked_signature(ontology)
            built += 1
    assert built == 8 * len(sources)


def test_add_axioms_is_the_fold_of_add_axiom(disease):
    extra = (ConceptAssertion(named("Virus"), iri("v1")),
             Declaration(Entity(EntityKind.OBJECT_ROLE, iri("hasHost"))),
             ConceptAssertion(named("Virus"), iri("v1")),
             RoleRange(iri("hasHost"), named("Host")))
    lenient = make_ontology(disease.iri, disease.prefixes, disease.axioms)
    folded = lenient
    for axiom in extra:
        folded = add_axiom(folded, axiom)
    once = add_axioms(lenient, extra)
    assert once.axioms == folded.axioms == lenient.axioms + extra[:2] + extra[3:]
    assert once.warnings == folded.warnings
    assert once.warnings[len(lenient.warnings):] == (
        f"auto-declared NamedIndividual <{DISEASE_NS}v1>",
        f"auto-declared Class <{DISEASE_NS}Host>")
    assert signature(once) == _walked_signature(once)
    assert add_axioms(lenient, lenient.axioms) is lenient
    with pytest.raises(UndeclaredEntityError):
        add_axioms(disease, extra)  # strict: v1 was never declared


# ---------------------------------------------------------------------------
# The value types: reprs, equality, pickling, immutability and arguments
# ---------------------------------------------------------------------------


def _values():
    """One instance of each immutable record type, each paired with its repr
    as recorded when the records were frozen dataclasses. `normalize` sorts
    by repr and the tableau breaks ties by it, so these must not move."""
    A, B, R, S, I, J = (Iri("http://x#" + f) for f in ("A", "B", "r", "s", "i", "j"))
    a, b, r = Named(A), Named(B), NamedRole(R)
    probe = ProbeSpec("P", ("A", "B"))
    x = "Iri(value='http://x#{}')".format
    na = f"Named(iri={x('A')})"
    nb = f"Named(iri={x('B')})"
    text = "Iri(value='http://www.w3.org/2001/XMLSchema#string')"
    return [
        (Entity(EntityKind.CONCEPT, A), f"Entity(kind=<EntityKind.CONCEPT: 'Class'>, iri={x('A')})"),
        (r, f"NamedRole(iri={x('r')})"),
        (InverseRole(R), f"InverseRole(iri={x('r')})"),
        (Top(), "Top()"),
        (Bottom(), "Bottom()"),
        (a, na),
        (Intersection((a, b)), f"Intersection(operands=({na}, {nb}))"),
        (Union((a, Top())), f"Union(operands=({na}, Top()))"),
        (Complement(a), f"Complement(operand={na})"),
        (Existential(r, b), f"Existential(role=NamedRole(iri={x('r')}), filler={nb})"),
        (Universal(InverseRole(R), Complement(b)),
         f"Universal(role=InverseRole(iri={x('r')}), filler=Complement(operand={nb}))"),
        (Literal("x"), f"Literal(lexical='x', datatype={text})"),
        (Literal("it's", A), f"Literal(lexical=\"it's\", datatype={x('A')})"),
        (SubConceptOf(a, b), f"SubConceptOf(sub={na}, sup={nb})"),
        (EquivalentConcepts((a, b)), f"EquivalentConcepts(operands=({na}, {nb}))"),
        (DisjointConcepts((a, Bottom())), f"DisjointConcepts(operands=({na}, Bottom()))"),
        (SubRoleOf(R, S), f"SubRoleOf(sub={x('r')}, sup={x('s')})"),
        (InverseRoles(R, S), f"InverseRoles(first={x('r')}, second={x('s')})"),
        (TransitiveRole(R), f"TransitiveRole(role={x('r')})"),
        (RoleDomain(R, a), f"RoleDomain(role={x('r')}, concept={na})"),
        (RoleRange(R, b), f"RoleRange(role={x('r')}, concept={nb})"),
        (ConceptAssertion(a, I), f"ConceptAssertion(concept={na}, individual={x('i')})"),
        (RoleAssertion(R, I, J), f"RoleAssertion(role={x('r')}, subject={x('i')}, object={x('j')})"),
        (DataAssertion(R, I, Literal("1")), f"DataAssertion(role={x('r')}, subject={x('i')}, "
                                            f"value=Literal(lexical='1', datatype={text}))"),
        (AnnotationAssertion(S, A, Literal("n")), f"AnnotationAssertion(role={x('s')}, subject="
                                                  f"{x('A')}, value=Literal(lexical='n', "
                                                  f"datatype={text}))"),
        (Declaration(Entity(EntityKind.INDIVIDUAL, I)),
         f"Declaration(entity=Entity(kind=<EntityKind.INDIVIDUAL: 'NamedIndividual'>, "
         f"iri={x('i')}))"),
        (EntityCounts(1, 2, 3, 4, 5, 6), "EntityCounts(concepts=1, object_roles=2, data_roles=3, "
                                         "annotation_roles=4, individuals=5, datatypes=6)"),
        (SourceLocation(3, 7), "SourceLocation(line=3, column=7)"),
        (Token(TokenKind.KEYWORD, "Ontology", SourceLocation(1, 1)),
         "Token(kind=<TokenKind.KEYWORD: 'Keyword'>, text='Ontology', "
         "location=SourceLocation(line=1, column=1))"),
        (ReasonerLimits(max_steps=5),
         "ReasonerLimits(max_nodes=100000, max_branch_depth=10000, max_steps=5)"),
        (GraphNode(0, frozenset({a}), None), f"GraphNode(id=0, label=frozenset({{{na}}}), "
                                             "parent=None)"),
        (GraphEdge(0, 1, R), f"GraphEdge(source=0, target=1, role={x('r')})"),
        (HierarchyDiff(((A, B),), (), ((A, B),)),
         f"HierarchyDiff(added_parent_links=(({x('A')}, {x('B')}),), removed_parent_links=(), "
         f"new_equivalences=(({x('A')}, {x('B')}),))"),
        (probe, "ProbeSpec(name='P', supers=('A', 'B'))"),
        (ProbeResult(probe, True),
         "ProbeResult(probe=ProbeSpec(name='P', supers=('A', 'B')), satisfiable=True)"),
        (CompetencyQuery(kind=QueryKind.SYMPTOMS_OF, subject=A),
         f"CompetencyQuery(kind=<QueryKind.SYMPTOMS_OF: 'SymptomsOf'>, subject={x('A')}, "
         "role=None)"),
        (CompetencyQuery(QueryKind.FILLERS_OF, a, R),
         f"CompetencyQuery(kind=<QueryKind.FILLERS_OF: 'FillersOf'>, subject={na}, "
         f"role={x('r')})"),
        (LinkReport(3, 1, (("a.html", "b.html"),)),
         "LinkReport(total_links=3, broken_links=1, broken_list=(('a.html', 'b.html'),))"),
        (FixtureLedgerEntry(SubConceptOf(a, b), Provenance.SOURCE_TEXT, "note"),
         f"FixtureLedgerEntry(axiom=SubConceptOf(sub={na}, sup={nb}), "
         "kind=<Provenance.SOURCE_TEXT: 'source-text'>, note='note')"),
    ]


def test_value_reprs_are_unchanged():
    values = _values()
    for value, recorded in values:
        assert repr(value) == recorded
    assert len({type(value) for value, _ in values}) == 37


def test_values_of_different_types_with_equal_fields_differ():
    a, b = named("A"), named("B")
    pairs = [(named("A"), NamedRole(iri("A"))), (Intersection((a, b)), Union((a, b))),
             (SubRoleOf(iri("r"), iri("s")), InverseRoles(iri("r"), iri("s")))]
    for one, other in pairs:
        assert one != other and not one == other
    assert len({value for pair in pairs for value in pair}) == 6


def test_values_survive_pickle_and_copy():
    for original, recorded in _values():
        restored = [pickle.loads(pickle.dumps(original, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        restored += [copy.copy(original), copy.deepcopy(original)]
        for value in restored:
            assert type(value) is type(original) and value == original
            assert hash(value) == hash(original) and repr(value) == recorded


def test_value_attributes_cannot_be_set():
    for value, _ in _values():
        with pytest.raises(AttributeError):
            value.other = 1
    with pytest.raises(AttributeError):
        named("A").iri = iri("B")
    with pytest.raises(AttributeError):
        Literal("x").datatype = XSD_STRING


def test_value_arguments_are_checked_and_defaulted():
    for make in (Named, lambda: Named(iri("A"), iri("B")), lambda: Existential(NamedRole(iri("r"))),
                 lambda: Top(1), lambda: SourceLocation(1), lambda: SourceLocation(1, 2, 3),
                 lambda: Named(iri("A"), iri=iri("A")), lambda: Named(other=iri("A")),
                 lambda: Literal(), lambda: Intersection()):
        with pytest.raises(TypeError):
            make()
    assert Literal("x") == Literal("x", XSD_STRING) == Literal(lexical="x")
    assert Literal("x").datatype is XSD_STRING
    assert Named(iri=iri("A")) == named("A")
    limits = ReasonerLimits(max_steps=5)
    assert (limits.max_nodes, limits.max_branch_depth, limits.max_steps) == (100_000, 10_000, 5)
    assert ReasonerLimits() == ReasonerLimits(100_000, 10_000, 1_000_000)
    query = CompetencyQuery(kind=QueryKind.SYMPTOMS_OF, subject=iri("Giardiasis"))
    assert query.role is None and query.subject == iri("Giardiasis")


def test_value_validation_keeps_its_messages():
    a = named("A")
    for make, message in [
            (lambda: Intersection((a,)), "Intersection needs at least 2 operands"),
            (lambda: Union([a]), "Union needs at least 2 operands"),
            (lambda: EquivalentConcepts(operands=(a,)), "EquivalentConcepts needs at least 2 members"),
            (lambda: DisjointConcepts(()), "DisjointConcepts needs at least 2 members"),
            (lambda: ReasonerLimits(max_nodes=0), "reasoner limits must be strictly positive"),
            (lambda: ReasonerLimits(1, 1, -1), "reasoner limits must be strictly positive"),
            (lambda: ProbeSpec("P", ["A"]), "a probe needs at least 2 superclasses"),
            (lambda: CompetencyQuery(QueryKind.FILLERS_OF, a),
             "a role is given exactly when the kind is FillersOf"),
            (lambda: CompetencyQuery(QueryKind.SYMPTOMS_OF, a, iri("r")),
             "a role is given exactly when the kind is FillersOf")]:
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message
    # Operands and superclasses given as any iterable are kept as tuples.
    assert Intersection([a, named("B")]).operands == (a, named("B"))
    assert type(Union(iter([a, a])).operands) is tuple
    assert ProbeSpec("P", ["A", "B"]).supers == ("A", "B")


# ---------------------------------------------------------------------------
# The Ontology: construction, equality, immutability and copies
# ---------------------------------------------------------------------------


def test_ontology_construction_normalises_its_fields():
    x = Iri("http://x")
    a, b = (Declaration(Entity(EntityKind.CONCEPT, Iri("http://x#" + f))) for f in "AB")
    by_name = Ontology(iri=x, prefixes=[("b", "http://b#"), ("a", "http://a#"), ("b", "http://c#")],
                       axioms=iter([a, b]), strict=True, warnings=["w"])
    assert by_name.iri is x
    assert by_name.prefixes == (("a", "http://a#"), ("b", "http://c#"))
    assert by_name.axioms == (a, b) and by_name.warnings == ("w",) and by_name.strict is True
    assert by_name.prefix_map() == {"a": "http://a#", "b": "http://c#"}
    default = Ontology(x)
    assert (default.prefixes, default.axioms, default.strict, default.warnings) == ((), (), False, ())
    assert repr(Ontology(x, [("b", "http://b#"), ("a", "http://a#")], [a], True, ["w"])) == (
        "Ontology(iri=Iri(value='http://x'), prefixes=(('a', 'http://a#'), ('b', 'http://b#')), "
        "axioms=(Declaration(entity=Entity(kind=<EntityKind.CONCEPT: 'Class'>, "
        "iri=Iri(value='http://x#A'))),), strict=True, warnings=('w',))")
    with pytest.raises(TypeError):
        Ontology()
    with pytest.raises(TypeError):
        Ontology(x, other=())


def test_ontology_equality_ignores_prefix_order_and_is_unhashable():
    a = Declaration(Entity(EntityKind.CONCEPT, iri("A")))
    b = Declaration(Entity(EntityKind.CONCEPT, iri("B")))
    one = Ontology(Iri("http://x"), [("a", "http://a#"), ("b", "http://b#")], [a, b], False, ["w"])
    other = Ontology(Iri("http://x"), [("b", "http://b#"), ("a", "http://a#")], [b, a], True)
    assert one == other and not one != other
    assert one != Ontology(Iri("http://y"), one.prefixes, one.axioms)
    assert one != Ontology(one.iri, [("a", "http://a#")], one.axioms)
    assert one != Ontology(one.iri, one.prefixes, [a])
    assert one != (one.iri, one.prefixes, one.axioms) and one != "Ontology"
    with pytest.raises(TypeError):
        hash(one)


def test_ontology_fields_cannot_be_assigned():
    onto = make_ontology(Iri("http://x"), (), [ConceptAssertion(named("Virus"), iri("v1"))])
    for name in ("iri", "axioms", "warnings", "other"):
        with pytest.raises(AttributeError):
            setattr(onto, name, ())
    with pytest.raises(AttributeError):
        del onto.axioms
    assert onto.axioms == (ConceptAssertion(named("Virus"), iri("v1")),)


def test_ontology_survives_pickle_and_copy(disease):
    signature(disease)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(disease, protocol))
        assert type(restored) is Ontology and restored == disease
        assert repr(restored) == repr(disease) and restored.strict is disease.strict
        assert signature(restored) == signature(disease)
    for restored in (copy.copy(disease), copy.deepcopy(disease)):
        assert restored == disease and repr(restored) == repr(disease)


_DATACLASSES_AFTER_IMPORT = """
import dataclasses, sys
import ontokit, ontokit.cli
print(" ".join(sorted(
    f"{name}.{cls.__name__}" for name, module in sys.modules.items()
    if name.partition(".")[0] == "ontokit"
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls))))
"""


def test_only_the_records_that_need_dataclass_features_are_dataclasses():
    # Each dataclass execs generated methods when ontokit is imported, which
    # every CLI call pays for. Only these two stay dataclasses, because the
    # benchmark's tests (perfbench/test_perfbench.py) call
    # `dataclasses.replace` on a Taxonomy and a SiteDocument. Records that
    # compute a value once keep it in an instance dict (`_Value` with
    # `cached=True`); the Ontology is a plain class with its own `__eq__`.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _DATACLASSES_AFTER_IMPORT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ontokit.sitegen.SiteDocument", "ontokit.taxonomy.Taxonomy"]
