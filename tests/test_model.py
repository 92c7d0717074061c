import copy
import pickle
import random
import re
import sys

import pytest

from ontokit.model import (
    AnnotationAssertion,
    ConceptAssertion,
    Declaration,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    Iri,
    Literal,
    Named,
    NamedRole,
    Ontology,
    RoleRange,
    SubConceptOf,
    UndeclaredEntityError,
    EntityNotInSignatureError,
    Union,
    XSD_STRING,
    add_axiom,
    add_axioms,
    axiom_references,
    compute_counts,
    make_ontology,
    signature,
    usages,
)
from ontokit.disease import DISEASE_NS, GIARDIA


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
