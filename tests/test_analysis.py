import random

import pytest

from ontokit import analysis, reasoner
from ontokit.analysis import (
    CompetencyQuery,
    ProbeNameCollisionError,
    ProbeSpec,
    QueryKind,
    TaxonomyMismatchError,
    UnknownEntityError,
    answer_competency_query,
    asserted_taxonomy,
    diff_taxonomies,
    parse_probe_file,
    run_probes,
)
from ontokit.model import (
    ConceptAssertion,
    Declaration,
    Entity,
    EntityKind,
    Iri,
    Named,
    NamedRole,
    RoleAssertion,
    add_axiom,
    signature,
)
from ontokit.parser import serialize
from ontokit.reasoner import Taxonomy, classify, materialize_inverses, normalize
from ontokit.disease import DISEASE_NS, GIARDIA
from genontology import random_full_ontology


def iri(fragment):
    return Iri(DISEASE_NS + fragment)


# ---------------------------------------------------------------------------
# Asserted taxonomy
# ---------------------------------------------------------------------------


def test_asserted_organism_structure_single_parent(disease):
    asserted = asserted_taxonomy(disease)
    assert asserted.parent_concepts_of(iri("OrganismStructure")) == (iri("DiseaseStructure"),)


def test_asserted_virus_parent(disease):
    asserted = asserted_taxonomy(disease)
    assert asserted.parent_concepts_of(iri("Virus")) == (iri("Infectious"),)


def test_asserted_roots_attach_to_top(disease):
    asserted = asserted_taxonomy(disease)
    top_children = {
        member.fragment
        for child in asserted.children_of(Taxonomy.TOP)
        for member in asserted.members(child)
    }
    assert top_children == {"Disease", "DiseaseArea", "DiseaseSymptoms",
                            "DiseasePrevention", "DiseaseStructure",
                            "GeneticMaterial"}


def test_asserted_taxonomy_empty_ontology():
    from ontokit.model import Ontology
    taxonomy = asserted_taxonomy(Ontology(Iri("http://x")))
    assert taxonomy.groups == ((), ())
    assert taxonomy.edges == ((Taxonomy.BOTTOM, Taxonomy.TOP),)


# ---------------------------------------------------------------------------
# Hierarchy diff
# ---------------------------------------------------------------------------


def test_diff_fixture_exactly_one_added_link(disease, disease_taxonomy):
    diff = diff_taxonomies(asserted_taxonomy(disease), disease_taxonomy)
    assert diff.added_parent_links == ((iri("OrganismStructure"), iri("Infectious")),)
    assert diff.removed_parent_links == ()
    assert diff.new_equivalences == ()


def test_diff_identical_taxonomies_empty(disease):
    asserted = asserted_taxonomy(disease)
    diff = diff_taxonomies(asserted, asserted)
    assert diff.empty


def test_diff_removed_links_verified_by_closure(disease, disease_taxonomy):
    # Oracle: every told direct link must survive in the inferred closure.
    asserted = asserted_taxonomy(disease)
    inferred_closure = disease_taxonomy.closure_pairs()
    for link in asserted.named_links():
        assert link in inferred_closure


def test_diff_rejects_concept_set_mismatch(disease):
    extended = add_axiom(disease,
                         Declaration(Entity(EntityKind.CONCEPT, iri("Extra"))))
    with pytest.raises(TaxonomyMismatchError):
        diff_taxonomies(asserted_taxonomy(disease), classify(extended))


def test_diff_added_and_removed_disjoint(disease, disease_taxonomy):
    diff = diff_taxonomies(asserted_taxonomy(disease), disease_taxonomy)
    assert not (set(diff.added_parent_links) & set(diff.removed_parent_links))


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def test_probe_spec_arity():
    with pytest.raises(ValueError):
        ProbeSpec("P", ("OnlyOne",))


def test_parse_probe_file():
    text = "# comment\nProbeType1: Autoimmune, Infectious\n\nP2: A, B, C\n"
    probes = parse_probe_file(text)
    assert probes == [ProbeSpec("ProbeType1", ("Autoimmune", "Infectious")),
                      ProbeSpec("P2", ("A", "B", "C"))]


def test_parse_probe_file_defaults_names():
    probes = parse_probe_file("Autoimmune, Infectious\nExternal, Internal\n")
    assert [p.name for p in probes] == ["ProbeType1", "ProbeType2"]


def test_parse_probe_file_rejects_malformed():
    with pytest.raises(ValueError):
        parse_probe_file("OnlyOneSuper\n")
    with pytest.raises(ValueError):
        parse_probe_file(": A, B\n")


def test_table1_probes_all_unsatisfiable(disease, probes):
    results = run_probes(disease, probes)
    assert [r.satisfiable for r in results] == [False, False, False]
    assert [r.probe.name for r in results] == ["ProbeType1", "ProbeType2", "ProbeType3"]


def test_probe_under_same_class_twice_satisfiable(disease):
    results = run_probes(disease, [ProbeSpec("ProbeX", ("Virus", "Virus"))])
    assert results[0].satisfiable


def test_probes_leave_ontology_unchanged(disease, probes):
    before = serialize(disease)
    run_probes(disease, probes)
    assert serialize(disease) == before


def test_probe_name_collision_rejected(disease):
    with pytest.raises(ProbeNameCollisionError):
        run_probes(disease, [ProbeSpec("Virus", ("Autoimmune", "Infectious"))])


def test_probe_unknown_superclass_rejected(disease):
    with pytest.raises(UnknownEntityError):
        run_probes(disease, [ProbeSpec("ProbeX", ("Nonexistent", "Virus"))])


def test_probe_names_fresh_in_fixture(disease, probes):
    from ontokit.model import signature
    fragments = {entity.iri.fragment for entity in signature(disease)}
    for probe in probes:
        assert probe.name not in fragments


def test_probe_flips_when_disjointness_removed(disease, probes):
    from ontokit.model import DisjointConcepts, make_ontology
    for index, probe in enumerate(probes):
        supers = {DISEASE_NS + s for s in probe.supers}
        remaining = [
            a for a in disease.axioms
            if not (isinstance(a, DisjointConcepts)
                    and {op.iri.value for op in a.operands} >= supers)
        ]
        trimmed = make_ontology(disease.iri, disease.prefixes, remaining, strict=True)
        results = run_probes(trimmed, probes)
        assert results[index].satisfiable, probe.name
        for other, result in enumerate(results):
            if other != index:
                assert not result.satisfiable


# ---------------------------------------------------------------------------
# Competency queries
# ---------------------------------------------------------------------------


def test_query_super_concepts_of_organism_structure(disease):
    query = CompetencyQuery(QueryKind.SUPER_CONCEPTS_OF, iri("OrganismStructure"))
    result = answer_competency_query(query, disease)
    assert iri("Infectious") in result
    assert iri("Disease") in result


def test_query_sub_concepts_of_disease(disease):
    query = CompetencyQuery(QueryKind.SUB_CONCEPTS_OF, iri("Disease"))
    result = answer_competency_query(query, disease)
    assert iri("Virus") in result
    assert iri("OrganismStructure") in result


def test_query_genetics_of_giardia_empty(disease):
    # The existential is a TBox constraint, not an assertion on the individual.
    query = CompetencyQuery(QueryKind.GENETICS_OF, GIARDIA)
    assert answer_competency_query(query, disease) == ()


def test_query_instances_of_infectious(disease):
    query = CompetencyQuery(QueryKind.INSTANCES_OF, iri("Infectious"))
    assert answer_competency_query(query, disease) == (GIARDIA,)


def _with_symptom_assertion(disease):
    o = add_axiom(disease, Declaration(Entity(EntityKind.INDIVIDUAL, iri("d1"))))
    o = add_axiom(o, Declaration(Entity(EntityKind.INDIVIDUAL, iri("s1"))))
    o = add_axiom(o, ConceptAssertion(Named(iri("Virus")), iri("d1")))
    o = add_axiom(o, RoleAssertion(iri("hasSymptoms"), iri("d1"), iri("s1")))
    return o


def test_query_symptoms_and_inverse_direction(disease):
    o = _with_symptom_assertion(disease)
    symptoms = answer_competency_query(
        CompetencyQuery(QueryKind.SYMPTOMS_OF, iri("d1")), o)
    assert symptoms == (iri("s1"),)
    diseases = answer_competency_query(
        CompetencyQuery(QueryKind.DISEASES_WITH_SYMPTOM, iri("s1")), o)
    assert diseases == (iri("d1"),)


def test_query_fillers_of_uses_materialized_inverse(disease):
    o = _with_symptom_assertion(disease)
    fillers = answer_competency_query(
        CompetencyQuery(QueryKind.FILLERS_OF, iri("s1"), role=iri("isSymptomsOf")), o)
    # Oracle: direct inspection of the materialized assertion set.
    from ontokit.reasoner import materialize_inverses
    materialized = materialize_inverses(o)
    expected = tuple(sorted(
        (a.object for a in materialized.axioms
         if isinstance(a, RoleAssertion)
         and a.role == iri("isSymptomsOf") and a.subject == iri("s1")),
        key=lambda x: x.value))
    assert fillers == expected == (iri("d1"),)


def test_role_filler_queries_compile_nothing(disease, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a role-filler query compiled or materialized")

    for module in (analysis, reasoner):
        monkeypatch.setattr(module, "normalize", forbidden, raising=False)
        monkeypatch.setattr(module, "materialize_inverses", forbidden, raising=False)
    o = _with_symptom_assertion(disease)
    assert answer_competency_query(
        CompetencyQuery(QueryKind.SYMPTOMS_OF, iri("d1")), o) == (iri("s1"),)
    assert answer_competency_query(
        CompetencyQuery(QueryKind.FILLERS_OF, iri("s1"), role=iri("isSymptomsOf")),
        o) == (iri("d1"),)


def test_query_structures_of_includes_sub_roles(disease):
    o = add_axiom(disease, Declaration(Entity(EntityKind.INDIVIDUAL, iri("d1"))))
    o = add_axiom(o, Declaration(Entity(EntityKind.INDIVIDUAL, iri("o1"))))
    o = add_axiom(o, RoleAssertion(iri("hasOrganismStructure"), iri("d1"), iri("o1")))
    result = answer_competency_query(
        CompetencyQuery(QueryKind.STRUCTURES_OF, iri("d1")), o)
    assert result == (iri("o1"),)


def test_query_monotone_under_new_assertions(disease):
    o = _with_symptom_assertion(disease)
    before = answer_competency_query(
        CompetencyQuery(QueryKind.FILLERS_OF, iri("d1"), role=iri("hasSymptoms")), o)
    extended = add_axiom(o, Declaration(Entity(EntityKind.INDIVIDUAL, iri("s2"))))
    extended = add_axiom(extended,
                         RoleAssertion(iri("hasSymptoms"), iri("d1"), iri("s2")))
    after = answer_competency_query(
        CompetencyQuery(QueryKind.FILLERS_OF, iri("d1"), role=iri("hasSymptoms")),
        extended)
    assert set(before) <= set(after)


def test_query_unknown_subject_rejected(disease):
    with pytest.raises(UnknownEntityError):
        answer_competency_query(
            CompetencyQuery(QueryKind.SYMPTOMS_OF, Iri("http://nowhere#x")), disease)


def test_query_role_only_for_fillers_of():
    with pytest.raises(ValueError):
        CompetencyQuery(QueryKind.SYMPTOMS_OF, Iri("http://x#i"), role=Iri("http://x#r"))
    with pytest.raises(ValueError):
        CompetencyQuery(QueryKind.FILLERS_OF, Iri("http://x#i"))


def test_query_kinds_without_data_return_empty(disease):
    for kind in (QueryKind.PREVENTIONS_OF, QueryKind.AREAS_OF,
                 QueryKind.STRUCTURES_OF):
        assert answer_competency_query(
            CompetencyQuery(kind, GIARDIA), disease) == ()


def test_role_fillers_agree_with_materialized_inverses():
    # Oracle: fillers read off the materialized assertion set through the
    # compiled role hierarchy. The query reads the told assertions instead.
    implied = 0
    for seed in range(40):
        o = random_full_ontology(random.Random(seed))
        materialized = [a for a in materialize_inverses(o).axioms
                        if isinstance(a, RoleAssertion)]
        tbox = normalize(o)
        of_kind = lambda kind: [e.iri for e in signature(o) if e.kind is kind]
        for subject in of_kind(EntityKind.INDIVIDUAL):
            for role in of_kind(EntityKind.OBJECT_ROLE):
                expected = {a.object for a in materialized if a.subject == subject
                            and NamedRole(role) in tbox.subsumers_of(NamedRole(a.role))}
                answer = answer_competency_query(
                    CompetencyQuery(QueryKind.FILLERS_OF, subject, role=role), o)
                assert answer == tuple(sorted(expected, key=lambda i: i.value)), \
                    (seed, subject, role)
                told = {a.object for a in o.axioms if isinstance(a, RoleAssertion)
                        and a.subject == subject and a.role == role}
                implied += len(expected - told)
    # Some answers come only through inverses or sub-roles.
    assert implied > 0
