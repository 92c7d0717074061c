import importlib
import pathlib
import random

import pytest

from ontokit import analysis, reasoner, tableau
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
    SubConceptOf,
    add_axiom,
    signature,
)
from ontokit.parser import parse, serialize
from ontokit.reasoner import (
    DEFAULT_LIMITS,
    ReasonerLimits,
    ResourceLimitExceeded,
    Taxonomy,
    classify,
    materialize_inverses,
    normalize,
)
from ontokit.disease import DISEASE_NS, GIARDIA
from genontology import random_abox_ontology, random_alc_ontology, random_full_ontology

SEED = 20261018


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


def closure_diff(asserted, inferred):
    """`diff_taxonomies` by its definition: each side's direct links minus
    the other side's whole closure."""
    return analysis.HierarchyDiff(
        tuple(sorted(inferred.named_links() - asserted.closure_pairs())),
        tuple(sorted(asserted.named_links() - inferred.closure_pairs())),
        tuple(sorted(analysis._equivalence_pairs(inferred)
                     - analysis._equivalence_pairs(asserted))))


def test_diff_equals_the_closure_definition(disease, disease_taxonomy):
    pairs = [(asserted_taxonomy(disease), disease_taxonomy)]
    rng = random.Random(20)
    for _ in range(60):
        ontology = random_alc_ontology(rng)[0]
        pairs.append((asserted_taxonomy(ontology), classify(ontology)))
    links = 0
    for asserted, inferred in pairs:
        for one, other in ((asserted, inferred), (inferred, asserted)):
            diff = diff_taxonomies(one, other)
            assert diff == closure_diff(one, other)
            links += len(diff.added_parent_links) + len(diff.removed_parent_links)
    assert links > 60, links


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


def extended_copy_verdicts(ontology, probes):
    """Each probe's verdict the long way: declare it as a fresh class under
    its superclasses on a copy of the ontology, compile that copy and test
    the class."""
    concepts = {e.iri.fragment: e.iri for e in signature(ontology)
                if e.kind is EntityKind.CONCEPT}
    namespace = ontology.iri.value + "#probe-"
    verdicts = []
    for probe in probes:
        name = Iri(namespace + probe.name)
        extended = add_axiom(ontology, Declaration(Entity(EntityKind.CONCEPT, name)))
        for super_name in probe.supers:
            extended = add_axiom(extended, SubConceptOf(Named(name), Named(concepts[super_name])))
        verdicts.append(reasoner.is_satisfiable(Named(name), normalize(extended)).satisfiable)
    return verdicts


def test_probes_agree_with_extended_copies(disease):
    rng = random.Random(20261019)
    names = sorted(e.iri.fragment for e in signature(disease) if e.kind is EntityKind.CONCEPT)
    cases = [(disease, [ProbeSpec(f"Pair{i}", tuple(rng.sample(names, 2))) for i in range(40)])]
    for _ in range(150):
        ontology = random_full_ontology(rng)
        names = sorted({e.iri.fragment for e in signature(ontology)
                        if e.kind is EntityKind.CONCEPT})
        cases.append((ontology, [
            ProbeSpec(f"Probe{i}", tuple(rng.choices(names, k=rng.randint(2, 3))))
            for i in range(3)]))
    unsatisfiable = 0
    for ontology, probes in cases:
        verdicts = [result.satisfiable for result in run_probes(ontology, probes)]
        assert verdicts == extended_copy_verdicts(ontology, probes)
        unsatisfiable += verdicts.count(False)
    assert unsatisfiable >= 20, unsatisfiable


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


def test_role_filler_queries_reject_a_concept_subject(disease):
    concept = Named(Iri(DISEASE_NS + "Disease"))
    with pytest.raises(UnknownEntityError,
                       match=r"^role-filler queries take an individual IRI$"):
        answer_competency_query(CompetencyQuery(QueryKind.SYMPTOMS_OF, concept), disease)
    with pytest.raises(UnknownEntityError, match=r"^FillersOf takes an individual IRI$"):
        answer_competency_query(CompetencyQuery(
            QueryKind.FILLERS_OF, concept, role=Iri(DISEASE_NS + "hasSymptoms")), disease)
    with pytest.raises(UnknownEntityError, match=r"^unknown subject entity: <http://nowhere#x>$"):
        answer_competency_query(CompetencyQuery(
            QueryKind.FILLERS_OF, Iri("http://nowhere#x"), role=Iri(DISEASE_NS + "hasSymptoms")),
            disease)


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


# ---------------------------------------------------------------------------
# SuperConceptsOf reads the subject's own run
# ---------------------------------------------------------------------------


def super_concepts(ontology, name, limits=DEFAULT_LIMITS):
    query = CompetencyQuery(QueryKind.SUPER_CONCEPTS_OF, name)
    return answer_competency_query(query, ontology, limits)


def count_runs(monkeypatch):
    """A list that gains one entry per tableau run (`tableau._Work`)."""
    runs = []
    original = tableau._Work.__init__

    def counting(self, limits):
        original(self, limits)
        runs.append(1)

    monkeypatch.setattr(tableau._Work, "__init__", counting)
    return runs


def test_super_concepts_of_equal_classify_ancestors(disease):
    # Every name of the fixture and of 600 random draws, with their
    # unsatisfiable names (classify's fallback) and names equivalent to ⊤.
    # One random_full_ontology draw thrashes: classify trips the default
    # step limit after about 30 s, and 20,000 steps after 0.1 s. Both sides
    # get the smaller limit, and that draw is compared on no name.
    limits = ReasonerLimits(max_steps=20_000)
    rng = random.Random(SEED)
    draws = [disease]
    for _ in range(200):
        draws += [random_alc_ontology(rng)[0], random_full_ontology(rng),
                  random_abox_ontology(rng)]
    names = unsatisfiable = top = tripped = 0
    for ontology in draws:
        try:
            taxonomy = classify(ontology, limits)
        except ResourceLimitExceeded:
            tripped += 1
            continue
        unsatisfiable += len(taxonomy.members(Taxonomy.BOTTOM))
        top += len(taxonomy.members(Taxonomy.TOP))
        for name in taxonomy.concepts():
            assert super_concepts(ontology, name, limits) == taxonomy.ancestors_of(name), name
            names += 1
    assert tripped <= 1 and names > 1500, (tripped, names)
    assert unsatisfiable > 20 and top > 20, (unsatisfiable, top)


EDGE_CASES = """Prefix(:=<http://x#>)
Prefix(owl:=<http://www.w3.org/2002/07/owl#>)
Ontology(<http://x>
Declaration(ObjectProperty(:r))
SubClassOf(:Bad :A)
SubClassOf(:Bad ObjectComplementOf(:A))
SubClassOf(owl:Thing :T)
EquivalentClasses(:E :F)
SubClassOf(:G :H)
SubClassOf(:H ObjectIntersectionOf(:G :K))
EquivalentClasses(:I ObjectAllValuesFrom(:r :C))
EquivalentClasses(:J ObjectAllValuesFrom(:r :D))
SubClassOf(:O ObjectAllValuesFrom(:r :C))
)
"""


def test_super_concepts_of_edge_cases(monkeypatch):
    ontology = parse(EDGE_CASES)
    x = lambda names: tuple(Iri("http://x#" + name) for name in names.split())
    tests = []
    original = reasoner.is_subsumed_by

    def recording(sub, sup, tbox, limits):
        if isinstance(sub, Named):
            tests.append((sub.iri.fragment, sup.iri.fragment))
        return original(sub, sup, tbox, limits)

    monkeypatch.setattr(reasoner, "is_subsumed_by", recording)
    answers = {name: super_concepts(ontology, name) for name in x("Bad T E G H O")}
    assert answers == {
        # Unsatisfiable: below every satisfiable name, from a classification.
        x("Bad")[0]: x("A C D E F G H I J K O T"),
        # Equivalent to ⊤: no name is strictly above it.
        x("T")[0]: (),
        # A told equivalent is dropped untested.
        x("E")[0]: x("T"),
        # An inferred equivalent is dropped by one test: H ⊑ G is not told,
        # while G ⊑ H is.
        x("G")[0]: x("K T"),
        x("H")[0]: x("K T"),
        # A defined name absent from the label is only a possible subsumer,
        # which one test decides: O ⊑ I holds, O ⊑ J does not.
        x("O")[0]: x("I T"),
    }
    assert ("F", "E") not in tests and ("E", "F") not in tests
    assert ("H", "G") in tests and ("G", "H") not in tests
    assert ("O", "I") in tests and ("O", "J") in tests
    taxonomy = classify(ontology)
    for name in taxonomy.concepts():
        assert super_concepts(ontology, Named(name)) == taxonomy.ancestors_of(name)


def test_super_concepts_of_rejects_a_non_concept_before_reasoning(disease, monkeypatch):
    runs = count_runs(monkeypatch)
    for kind in (QueryKind.SUPER_CONCEPTS_OF, QueryKind.SUB_CONCEPTS_OF):
        for subject in (iri("hasSymptoms"), GIARDIA, Iri("http://nowhere#x")):
            with pytest.raises(UnknownEntityError, match=rf"^unknown concept: <{subject}>$"):
                answer_competency_query(CompetencyQuery(kind, subject), disease)
    assert runs == []


def test_super_concepts_of_answers_where_classify_trips_a_limit():
    # Hard's run makes a node per existential; Easy's runs make one each.
    ontology = parse("""Prefix(:=<http://x#>)
Ontology(<http://x>
SubClassOf(:Easy :Up)
SubClassOf(:Hard ObjectIntersectionOf(ObjectSomeValuesFrom(:r :X1) ObjectSomeValuesFrom(:r :X2)
  ObjectSomeValuesFrom(:r :X3) ObjectSomeValuesFrom(:r :X4)))
)
""")
    limits = ReasonerLimits(max_nodes=3)
    with pytest.raises(ResourceLimitExceeded):
        classify(ontology, limits)
    assert super_concepts(ontology, Iri("http://x#Easy"), limits) == (Iri("http://x#Up"),)
    with pytest.raises(ResourceLimitExceeded):
        answer_competency_query(
            CompetencyQuery(QueryKind.SUB_CONCEPTS_OF, Iri("http://x#Up")), ontology, limits)


def test_super_concepts_of_runs_the_subjects_tests_only(disease, monkeypatch):
    runs = count_runs(monkeypatch)
    # One run for the subject and one test for each of its three ancestors;
    # classifying made 25.
    assert super_concepts(disease, iri("OrganismStructure")) == (
        iri("Disease"), iri("DiseaseStructure"), iri("Infectious"))
    assert len(runs) <= 5, len(runs)
    # The benchmark's seeded TBox of 1,600 classes: classifying made 1,601.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    ontology = parse(importlib.import_module("gen").tbox_spec(1009, 1600).text)
    last = list(reasoner.told_subsumers(ontology))[-1]
    runs.clear()
    assert super_concepts(ontology, last)
    assert len(runs) <= 10, len(runs)
