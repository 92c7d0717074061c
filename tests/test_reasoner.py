import pickle
import random

import pytest

from ontokit import reasoner, tableau
from ontokit.model import (
    Axiom,
    Bottom,
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
    InverseRole,
    InverseRoles,
    Iri,
    Named,
    NamedRole,
    Ontology,
    OWL_NOTHING,
    OWL_THING,
    RoleAssertion,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    Union,
    Universal,
    make_ontology,
)
from ontokit.parser import serialize
from ontokit.reasoner import (
    CompletionGraph,
    GraphNode,
    InconsistentOntologyError,
    ReasonerLimits,
    ResourceLimitExceeded,
    SatResult,
    Taxonomy,
    UnsupportedAxiomError,
    classify,
    entailed_types,
    instances_of,
    is_consistent,
    is_satisfiable,
    is_subsumed_by,
    materialize_inverses,
    normalize,
    realize,
    to_nnf,
)
from ontokit.disease import DISEASE_NS, GIARDIA
from ontokit.model import (
    UndeclaredEntityError, add_axiom, axiom_references, signature, subexpressions)
from genontology import disease_abox_ontology, random_abox_ontology, random_full_ontology
from modelsearch import Interpretation, check_model, eval_concept, find_countermodel

NS = "http://example.org/t#"


def iri(fragment):
    return Iri(DISEASE_NS + fragment)


def named(fragment):
    return Named(iri(fragment))


def t(fragment):
    return Iri(NS + fragment)


def tiny_ontology(axioms, extra_decls=()):
    decls = []
    seen = set()
    for kind, name in extra_decls:
        decls.append(Declaration(Entity(kind, t(name))))
        seen.add(name)
    return make_ontology(Iri(NS.rstrip("#")), (("", NS),), list(decls) + list(axioms))


# ---------------------------------------------------------------------------
# NNF
# ---------------------------------------------------------------------------


def test_nnf_de_morgan():
    a, b = Named(t("A")), Named(t("B"))
    assert to_nnf(Complement(Intersection((a, b)))) == Union((Complement(a), Complement(b)))
    assert to_nnf(Complement(Union((a, b)))) == Intersection((Complement(a), Complement(b)))


def test_nnf_quantifier_duality():
    a = Named(t("A"))
    r = NamedRole(t("r"))
    assert to_nnf(Complement(Existential(r, a))) == Universal(r, Complement(a))
    assert to_nnf(Complement(Universal(r, Complement(a)))) == Existential(r, a)


def test_nnf_double_negation_and_constants():
    a = Named(t("A"))
    assert to_nnf(Complement(Complement(a))) == a
    assert to_nnf(Complement(Top())) == Bottom()
    assert to_nnf(Complement(Bottom())) == Top()


def test_nnf_complements_builtin_names():
    assert to_nnf(Complement(Named(OWL_THING))) == Bottom()
    assert to_nnf(Complement(Named(OWL_NOTHING))) == Top()
    assert to_nnf(Complement(Complement(Named(OWL_THING)))) == Top()


# The oracle's verdicts below come from the empty TBox: a countermodel of a
# larger TBox is one of the empty TBox, so none there means none anywhere.
NO_AXIOMS = Ontology(Iri(NS.rstrip("#")))


def test_every_concept_is_subsumed_by_owl_thing(disease_tbox):
    assert find_countermodel(NO_AXIOMS, named("Disease"), Named(OWL_THING)) == (None, True)
    assert is_subsumed_by(named("Disease"), Named(OWL_THING), disease_tbox)


def test_every_individual_is_an_instance_of_owl_thing(disease):
    assert find_countermodel(NO_AXIOMS, Top(), Named(OWL_THING)) == (None, True)
    assert instances_of(Named(OWL_THING), disease) == (GIARDIA,)


def test_disjointness_with_owl_thing_makes_a_name_unsatisfiable():
    a, b = Named(t("A")), Named(t("B"))
    o = tiny_ontology([DisjointConcepts((a, Named(OWL_THING)))],
                      extra_decls=[(EntityKind.CONCEPT, "A"), (EntityKind.CONCEPT, "B")])
    assert find_countermodel(o, a, Bottom()) == (None, True)
    model, _ = find_countermodel(o, b, Bottom())
    assert model is not None
    assert not is_satisfiable(a, normalize(o)).satisfiable
    taxonomy = classify(o)
    assert taxonomy.groups[Taxonomy.BOTTOM] == (t("A"),)


def test_nnf_preserves_structure():
    a, b = Named(t("A")), Named(t("B"))
    expr = Intersection((Union((a, b)), Existential(NamedRole(t("r")), a)))
    assert to_nnf(expr) == expr


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_extracts_fixture_definition(disease_tbox):
    # `Infectious ≡ ∃hasGenetics.GeneticMaterial` is demoted: its body
    # absorbs into GeneticMaterial as `∀hasGenetics⁻.Infectious`.
    has_genetics = NamedRole(iri("hasGenetics"))
    assert disease_tbox.definitions == {}
    assert (Existential(has_genetics, named("GeneticMaterial")), named("Infectious")) \
        in disease_tbox.general_inclusions
    assert disease_tbox.absorbed[iri("GeneticMaterial")] == (
        Universal(InverseRole(iri("hasGenetics")), named("Infectious")),)
    assert disease_tbox.node_constraints == ()


def test_normalize_compiles_disjointness(disease_tbox):
    pair = (named("Autoimmune"), Complement(named("Infectious")))
    assert pair in disease_tbox.general_inclusions


def test_normalize_compiles_domain_and_range(disease_tbox):
    domain = (Existential(NamedRole(iri("hasSymptoms")), Top()), named("Disease"))
    range_ = (Top(), Universal(NamedRole(iri("hasSymptoms")), named("DiseaseSymptoms")))
    assert domain in disease_tbox.general_inclusions
    assert range_ in disease_tbox.general_inclusions


def test_normalize_everything_in_nnf(disease_tbox):
    def nnf_ok(expr):
        if isinstance(expr, Complement):
            return isinstance(expr.operand, Named)
        if isinstance(expr, (Intersection, Union)):
            return all(nnf_ok(op) for op in expr.operands)
        if isinstance(expr, (Existential, Universal)):
            return nnf_ok(expr.filler)
        return True

    for lhs, rhs in disease_tbox.general_inclusions:
        assert nnf_ok(lhs) and nnf_ok(rhs)
    for body in disease_tbox.definitions.values():
        assert nnf_ok(body)


def test_normalize_role_hierarchy_closed_under_inverse(disease_tbox):
    subs = disease_tbox.role_subsumers
    has_org = NamedRole(iri("hasOrganismStructure"))
    assert NamedRole(iri("hasStructure")) in subs[has_org]
    # r ⊑ s implies inverse(r) ⊑ inverse(s)
    assert InverseRole(iri("hasStructure")) in subs[InverseRole(iri("hasOrganismStructure"))]
    # hasOrganismStructure⁻ ⊑ hasStructure⁻ ≡ isStructureOf
    assert NamedRole(iri("isStructureOf")) in subs[InverseRole(iri("hasOrganismStructure"))]


def test_normalize_reads_no_assertion(disease):
    # The compiled TBox, its role closure and its blocking flag included,
    # comes from the TBox and RBox axioms alone: an ontology that gains
    # only assertions compiles to an equal TBox.
    draws = [disease]
    for generate in (random_full_ontology, random_abox_ontology):
        rng = random.Random(5)
        draws += [generate(rng) for _ in range(300)]
    with_assertions = inverse_in_assertions = 0
    for ontology in draws:
        assertions = [axiom for axiom in ontology.axioms
                      if isinstance(axiom, (ConceptAssertion, RoleAssertion, DataAssertion))]
        tbox_only = make_ontology(ontology.iri, ontology.prefixes,
                                  [axiom for axiom in ontology.axioms if axiom not in assertions],
                                  strict=ontology.strict)
        assert normalize(ontology) == normalize(tbox_only)
        with_assertions += bool(assertions)
        inverse_in_assertions += any(
            isinstance(part, (Existential, Universal)) and isinstance(part.role, InverseRole)
            for axiom in assertions if isinstance(axiom, ConceptAssertion)
            for part in subexpressions(axiom.concept))
    assert with_assertions >= 300 and inverse_in_assertions >= 20, (
        with_assertions, inverse_in_assertions)


def test_normalize_rejects_unknown_axiom_kind():
    class Mystery(Axiom):
        def __hash__(self):
            return 1

        def __eq__(self, other):
            return isinstance(other, Mystery)

    bad = Ontology(Iri("http://x"), axioms=(Mystery(),))
    with pytest.raises(UnsupportedAxiomError):
        normalize(bad)


def test_second_definition_demotes_to_inclusions():
    a, b, c = Named(t("A")), Named(t("B")), Named(t("C"))
    o = tiny_ontology([EquivalentConcepts((a, b)), EquivalentConcepts((a, c))])
    tbox = normalize(o)
    assert t("A") not in tbox.definitions
    # Both equivalences still hold through the general inclusions.
    assert is_subsumed_by(b, c, tbox)
    assert is_subsumed_by(c, b, tbox)


def test_cyclic_definitions_demote_but_stay_sound():
    a, b = Named(t("A")), Named(t("B"))
    r = NamedRole(t("r"))
    o = tiny_ontology([
        EquivalentConcepts((a, Existential(r, b))),
        EquivalentConcepts((b, Existential(r, a))),
    ])
    tbox = normalize(o)
    assert t("A") not in tbox.definitions
    assert t("B") not in tbox.definitions
    assert is_satisfiable(a, tbox)


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------


def test_top_is_satisfiable(disease_tbox):
    assert is_satisfiable(Top(), disease_tbox).satisfiable


def test_direct_clash_is_unsatisfiable():
    tbox = normalize(tiny_ontology([]))
    a = Named(t("A"))
    assert not is_satisfiable(Intersection((a, Complement(a))), tbox).satisfiable


def test_probe_intersection_unsatisfiable(disease_tbox):
    probe = Intersection((named("Autoimmune"), named("Infectious")))
    assert not is_satisfiable(probe, disease_tbox).satisfiable


def test_disjointness_symmetry(disease_tbox):
    one = Intersection((named("Autoimmune"), named("Infectious")))
    other = Intersection((named("Infectious"), named("Autoimmune")))
    assert not is_satisfiable(one, disease_tbox).satisfiable
    assert not is_satisfiable(other, disease_tbox).satisfiable


def test_defined_class_catches_indirect_members(disease_tbox):
    # Anything with genetic material is Infectious, hence clashes with Autoimmune.
    probe = Intersection((
        named("Autoimmune"),
        Existential(NamedRole(iri("hasGenetics")), named("GeneticMaterial")),
    ))
    assert not is_satisfiable(probe, disease_tbox).satisfiable


def test_witness_is_returned_for_satisfiable(disease_tbox):
    verdict = is_satisfiable(named("Virus"), disease_tbox)
    assert verdict.satisfiable
    assert verdict.witness is not None
    root = verdict.witness.nodes[0]
    assert named("Virus") in root.label


def test_sat_result_is_its_verdict(disease, monkeypatch):
    frozen = []
    freeze = tableau._Tableau.freeze
    monkeypatch.setattr(tableau._Tableau, "freeze",
                        lambda self, graph: frozen.append(graph) or freeze(self, graph))
    tbox = normalize(disease)
    yes = is_satisfiable(named("Virus"), tbox)
    no = is_satisfiable(Bottom(), tbox)
    # Equal, hashed and printed by the verdict alone, not by the graph kept.
    assert yes == is_satisfiable(named("Bacteria"), tbox) == SatResult(True)
    assert no == SatResult(False) and yes != no
    assert hash(yes) == hash(SatResult(True))
    assert (repr(yes), repr(no)) == ("SatResult(satisfiable=True)", "SatResult(satisfiable=False)")
    assert bool(yes) is True and bool(no) is False
    assert no.witness is None and no.root_label is None and SatResult(True).witness is None
    # The witness is frozen from the final graph on first access, once.
    assert frozen == []
    witness = yes.witness
    assert yes.witness is witness and len(frozen) == 1
    assert tbox.table.ids[named("Virus")] in yes.root_label
    for name, value in (("satisfiable", False), ("witness", None), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(yes, name, value)


def test_completion_graph_equality_hash_repr_and_pickle(disease):
    witness = is_satisfiable(named("Infectious"), normalize(disease)).witness
    again = is_satisfiable(named("Infectious"), normalize(disease)).witness
    assert len(witness.nodes) == 3 and len(witness.edges) == 2
    assert witness == again and witness is not again and hash(witness) == hash(again)
    rebuilt = CompletionGraph(nodes=witness.nodes, edges=witness.edges,
                              blocking=witness.blocking, clash=witness.clash)
    assert rebuilt == witness and repr(rebuilt) == repr(witness)
    assert witness != CompletionGraph(witness.nodes, witness.edges, witness.blocking, True)
    assert witness != CompletionGraph(witness.nodes[:1], (), (), False)
    assert repr(CompletionGraph((GraphNode(0, frozenset({named("Virus")}), None),), (), (), False)) \
        == ("CompletionGraph(nodes=(GraphNode(id=0, label=frozenset({Named(iri=Iri(value="
            f"'{DISEASE_NS}Virus'))}}), parent=None),), edges=(), blocking=(), clash=False)")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(witness, protocol))
        assert type(restored) is CompletionGraph and restored == witness
    with pytest.raises(AttributeError):
        witness.clash = True


def test_normalized_tbox_builds_its_table_once(disease, monkeypatch):
    built = []
    table = reasoner.ConceptTable
    monkeypatch.setattr(reasoner, "ConceptTable", lambda tbox: built.append(tbox) or table(tbox))
    tbox = normalize(disease)
    assert built == []  # compiling costs nothing until the tableau runs
    first = tbox.table
    is_satisfiable(named("Virus"), tbox)
    is_subsumed_by(named("Virus"), named("Infectious"), tbox)
    assert tbox.table is first and built == [tbox]
    # Equality and the repr are the fields': a built table is neither.
    fresh = normalize(disease)
    assert fresh == tbox and repr(fresh) == repr(tbox) and built == [tbox]
    a, b = Named(t("A")), Named(t("B"))
    assert repr(normalize(make_ontology(Iri("http://x"), axioms=[SubConceptOf(a, b)]))) == (
        f"NormalizedTBox(definitions={{}}, negated_definitions={{}}, general_inclusions="
        f"((Named(iri=Iri(value='{NS}A')), Named(iri=Iri(value='{NS}B'))),), "
        f"role_subsumers={{}}, transitive_roles=frozenset(), absorbed={{Iri(value='{NS}A'): "
        f"(Named(iri=Iri(value='{NS}B')),)}}, domain_triggers=(), node_constraints=(), "
        f"uses_inverse=False)")
    with pytest.raises(AttributeError):
        tbox.uses_inverse = True


# ---------------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------------


def test_subsumption_reflexive(disease_tbox):
    assert is_subsumed_by(named("Virus"), named("Virus"), disease_tbox)


def test_organism_structure_subsumed_by_infectious(disease_tbox):
    assert is_subsumed_by(named("OrganismStructure"), named("Infectious"), disease_tbox)


def test_organism_structure_subsumed_by_disease(disease_tbox):
    # Through the defined class: OrganismStructure ⊑ Infectious ⊑ Disease.
    assert is_subsumed_by(named("OrganismStructure"), named("Disease"), disease_tbox)


def test_virus_not_subsumed_by_bacteria(disease, disease_tbox):
    # Independent oracle: a 3-element interpretation satisfying every fixture
    # axiom with a Virus instance outside Bacteria, checked semantically.
    empty = frozenset()
    concepts = {iri(name): empty for name in (
        "Autoimmune", "Fungus", "Prion", "Bacteria", "Protozoa", "Debilitating",
        "Chronic", "Lifethreatening", "DiseaseArea", "Internal", "External",
        "Inside", "Outside", "DiseasePrevention", "DiseaseStructure",
        "AreaStructure", "OrganismStructure", "RNA")}
    concepts.update({
        iri("Virus"): frozenset({0}),
        iri("Infectious"): frozenset({0}),
        iri("Disease"): frozenset({0}),
        iri("GeneticMaterial"): frozenset({1}),
        iri("DNA"): frozenset({1}),
        iri("DiseaseSymptoms"): frozenset({2}),
    })
    roles = {iri(name): frozenset() for name in (
        "hasStructure", "isStructureOf", "hasOrganismStructure",
        "hasAreaStructure", "hasPrevention", "hasArea")}
    roles.update({
        iri("hasGenetics"): frozenset({(0, 1)}),
        iri("hasSymptoms"): frozenset({(0, 2)}),
        iri("isSymptomsOf"): frozenset({(2, 0)}),
    })
    countermodel = Interpretation(size=3, concepts=concepts, roles=roles)
    assert check_model(countermodel, disease.axioms) == []
    assert eval_concept(named("Virus"), countermodel) - \
        eval_concept(named("Bacteria"), countermodel)
    assert not is_subsumed_by(named("Virus"), named("Bacteria"), disease_tbox)


def test_top_bottom_laws_for_every_fixture_concept(disease, disease_tbox):
    from ontokit.model import signature
    for entity in signature(disease):
        if entity.kind is not EntityKind.CONCEPT:
            continue
        concept = Named(entity.iri)
        assert is_subsumed_by(concept, Top(), disease_tbox)
        assert is_subsumed_by(Bottom(), concept, disease_tbox)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_empty_ontology():
    taxonomy = classify(Ontology(Iri("http://x")))
    assert taxonomy.groups == ((), ())
    assert taxonomy.edges == ((Taxonomy.BOTTOM, Taxonomy.TOP),)


def test_classify_fixture_organism_structure_parents(disease_taxonomy):
    parents = disease_taxonomy.parent_concepts_of(iri("OrganismStructure"))
    assert parents == (iri("DiseaseStructure"), iri("Infectious"))


def test_classify_fixture_bottom_group_empty(disease_taxonomy):
    assert disease_taxonomy.members(Taxonomy.BOTTOM) == ()


def test_classify_fixture_top_group_empty(disease_taxonomy):
    assert disease_taxonomy.members(Taxonomy.TOP) == ()


def test_classify_deterministic(disease):
    assert classify(disease) == classify(disease)


def test_classify_independent_of_axiom_order(disease):
    rng = random.Random(7)
    shuffled = list(disease.axioms)
    rng.shuffle(shuffled)
    reordered = make_ontology(disease.iri, disease.prefixes, shuffled, strict=True)
    assert classify(reordered) == classify(disease)


def test_classify_transitively_reduced(disease_taxonomy):
    # No direct edge may be implied by a longer path.
    tax = disease_taxonomy
    for child, parent in tax.edges:
        for mid in tax.parents_of(child):
            if mid == parent:
                continue
            above = tax._reach(mid, tax._parents)
            assert parent not in above, (child, mid, parent)


def test_classify_merges_equivalent_names():
    a, b = Named(t("A")), Named(t("B"))
    o = tiny_ontology([SubConceptOf(a, b), SubConceptOf(b, a)])
    taxonomy = classify(o)
    assert taxonomy.equivalents_of(t("A")) == (t("A"), t("B"))


def test_classify_detects_unsatisfiable_concept():
    a, b, c = Named(t("A")), Named(t("B")), Named(t("C"))
    o = tiny_ontology([
        DisjointConcepts((b, c)),
        SubConceptOf(a, b),
        SubConceptOf(a, c),
    ])
    taxonomy = classify(o)
    assert taxonomy.members(Taxonomy.BOTTOM) == (t("A"),)


def test_classify_places_top_equivalents():
    a = Named(t("A"))
    o = tiny_ontology([SubConceptOf(Top(), a)])
    taxonomy = classify(o)
    assert t("A") in taxonomy.members(Taxonomy.TOP)


# ---------------------------------------------------------------------------
# Consistency, realization, retrieval
# ---------------------------------------------------------------------------


def test_empty_ontology_consistent():
    assert is_consistent(Ontology(Iri("http://x")))


def test_fixture_consistent(disease):
    assert is_consistent(disease)


def test_fixture_with_conflicting_assertion_inconsistent(disease):
    bad = add_axiom(disease, Declaration(Entity(EntityKind.INDIVIDUAL, iri("x1"))))
    bad = add_axiom(bad, ConceptAssertion(
        Intersection((named("Internal"), named("External"))), iri("x1")))
    assert not is_consistent(bad)


def test_realize_giardia_most_specific(disease):
    result = realize(disease)
    assert result[GIARDIA] == (iri("OrganismStructure"),)


def test_entailed_types_include_inferred_memberships(disease):
    entailed = entailed_types(disease)[GIARDIA]
    assert iri("Infectious") in entailed
    assert iri("Disease") in entailed
    assert iri("DiseaseStructure") in entailed


def test_individual_asserted_into_virus_inherits_chain(disease):
    extended = add_axiom(disease, Declaration(Entity(EntityKind.INDIVIDUAL, iri("v1"))))
    extended = add_axiom(extended, ConceptAssertion(named("Virus"), iri("v1")))
    # Oracle: the told-subsumption closure is a lower bound for entailment.
    told = {}
    for axiom in extended.axioms:
        if isinstance(axiom, SubConceptOf) and isinstance(axiom.sub, Named) \
                and isinstance(axiom.sup, Named):
            told.setdefault(axiom.sub.iri, set()).add(axiom.sup.iri)
    chain = {iri("Virus")}
    frontier = [iri("Virus")]
    while frontier:
        for parent in told.get(frontier.pop(), ()):
            if parent not in chain:
                chain.add(parent)
                frontier.append(parent)
    assert chain == {iri("Virus"), iri("Infectious"), iri("Disease")}
    entailed = set(entailed_types(extended)[iri("v1")])
    assert chain <= entailed


def test_instances_of_infectious(disease):
    assert instances_of(named("Infectious"), disease) == (GIARDIA,)


def test_instances_of_bottom_empty(disease):
    assert instances_of(Bottom(), disease) == ()


def test_instances_of_existential(disease):
    expr = Existential(NamedRole(iri("hasGenetics")), named("GeneticMaterial"))
    assert instances_of(expr, disease) == (GIARDIA,)


def test_realize_requires_consistency(disease):
    bad = add_axiom(disease, Declaration(Entity(EntityKind.INDIVIDUAL, iri("x1"))))
    bad = add_axiom(bad, ConceptAssertion(
        Intersection((named("Internal"), named("External"))), iri("x1")))
    with pytest.raises(InconsistentOntologyError):
        realize(bad)


def test_individual_asserted_only_into_top():
    from ontokit.model import OWL_THING
    o = tiny_ontology(
        [ConceptAssertion(Top(), t("i"))],
        extra_decls=[(EntityKind.INDIVIDUAL, "i")],
    )
    assert realize(o)[t("i")] == (OWL_THING,)
    assert instances_of(Top(), o) == (t("i"),)


# ---------------------------------------------------------------------------
# Inverse materialization
# ---------------------------------------------------------------------------


def _symptom_case():
    return tiny_ontology(
        [
            InverseRoles(t("hasSymptoms"), t("isSymptomsOf")),
            RoleAssertion(t("hasSymptoms"), t("d"), t("s")),
        ],
        extra_decls=[
            (EntityKind.OBJECT_ROLE, "hasSymptoms"),
            (EntityKind.OBJECT_ROLE, "isSymptomsOf"),
            (EntityKind.INDIVIDUAL, "d"),
            (EntityKind.INDIVIDUAL, "s"),
        ],
    )


def test_materialize_inverses_fills_inverse_assertion():
    result = materialize_inverses(_symptom_case())
    assert RoleAssertion(t("isSymptomsOf"), t("s"), t("d")) in result.axioms


def test_materialize_inverses_no_assertions_unchanged(disease):
    base = tiny_ontology([InverseRoles(t("r"), t("s"))],
                         extra_decls=[(EntityKind.OBJECT_ROLE, "r"),
                                      (EntityKind.OBJECT_ROLE, "s")])
    assert materialize_inverses(base) == base


def test_materialize_inverses_idempotent():
    once = materialize_inverses(_symptom_case())
    twice = materialize_inverses(once)
    assert serialize(twice) == serialize(once)


def test_materialize_inverses_through_sub_roles():
    o = tiny_ontology(
        [
            SubRoleOf(t("hasOrganismStructure"), t("hasStructure")),
            InverseRoles(t("hasStructure"), t("isStructureOf")),
            RoleAssertion(t("hasOrganismStructure"), t("a"), t("b")),
        ],
        extra_decls=[
            (EntityKind.OBJECT_ROLE, "hasOrganismStructure"),
            (EntityKind.OBJECT_ROLE, "hasStructure"),
            (EntityKind.OBJECT_ROLE, "isStructureOf"),
            (EntityKind.INDIVIDUAL, "a"),
            (EntityKind.INDIVIDUAL, "b"),
        ],
    )
    once = materialize_inverses(o)
    assert RoleAssertion(t("isStructureOf"), t("b"), t("a")) in once.axioms
    assert serialize(materialize_inverses(once)) == serialize(once)


def test_materialize_preserves_input(disease):
    o = _symptom_case()
    before = serialize(o)
    materialize_inverses(o)
    assert serialize(o) == before


def _add_one_at_a_time(ontology, axioms):
    """The fold `materialize_inverses` once made: one new instance per
    axiom, checked against the declarations (strict) or against the
    signature walked afresh over every axiom (lenient)."""
    for axiom in axioms:
        if axiom in ontology.axioms:
            continue
        references = [(kind, ref) for kind, ref in axiom_references(axiom) if kind is not None]
        warnings = list(ontology.warnings)
        if ontology.strict and not isinstance(axiom, Declaration):
            declared = {a.entity for a in ontology.axioms if isinstance(a, Declaration)}
            for kind, ref in references:
                if Entity(kind, ref) not in declared:
                    raise UndeclaredEntityError(kind, ref)
        elif not isinstance(axiom, Declaration):
            known = {Entity(kind, ref) for a in ontology.axioms
                     for kind, ref in axiom_references(a) if kind is not None}
            for kind, ref in references:
                if Entity(kind, ref) not in known:
                    known.add(Entity(kind, ref))
                    warnings.append(f"auto-declared {kind.value} <{ref}>")
        ontology = Ontology(ontology.iri, ontology.prefixes, ontology.axioms + (axiom,),
                            ontology.strict, tuple(warnings))
    return ontology


def test_materialize_inverses_matches_the_fold_of_single_adds():
    rng = random.Random(1301)
    grew = 0
    for _ in range(200):
        strict = random_full_ontology(rng)
        logical = [a for a in strict.axioms if not isinstance(a, Declaration)]
        # Lenient, with every entity auto-declared and warned about.
        lenient = make_ontology(strict.iri, strict.prefixes, logical)
        for ontology in (strict, lenient):
            result = materialize_inverses(ontology)
            assert result.axioms[:len(ontology.axioms)] == ontology.axioms
            implied = sorted(set(result.axioms) - set(ontology.axioms), key=repr)
            expected = _add_one_at_a_time(ontology, implied)
            assert result.axioms == expected.axioms
            assert result.warnings == expected.warnings
            assert signature(result) == signature(expected)
            grew += bool(implied)
    assert grew >= 20


def test_materialize_inverses_walks_only_the_assertions_it_adds(monkeypatch):
    from ontokit import model
    calls = []
    original = model.axiom_references

    def counting(axiom):
        calls.append(axiom)
        return original(axiom)

    for n in (100, 200, 400):
        axioms = [InverseRoles(t("r"), t("s"))]
        axioms += [RoleAssertion(t("r"), t(f"a{i}"), t(f"b{i}")) for i in range(n)]
        ontology = make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms)
        calls.clear()
        monkeypatch.setattr(model, "axiom_references", counting)
        result = materialize_inverses(ontology)
        signature(result)
        monkeypatch.setattr(model, "axiom_references", original)
        added = result.axioms[len(axioms):]
        assert len(added) == n
        # One walk per added assertion; the fold walked every axiom per add.
        assert len(calls) == n


# ---------------------------------------------------------------------------
# Blocking and limits
# ---------------------------------------------------------------------------


def test_cyclic_existential_terminates_satisfiable():
    a = Named(t("A"))
    o = tiny_ontology([SubConceptOf(a, Existential(NamedRole(t("r")), a))])
    assert is_satisfiable(a, normalize(o)).satisfiable


def test_cyclic_existential_with_universal_clash():
    a = Named(t("A"))
    r = NamedRole(t("r"))
    o = tiny_ontology([SubConceptOf(a, Existential(r, a))])
    probe = Intersection((a, Universal(r, Complement(a))))
    assert not is_satisfiable(probe, normalize(o)).satisfiable


def test_inverse_universal_propagates_backwards():
    a = Named(t("A"))
    r = NamedRole(t("r"))
    o = tiny_ontology([
        SubConceptOf(a, Existential(r, a)),
        SubConceptOf(a, Universal(InverseRole(t("r")), Complement(a))),
    ])
    assert not is_satisfiable(a, normalize(o)).satisfiable


def test_transitive_role_propagation():
    a, leaf = Named(t("A")), Named(t("Leaf"))
    r = NamedRole(t("r"))
    o = tiny_ontology([TransitiveRole(t("r"))])
    # x -r-> y -r-> z with ∀r.¬Leaf at x must reach z two steps away.
    probe = Intersection((
        Existential(r, Existential(r, leaf)),
        Universal(r, Complement(leaf)),
    ))
    assert not is_satisfiable(probe, normalize(o)).satisfiable
    # Without transitivity the same concept is satisfiable.
    o2 = tiny_ontology([])
    assert is_satisfiable(probe, normalize(o2)).satisfiable


def test_node_limit_raises():
    chain = [SubConceptOf(Named(t(c)), Existential(NamedRole(t("r")), Named(t(n))))
             for c, n in zip("ABCD", "BCDE")]
    o = tiny_ontology(chain)
    with pytest.raises(ResourceLimitExceeded) as raised:
        is_satisfiable(Named(t("A")), normalize(o), ReasonerLimits(max_nodes=3))
    # A, B and C are made; D would be the fourth node. Each node is a step,
    # and so is each of the six concepts added to their labels.
    assert str(raised.value) == ("node limit exceeded (max_nodes 3) after 9 steps: "
                                 "3 nodes created, 0 graph copies")


def test_branch_depth_limit_raises():
    disjunctions = Intersection(tuple(
        Union((Named(t(f"L{i}")), Named(t(f"R{i}")))) for i in range(4)))
    o = tiny_ontology([])
    with pytest.raises(ResourceLimitExceeded) as raised:
        is_satisfiable(disjunctions, normalize(o),
                       ReasonerLimits(max_branch_depth=2))
    # The third choice trips the limit, after the two copies the first two
    # choices made.
    assert str(raised.value) == ("branch depth limit exceeded (max_branch_depth 2) after "
                                 "10 steps: 1 nodes created, 2 graph copies")


def thrash_tbox(k):
    """`C ⊑ Ai ⊔ Bi` for i < k and `C ⊑ ∃r.D` with D unsatisfiable: every
    one of the 2^k combinations of choices meets the same clash in C's
    successor, which depends on none of them."""
    c = Named(t("C"))
    axioms = [SubConceptOf(c, Union((Named(t(f"A{i}")), Named(t(f"B{i}")))))
              for i in range(k)]
    axioms += [SubConceptOf(c, Existential(NamedRole(t("r")), Named(t("D")))),
               SubConceptOf(Named(t("D")), Bottom())]
    return normalize(tiny_ontology(axioms))


def pigeonhole_tbox(holes):
    """`C ⊑ Pi0 ⊔ … ⊔ Pi(holes-1)` for each of holes + 1 pigeons i, and the
    pigeons in each hole disjoint. C is unsatisfiable, and every clash
    depends on the choices of two pigeons, so backjumping skips almost
    nothing: the search stays exponential."""
    c = Named(t("C"))

    def pigeon(i, h):
        return Named(t(f"P{i}_{h}"))

    axioms = [SubConceptOf(c, Union(tuple(pigeon(i, h) for h in range(holes))))
              for i in range(holes + 1)]
    axioms += [DisjointConcepts(tuple(pigeon(i, h) for i in range(holes + 1)))
               for h in range(holes)]
    return normalize(tiny_ontology(axioms))


def test_step_limit_stops_backtracking_thrash():
    with pytest.raises(ResourceLimitExceeded,
                       match=r"^step limit exceeded \(max_steps 20000\) after 20001 "
                             r"steps: \d+ nodes created, \d+ graph copies$"):
        is_satisfiable(Named(t("C")), pigeonhole_tbox(7), ReasonerLimits(max_steps=20_000))


def test_backjumping_ends_thrash_past_unrelated_choices():
    # The clash in C's successor depends on no choice, so the search ends
    # at the first clash, after one copy per choice point.
    limits = ReasonerLimits(max_steps=65)
    assert not is_satisfiable(Named(t("C")), thrash_tbox(20), limits)
    with pytest.raises(ResourceLimitExceeded, match=r"after 65 steps: 2 nodes "
                                                    r"created, 20 graph copies$"):
        is_satisfiable(Named(t("C")), thrash_tbox(20), ReasonerLimits(max_steps=64))


def test_step_limit_counts_labels_nodes_and_copies():
    # k = 8 takes 29 steps. 2 nodes: the root and one successor. 8 copies,
    # one per choice point, each taking its first operand. 19 concepts
    # added: 10 on the root (C, eight disjunctions, ∃r.D), one operand per
    # copy and D on the successor, whose ⊥ clashes with no choice in its
    # dependency set.
    tbox = thrash_tbox(8)
    assert not is_satisfiable(Named(t("C")), tbox, ReasonerLimits(max_steps=29))
    with pytest.raises(ResourceLimitExceeded, match=r"after 29 steps: 2 nodes "
                                                    r"created, 8 graph copies$"):
        is_satisfiable(Named(t("C")), tbox, ReasonerLimits(max_steps=28))


def test_seed_7_full_ontology_finishes():
    # With backjumping, every deterministic rule run before a choice, and
    # union left-hand sides split before absorption, the check ends after
    # 3,143 steps, under a three-hundredth of the default step limit.
    ontology = random_full_ontology(random.Random(7))
    assert is_consistent(ontology, ReasonerLimits(max_steps=3_143)) is True
    with pytest.raises(ResourceLimitExceeded, match=r"after 3143 steps"):
        is_consistent(ontology, ReasonerLimits(max_steps=3_142))


def test_many_diseases_in_one_abox_take_polynomial_work():
    # Each disease node chooses Chronic ⊔ Acute and its absorbed Bacterial
    # definition; a clash in one disease's branch must not backtrack
    # through the other diseases' choices.
    steps = {8: 120, 16: 240, 32: 480}
    for count, exact in steps.items():
        ontology, expected = disease_abox_ontology(random.Random(1), count)
        assert is_consistent(ontology, ReasonerLimits(max_steps=exact)) is True
        with pytest.raises(ResourceLimitExceeded, match=rf"after {exact} steps"):
            is_consistent(ontology, ReasonerLimits(max_steps=exact - 1))
        assert realize(ontology) == expected
    assert steps[16] <= 2 * steps[8] and steps[32] <= 2 * steps[16]


def test_many_diseases_in_one_abox_make_two_copies_each():
    # ∀ runs before the next choice opens, so a bacterial disease's first
    # operand, ∀causedBy.¬Bacteria, clashes at once, and the backjump redoes
    # no other disease's choice: two copies per disease. A run takes 15
    # steps per disease (see the test above), so a limit one step short
    # reports every copy it made.
    for count in (8, 16, 32):
        ontology, _ = disease_abox_ontology(random.Random(1), count)
        with pytest.raises(ResourceLimitExceeded,
                           match=rf"nodes created, {2 * count} graph copies$"):
            is_consistent(ontology, ReasonerLimits(max_steps=15 * count - 1))


def test_individual_free_ontology_with_unsatisfiable_top():
    # By construction the ABox graph has no roots, so the verdict is True.
    o = tiny_ontology([SubConceptOf(Top(), Bottom())])
    assert is_consistent(o)
    assert not is_satisfiable(Top(), normalize(o)).satisfiable


def test_reasoner_limits_must_be_positive():
    with pytest.raises(ValueError):
        ReasonerLimits(max_nodes=0)
    with pytest.raises(ValueError):
        ReasonerLimits(max_branch_depth=-1)
    with pytest.raises(ValueError):
        ReasonerLimits(max_steps=0)
    defaults = ReasonerLimits()
    assert defaults.max_nodes == 100_000
    assert defaults.max_branch_depth == 10_000
    assert defaults.max_steps == 1_000_000
