"""Absorption in `normalize`: the normal form it produces, the work it saves,
and its verdicts against the independent oracle.

A definition `A ≡ P ⊓ C` whose name has a told superclass or a
disjointness is demoted to `A ⊑ P ⊓ C` and `P ⊓ C ⊑ A`; all of its
inclusions then absorb into primitive names instead of becoming a
disjunction on every tableau node. So is `A ≡ ∃r.P`, whose right-to-left
half absorbs into `P` as `P ⊑ ∀r⁻.A` (role absorption). A range becomes a
constraint that an edge adds to its target, and each operand of a union
left-hand side absorbs on its own.
"""

import random

from ontokit import reasoner, tableau
from ontokit.model import (
    Bottom,
    Complement,
    Declaration,
    DisjointConcepts,
    Entity,
    EntityKind,
    EquivalentConcepts,
    Existential,
    Intersection,
    InverseRole,
    Iri,
    Named,
    NamedRole,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    Union,
    Universal,
    make_ontology,
)
from ontokit.disease import build_disease_ontology
from ontokit.parser import parse
from ontokit.reasoner import (
    classify,
    is_consistent,
    is_satisfiable,
    is_subsumed_by,
    normalize,
    realize,
    to_nnf,
)
from genontology import (
    NS,
    random_abox_ontology,
    random_alc_ontology,
    random_expression,
    random_full_ontology,
)
from modelsearch import (
    check_model,
    eval_concept,
    find_countermodel,
    interpretation_from_witness,
    verify_saturated,
)

SEED = 20261018


def n(name):
    return Named(Iri(NS + name))


def ontology_of(axioms, concepts=(), roles=()):
    decls = [Declaration(Entity(EntityKind.CONCEPT, Iri(NS + c))) for c in concepts]
    decls += [Declaration(Entity(EntityKind.OBJECT_ROLE, Iri(NS + r))) for r in roles]
    return make_ontology(Iri(NS.rstrip("#")), (("", NS),), decls + list(axioms))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def test_defined_name_with_a_told_superclass_is_demoted_and_absorbed():
    r = NamedRole(Iri(NS + "r"))
    a, p, b, d = n("A"), n("P"), n("B"), n("D")
    tbox = normalize(ontology_of(
        [EquivalentConcepts((a, Intersection((p, Existential(r, b))))),
         SubConceptOf(a, d)],
        concepts="ABDP", roles="r"))
    assert tbox.node_constraints == ()
    assert a.iri not in tbox.definitions
    assert tbox.absorbed[p.iri] == (Union((Universal(r, Complement(b)), a)),)
    assert set(tbox.absorbed[a.iri]) == {d, Intersection((p, Existential(r, b)))}


def test_definition_without_a_primitive_conjunct_stays_a_definition():
    # A universal body has nothing to absorb into.
    r = NamedRole(Iri(NS + "r"))
    i, g, d = n("I"), n("G"), n("D")
    tbox = normalize(ontology_of(
        [EquivalentConcepts((i, Universal(r, g))), SubConceptOf(i, d)],
        concepts="DGI", roles="r"))
    assert tbox.definitions == {i.iri: Universal(r, g)}
    assert tbox.node_constraints == (Union((Complement(i), d)),)
    assert not tbox.uses_inverse


def test_existential_definition_is_demoted_and_absorbed_into_its_filler():
    # The fixture's `Infectious ≡ ∃hasGenetics.GeneticMaterial` has this
    # shape: `∃r.G ⊑ I` is `G ⊑ ∀r⁻.I`, absorbed where G is.
    r = NamedRole(Iri(NS + "r"))
    i, g, d = n("I"), n("G"), n("D")
    tbox = normalize(ontology_of(
        [EquivalentConcepts((i, Existential(r, g))), SubConceptOf(i, d)],
        concepts="DGI", roles="r"))
    assert tbox.definitions == {}
    assert tbox.absorbed[g.iri] == (Universal(InverseRole(r.iri), i),)
    assert set(tbox.absorbed[i.iri]) == {d, Existential(r, g)}
    assert tbox.node_constraints == ()
    # A universal over r⁻ flows from a successor to its parent.
    assert tbox.uses_inverse


def test_range_is_an_edge_trigger_of_the_inverse_role():
    r = NamedRole(Iri(NS + "r"))
    c = n("C")
    tbox = normalize(ontology_of([RoleRange(r.iri, c)], concepts="C", roles="r"))
    assert tbox.domain_triggers == ((InverseRole(r.iri), c),)
    assert tbox.node_constraints == ()
    # A range is no role axiom: r⁻ is its own only subsumer.
    assert tbox.subsumers_of(InverseRole(r.iri)) == frozenset({InverseRole(r.iri)})
    assert not tbox.uses_inverse


def test_union_left_hand_side_splits():
    # `(A ⊔ ¬B) ⊑ D`: A absorbs; ¬B stays, alone, on every node.
    a, b, d = n("A"), n("B"), n("D")
    tbox = normalize(ontology_of([SubConceptOf(Union((a, Complement(b))), d)],
                                 concepts="ABD"))
    assert tbox.general_inclusions == ((Union((a, Complement(b))), d),)
    assert tbox.absorbed == {a.iri: (d,)}
    assert tbox.node_constraints == (Union((b, d)),)


def test_existential_over_a_union_stays_a_node_constraint():
    # `A ⊔ B` has no primitive conjunct, so `∃r.(A ⊔ B) ⊑ D` cannot absorb.
    r = NamedRole(Iri(NS + "r"))
    a, b, d = n("A"), n("B"), n("D")
    lhs = Existential(r, Union((a, b)))
    tbox = normalize(ontology_of([SubConceptOf(lhs, d)], concepts="ABD", roles="r"))
    assert tbox.absorbed == {}
    assert tbox.node_constraints == (Union((to_nnf(Complement(lhs)), d)),)
    assert not tbox.uses_inverse


def test_binary_absorption_takes_the_first_primitive_conjunct():
    a, b, c, d, e = n("A"), n("B"), n("C"), n("D"), n("E")
    r = NamedRole(Iri(NS + "r"))
    tbox = normalize(ontology_of(
        [EquivalentConcepts((b, Universal(r, e))),
         SubConceptOf(Intersection((b, c, a)), d),
         SubConceptOf(Intersection((a, a)), e),
         SubConceptOf(Intersection((d, d, c)), a)],
        concepts="ABCDE", roles="r"))
    assert tbox.node_constraints == ()
    # B is defined, so C is the first primitive conjunct. The rest is built
    # from the other distinct operands: `A ⊓ A ⊑ E` leaves nothing, so E
    # itself is added at A, not `¬A ⊔ E`, whose first operand always
    # clashes there; `D ⊓ D ⊓ C ⊑ A` leaves `¬C ⊔ A` at D.
    assert tbox.absorbed[c.iri] == (
        Union((to_nnf(Complement(Intersection((b, a)))), d)),)
    assert tbox.absorbed[a.iri] == (e,)
    assert tbox.absorbed[d.iri] == (Union((Complement(c), a)),)


# ---------------------------------------------------------------------------
# Work: the ABox that thrashed with a disjunction on every node
# ---------------------------------------------------------------------------

THREE_DISEASES = """\
Prefix(:=<http://example.org/diseases#>)
Ontology(<http://example.org/diseases>
Declaration(Class(:Acute)) Declaration(Class(:Bacteria)) Declaration(Class(:Bacterial))
Declaration(Class(:Chronic)) Declaration(Class(:Disease)) Declaration(Class(:Infectious))
Declaration(Class(:Organism)) Declaration(Class(:Symptom)) Declaration(Class(:Virus))
Declaration(ObjectProperty(:causedBy)) Declaration(ObjectProperty(:hasSymptoms))
Declaration(ObjectProperty(:isSymptomsOf))
SubClassOf(:Bacteria :Organism) SubClassOf(:Virus :Organism)
DisjointClasses(:Bacteria :Virus)
SubClassOf(:Infectious :Disease)
SubClassOf(:Infectious ObjectUnionOf(:Chronic :Acute))
EquivalentClasses(:Bacterial ObjectIntersectionOf(:Disease ObjectSomeValuesFrom(:causedBy :Bacteria)))
SubClassOf(:Bacterial :Infectious)
ObjectPropertyRange(:causedBy :Organism)
ObjectPropertyRange(:hasSymptoms :Symptom)
InverseObjectProperties(:hasSymptoms :isSymptomsOf)
Declaration(NamedIndividual(:d1)) Declaration(NamedIndividual(:o1)) Declaration(NamedIndividual(:s1))
ClassAssertion(:Disease :d1) ClassAssertion(:Bacteria :o1)
ObjectPropertyAssertion(:causedBy :d1 :o1) ObjectPropertyAssertion(:hasSymptoms :d1 :s1)
Declaration(NamedIndividual(:d2)) Declaration(NamedIndividual(:o2)) Declaration(NamedIndividual(:s2))
ClassAssertion(:Disease :d2) ClassAssertion(:Virus :o2)
ObjectPropertyAssertion(:causedBy :d2 :o2) ObjectPropertyAssertion(:isSymptomsOf :s2 :d2)
Declaration(NamedIndividual(:d3)) Declaration(NamedIndividual(:o3)) Declaration(NamedIndividual(:s3))
ClassAssertion(:Disease :d3) ClassAssertion(:Bacteria :o3)
ObjectPropertyAssertion(:causedBy :d3 :o3) ObjectPropertyAssertion(:hasSymptoms :d3 :s3)
)
"""


def test_realize_three_diseases_in_one_abox_makes_few_graph_copies(monkeypatch):
    copies = []
    original = reasoner._Graph.copy

    def counting(graph):
        copies.append(1)
        return original(graph)

    monkeypatch.setattr(reasoner._Graph, "copy", counting)
    result = realize(parse(THREE_DISEASES))
    types = {ind.fragment: tuple(t.fragment for t in ts) for ind, ts in result.items()}
    assert types == {
        "d1": ("Bacterial",), "d2": ("Disease",), "d3": ("Bacterial",),
        "o1": ("Bacteria",), "o2": ("Virus",), "o3": ("Bacteria",),
        "s1": ("Symptom",), "s2": ("Symptom",), "s3": ("Symptom",),
    }
    # With `¬Bacterial ⊔ Infectious` on every node, two diseases took
    # 13,406 copies and three ran for minutes.
    assert len(copies) <= 1000, len(copies)


def work_of(function, *args, monkeypatch):
    """Steps and graph copies, summed over every tableau run of the call."""
    runs = []
    original = tableau._Work.__init__

    def recording(work, limits):
        original(work, limits)
        runs.append(work)

    with monkeypatch.context() as patch:
        patch.setattr(tableau._Work, "__init__", recording)
        function(*args)
    return sum(work.steps for work in runs), sum(work.copies for work in runs)


def test_classify_fixture_opens_no_choice_on_every_node(monkeypatch):
    # Ranges are edge triggers and Infectious's body absorbs into
    # GeneticMaterial, so no node starts with a disjunction or a universal:
    # 192 steps and 7 copies, where 651 and 71 were taken with them.
    disease = build_disease_ontology()
    assert normalize(disease).node_constraints == ()
    steps, copies = work_of(classify, disease, monkeypatch=monkeypatch)
    assert steps <= 200, steps
    assert copies <= 10, copies


def test_union_left_hand_side_absorbs_its_primitive_operand(monkeypatch):
    # The 188th ontology that test_pruned_abox_retrieval_equals_unpruned
    # draws has `(A0 ⊔ ¬A1) ⊑ ∃r2⁻.A1` and two inverse roles. As one node
    # constraint it put a disjunction on every node: its consistency check
    # took 16,179 steps. Split, A0 absorbs and only `A1 ⊔ ∃r2⁻.A1` stays;
    # with its `A1 ⊓ A1` absorbed as a plain inclusion at A1, not as
    # `¬A1 ⊔ …`, the check takes 2,253 steps and 315 copies (was 2,736 and
    # 637).
    rng = random.Random(SEED)
    draws = []
    for _ in range(63):
        draws += [random_abox_ontology(rng), random_full_ontology(rng),
                  random_alc_ontology(rng)[0]]
    ontology = draws[187]
    a0, a1 = Named(Iri(NS + "A0")), Named(Iri(NS + "A1"))
    r2 = InverseRole(Iri(NS + "r2"))
    tbox = normalize(ontology)
    assert (Union((a0, Complement(a1))), Existential(r2, a1)) in tbox.general_inclusions
    assert Union((a1, Existential(r2, a1))) in tbox.node_constraints
    assert Existential(r2, a1) in tbox.absorbed[a0.iri]
    assert work_of(is_consistent, ontology, monkeypatch=monkeypatch) == (2_253, 315)


# ---------------------------------------------------------------------------
# Verdicts against the oracle
# ---------------------------------------------------------------------------


def random_definition_tbox(rng):
    """Three or four names and one role. One or two names are defined, and
    each also gets a told superclass or a disjointness. A body is usually
    an intersection with a named conjunct, first or second; otherwise an
    existential, which has no conjunct to absorb into. A named conjunct may
    itself be defined, so definitions can chain or form a cycle. Most TBoxes
    also get an inclusion whose left-hand side is an intersection with a
    named conjunct, often a defined one, which must not absorb it."""
    names = [f"A{i}" for i in range(rng.randint(3, 4))]
    concepts = [Iri(NS + c) for c in names]
    roles = [Iri(NS + "r0")]
    r = NamedRole(roles[0])

    def expr():
        return random_expression(rng, concepts, roles, 1)

    axioms = []
    defined = rng.sample(concepts, rng.randint(1, 2))
    for name in defined:
        other = Named(rng.choice([c for c in concepts if c != name]))
        shape = rng.random()
        if shape < 0.35:
            body = Intersection((other, Existential(r, expr())))
        elif shape < 0.7:
            body = Intersection((expr(), other))
        else:
            body = Existential(r, expr())
        axioms.append(EquivalentConcepts((Named(name), body)))
        kind = rng.random()
        if kind < 0.4:
            axioms.append(SubConceptOf(Named(name), Named(rng.choice(concepts))))
        elif kind < 0.6:
            axioms.append(SubConceptOf(Named(name), expr()))
        else:
            pair = (Named(name), Named(rng.choice([c for c in concepts if c != name])))
            axioms.append(DisjointConcepts(pair if kind < 0.9 else pair[::-1]))
    for _ in range(rng.randint(0, 2)):
        axioms.append(SubConceptOf(Named(rng.choice(concepts)), expr()))
    if rng.random() < 0.6:
        first = rng.choice(defined if rng.random() < 0.5 else concepts)
        second, sup = rng.sample([c for c in concepts if c != first], 2)
        operands = (Named(first), Named(second))
        axioms.append(SubConceptOf(Intersection(operands[::rng.choice((1, -1))]),
                                   Named(sup) if rng.random() < 0.5 else expr()))
    return ontology_of(axioms, names, ["r0"]), concepts


def witness_model(witness, ontology, tbox):
    """The witness read as an interpretation, with each name the tableau
    still unfolds lazily interpreted by its definition's body: lazy
    unfolding adds the body where the name is, never the name where only
    the body holds, so the labels alone can miss the name."""
    interp = interpretation_from_witness(witness, ontology)
    bodies = [(a.operands[0].iri, a.operands[1]) for a in ontology.axioms
              if isinstance(a, EquivalentConcepts) and a.operands[0].iri in tbox.definitions]
    for _ in bodies:  # the definitions are acyclic: one round per level
        for name, body in bodies:
            interp.concepts[name] = eval_concept(body, interp)
    return interp


def test_absorbed_definitions_agree_with_the_oracle():
    rng = random.Random(SEED)
    demoted = countermodels = models = witnesses = 0
    for _ in range(50):
        ontology, concepts = random_definition_tbox(rng)
        tbox = normalize(ontology)
        bodies = {a.operands[0]: a.operands[1] for a in ontology.axioms
                  if isinstance(a, EquivalentConcepts)}
        demoted += any(name.iri not in tbox.definitions for name in bodies)
        # An inclusion must also hold where a defined name on its left is
        # replaced by its body, which the tableau never labels with the name.
        for axiom in ontology.axioms:
            if isinstance(axiom, SubConceptOf):
                lhs = axiom.sub
                if isinstance(lhs, Intersection):
                    lhs = Intersection(tuple(bodies.get(op, op) for op in lhs.operands))
                assert is_subsumed_by(bodies.get(lhs, lhs), axiom.sup, tbox)

        def check_witness(probe):
            verdict = is_satisfiable(probe, tbox)
            if verdict.satisfiable:
                assert verify_saturated(verdict.witness, tbox) == []
                interp = witness_model(verdict.witness, ontology, tbox)
                assert check_model(interp, ontology.axioms) == []
                assert 0 in eval_concept(probe, interp)
            return verdict.satisfiable

        for sub in concepts:
            satisfiable = check_witness(Named(sub))
            witnesses += satisfiable
            model, _ = find_countermodel(ontology, Named(sub), Bottom(), budget=1_000)
            if model is not None:
                models += 1
                assert check_model(model, ontology.axioms) == []
                assert satisfiable
            for sup in concepts:
                if sup == sub:
                    continue
                subsumed = is_subsumed_by(Named(sub), Named(sup), tbox)
                assert subsumed != check_witness(
                    Intersection((Named(sub), Complement(Named(sup)))))
                model, _ = find_countermodel(ontology, Named(sub), Named(sup), budget=1_000)
                if model is not None:
                    countermodels += 1
                    assert check_model(model, ontology.axioms) == []
                    assert eval_concept(Named(sub), model) - eval_concept(Named(sup), model)
                    assert not subsumed
    assert demoted >= 35, demoted
    assert models >= 110, models
    assert countermodels >= 220, countermodels
    assert witnesses >= 110, witnesses
    assert witnesses >= 110, witnesses


def random_range_tbox(rng, inverse_free):
    """Three names and one role, with what range and role absorption
    rewrite: a range on the role, sometimes a domain, and often an
    inclusion whose left-hand side is a union. The others also get an
    inclusion whose left-hand side is an existential, its filler a name,
    an intersection with a named conjunct, or a union, which cannot
    absorb, and often a definition by an existential with a told
    superclass. An inverse-free TBox has no existential on a left-hand
    side, so it keeps subset blocking."""
    names = ["A0", "A1", "A2"]
    concepts = [Iri(NS + c) for c in names]
    roles = [Iri(NS + "r0")]
    r = NamedRole(roles[0])

    def expr():
        return random_expression(rng, concepts, roles, 1)

    def name():
        return Named(rng.choice(concepts))

    def operand():
        roll = rng.random()
        if roll < 0.4:
            return name()
        if roll < 0.7 or inverse_free:
            return Complement(name())
        return Existential(r, name())

    axioms = [RoleRange(roles[0], name() if rng.random() < 0.5 else expr())]
    if rng.random() < 0.3:
        axioms.append(RoleDomain(roles[0], name()))
    for _ in range(rng.randint(1, 2)):
        axioms.append(SubConceptOf(name(), expr()))
    if rng.random() < 0.7:
        axioms.append(SubConceptOf(Union((operand(), operand())), expr()))
    if not inverse_free:
        roll = rng.random()
        if roll < 0.4:
            filler = name()
        elif roll < 0.7:
            filler = Intersection((expr(), name()))
        else:
            filler = Union((name(), name()))
        axioms.append(SubConceptOf(Existential(r, filler), expr()))
        if rng.random() < 0.5:
            defined, other = rng.sample(concepts, 2)
            axioms += [EquivalentConcepts((Named(defined), Existential(r, Named(other)))),
                       SubConceptOf(Named(defined), expr())]
    return ontology_of(axioms, names, ["r0"]), concepts


def test_range_and_role_absorption_agree_with_the_oracle():
    rng = random.Random(SEED + 1)
    subset_blocking = role_absorbed = split = countermodels = models = witnesses = 0
    for k in range(60):
        inverse_free = k % 3 == 0
        ontology, concepts = random_range_tbox(rng, inverse_free)
        tbox = normalize(ontology)
        role = NamedRole(Iri(NS + "r0"))
        assert (InverseRole(role.iri), to_nnf(next(
            a.concept for a in ontology.axioms if isinstance(a, RoleRange)))) \
            in tbox.domain_triggers
        if inverse_free:
            assert not tbox.uses_inverse
            subset_blocking += 1
        role_absorbed += any(isinstance(e, Universal) and e.role == InverseRole(role.iri)
                             for exprs in tbox.absorbed.values() for e in exprs)
        split += any(isinstance(lhs, Union)
                     and Union((to_nnf(Complement(lhs)), rhs)) not in tbox.node_constraints
                     for lhs, rhs in tbox.general_inclusions)
        for axiom in ontology.axioms:
            if isinstance(axiom, SubConceptOf):
                assert is_subsumed_by(axiom.sub, axiom.sup, tbox)

        def check_witness(probe):
            verdict = is_satisfiable(probe, tbox)
            if verdict.satisfiable:
                assert verify_saturated(verdict.witness, tbox) == []
                interp = witness_model(verdict.witness, ontology, tbox)
                assert check_model(interp, ontology.axioms) == []
                assert 0 in eval_concept(probe, interp)
            return verdict.satisfiable

        for sub in concepts:
            satisfiable = check_witness(Named(sub))
            witnesses += satisfiable
            model, _ = find_countermodel(ontology, Named(sub), Bottom(), budget=1_000)
            if model is not None:
                models += 1
                assert satisfiable
            for sup in concepts:
                if sup == sub:
                    continue
                subsumed = is_subsumed_by(Named(sub), Named(sup), tbox)
                assert subsumed != check_witness(
                    Intersection((Named(sub), Complement(Named(sup)))))
                model, _ = find_countermodel(ontology, Named(sub), Named(sup), budget=1_000)
                if model is not None:
                    countermodels += 1
                    assert check_model(model, ontology.axioms) == []
                    assert not subsumed
    assert subset_blocking == 20
    assert role_absorbed >= 25, role_absorbed
    assert split >= 30, split
    assert models >= 150, models
    assert countermodels >= 220, countermodels
    assert witnesses >= 150, witnesses
