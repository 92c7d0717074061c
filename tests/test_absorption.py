"""Absorption in `normalize`: the normal form it produces, the work it saves,
and its verdicts against the independent oracle.

A definition `A ≡ P ⊓ C` whose name has a told superclass or a
disjointness is demoted to `A ⊑ P ⊓ C` and `P ⊓ C ⊑ A`; all of its
inclusions then absorb into primitive names instead of becoming a
disjunction on every tableau node.
"""

import random

from ontokit import reasoner
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
    Iri,
    Named,
    NamedRole,
    SubConceptOf,
    Union,
    Universal,
    make_ontology,
)
from ontokit.parser import parse
from ontokit.reasoner import is_satisfiable, is_subsumed_by, normalize, realize, to_nnf
from genontology import NS, random_expression
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
    # The fixture's `Infectious ≡ ∃hasGenetics.GeneticMaterial` has this shape.
    r = NamedRole(Iri(NS + "r"))
    i, g, d = n("I"), n("G"), n("D")
    tbox = normalize(ontology_of(
        [EquivalentConcepts((i, Existential(r, g))), SubConceptOf(i, d)],
        concepts="DGI", roles="r"))
    assert tbox.definitions == {i.iri: Existential(r, g)}
    assert tbox.node_constraints == (Union((Complement(i), d)),)


def test_binary_absorption_takes_the_first_primitive_conjunct():
    a, b, c, d, e = n("A"), n("B"), n("C"), n("D"), n("E")
    r = NamedRole(Iri(NS + "r"))
    tbox = normalize(ontology_of(
        [EquivalentConcepts((b, Existential(r, e))),
         SubConceptOf(Intersection((b, c, a)), d),
         SubConceptOf(Intersection((a, a)), e)],
        concepts="ABCDE", roles="r"))
    assert tbox.node_constraints == ()
    # B is defined, so C is the first primitive conjunct; of `A ⊓ A` only
    # one A is taken out.
    assert tbox.absorbed[c.iri] == (
        Union((to_nnf(Complement(Intersection((b, a)))), d)),)
    assert tbox.absorbed[a.iri] == (Union((Complement(a), e)),)


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
