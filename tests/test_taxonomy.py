"""The insertion-based taxonomy builder against the all-pairs oracle.

`allpairs_taxonomy` is the builder the toolkit used before insertion: it
groups names by testing each against every group and finds direct parents
among all strict subsumers. It asks `leq` about every pair, so it cannot be
misled by search order or pruning, and it is kept here only as the
reference that `build_taxonomy`, `classify`, `asserted_taxonomy` and
`realize` are compared with.
"""

import random

from ontokit import model, parser, reasoner, taxonomy
from ontokit.analysis import asserted_taxonomy
from ontokit.model import (
    ConceptAssertion,
    Declaration,
    Entity,
    EntityKind,
    Existential,
    Iri,
    Named,
    NamedRole,
    OWL_THING,
    RoleAssertion,
    SubConceptOf,
    Top,
    add_axiom,
    make_ontology,
)
from ontokit.reasoner import (
    classify,
    entailed_types,
    instances_of,
    is_consistent,
    is_satisfiable,
    is_subsumed_by,
    normalize,
    realize,
    told_subsumers,
)
from ontokit.taxonomy import Taxonomy, build_taxonomy
from ontokit.disease import DISEASE_NS, GIARDIA
from genontology import NS, random_alc_ontology, random_expression, random_full_ontology

SEED = 20261018


def allpairs_taxonomy(names, leq, top_names=(), bottom_names=()):
    """The reduced DAG of equivalence groups, from `leq` on every pair."""
    top_set = set(top_names)
    bottom_set = set(bottom_names)
    proper = sorted(set(names) - top_set - bottom_set, key=lambda iri: iri.value)
    member_lists = []
    for name in proper:
        for members in member_lists:
            if leq(name, members[0]) and leq(members[0], name):
                members.append(name)
                break
        else:
            member_lists.append([name])
    ordered = sorted((tuple(sorted(m, key=lambda i: i.value)) for m in member_lists),
                     key=lambda members: members[0].value)
    groups = (
        tuple(sorted(top_set, key=lambda i: i.value)),
        tuple(sorted(bottom_set, key=lambda i: i.value)),
        *ordered,
    )

    def strictly_below(a, b):
        return leq(a[0], b[0]) and not leq(b[0], a[0])

    named_ids = range(2, len(groups))
    edges = []
    for child in named_ids:
        uppers = [p for p in named_ids
                  if p != child and strictly_below(groups[child], groups[p])]
        direct = [p for p in uppers
                  if not any(q != p and strictly_below(groups[q], groups[p])
                             for q in uppers)]
        if direct:
            edges.extend((child, p) for p in direct)
        else:
            edges.append((child, Taxonomy.TOP))
    leaves = [g for g in named_ids if not any(parent == g for _, parent in edges)]
    if leaves:
        edges.extend((Taxonomy.BOTTOM, leaf) for leaf in leaves)
    else:
        edges.append((Taxonomy.BOTTOM, Taxonomy.TOP))
    return Taxonomy(groups=groups, edges=tuple(sorted(edges)))


def oracle_classify(ontology):
    """Classification by a subsumption test on every pair of names."""
    tbox = normalize(ontology)
    names = sorted(told_subsumers(ontology), key=lambda iri: iri.value)
    satisfiable = {n: is_satisfiable(Named(n), tbox).satisfiable for n in names}
    bottom = [n for n in names if not satisfiable[n]]
    top = [n for n in names
           if satisfiable[n] and is_subsumed_by(Top(), Named(n), tbox)]
    return allpairs_taxonomy(
        names, lambda c, d: is_subsumed_by(Named(c), Named(d), tbox), top, bottom)


def oracle_realize(ontology):
    """Every entailed type, then the ones no other type is strictly below."""
    tbox = normalize(ontology)

    def leq(c, d):
        return is_subsumed_by(Named(c), Named(d), tbox)

    result = {}
    for individual, types in entailed_types(ontology).items():
        most_specific = [c for c in types
                         if not any(d != c and leq(d, c) and not leq(c, d) for d in types)]
        result[individual] = tuple(most_specific) or (OWL_THING,)
    return result


def random_abox_ontology(rng):
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


def told_tree(size, fan_out, ns="http://example.org/tree#"):
    """Names of a complete told tree, each name's told subsumers (itself
    included), and the tree as an ontology."""
    names = [Iri(f"{ns}C{i:05d}") for i in range(size)]
    told = {names[0]: {names[0]}}
    axioms = [Declaration(Entity(EntityKind.CONCEPT, name)) for name in names]
    for i in range(1, size):
        parent = names[(i - 1) // fan_out]
        told[names[i]] = told[parent] | {names[i]}
        axioms.append(SubConceptOf(Named(names[i]), Named(parent)))
    return names, told, make_ontology(Iri(ns.rstrip("#")), (("", ns),), axioms)


# ---------------------------------------------------------------------------
# Differential tests against the oracle
# ---------------------------------------------------------------------------


def test_classify_equals_oracle_on_fixture(disease, disease_taxonomy):
    assert disease_taxonomy == oracle_classify(disease)


def test_classify_equals_oracle_on_random_tboxes():
    rng = random.Random(SEED)
    for _ in range(300):
        ontology, _concepts, _roles = random_alc_ontology(rng)
        assert classify(ontology) == oracle_classify(ontology)


def test_asserted_taxonomy_equals_oracle(disease):
    rng = random.Random(SEED)
    for ontology in [disease] + [random_full_ontology(rng) for _ in range(100)]:
        told = told_subsumers(ontology)
        assert asserted_taxonomy(ontology) == allpairs_taxonomy(
            told, lambda c, d: d in told[c])


def test_build_taxonomy_independent_of_insertion_order():
    # Random told DAGs with equivalences, inserted in shuffled order, so the
    # bottom search must move names inserted before their subsumers.
    rng = random.Random(SEED)
    for _ in range(200):
        names = [Iri(f"{NS}N{i}") for i in range(rng.randint(1, 12))]
        ups = {name: {name} for name in names}
        for _ in range(rng.randint(0, 2 * len(names))):
            sub, sup = rng.choice(names), rng.choice(names)
            ups[sub].add(sup)
        changed = True
        while changed:
            changed = False
            for name in names:
                closure = set().union(*(ups[up] for up in ups[name]))
                if closure != ups[name]:
                    ups[name] = closure
                    changed = True
        expected = allpairs_taxonomy(names, lambda c, d: d in ups[c])
        shuffled = names[:]
        rng.shuffle(shuffled)
        assert build_taxonomy(shuffled, lambda c, d: d in ups[c]) == expected


def test_realize_equals_oracle_on_fixture(disease):
    assert realize(disease) == oracle_realize(disease)


def test_realize_equals_oracle_on_random_aboxes():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(120):
        ontology = random_abox_ontology(rng)
        if not is_consistent(ontology):
            continue
        checked += 1
        assert realize(ontology) == oracle_realize(ontology)
    assert checked >= 60, checked


# ---------------------------------------------------------------------------
# Pruning: what is skipped and what must not be
# ---------------------------------------------------------------------------


def test_witness_never_refutes_a_defined_name(disease, disease_tbox, disease_taxonomy):
    # Lazy unfolding adds Infectious's body when Infectious is in a label,
    # never Infectious when its body holds, so the witness of
    # OrganismStructure lacks the name although the subsumption holds.
    organism_structure = Iri(DISEASE_NS + "OrganismStructure")
    infectious = Iri(DISEASE_NS + "Infectious")
    witness = is_satisfiable(Named(organism_structure), disease_tbox).witness
    assert infectious in disease_tbox.definitions
    assert Named(infectious) not in witness.nodes[0].label
    assert infectious in disease_taxonomy.ancestors_of(organism_structure)


def test_classify_fixture_makes_few_satisfiability_tests(disease, monkeypatch):
    calls = []
    original = reasoner.is_satisfiable

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(reasoner, "is_satisfiable", counting)
    classify(disease)
    # The pre-pass makes one test per name and one for ⊤, 25 here; the
    # all-pairs builder made 574 in all.
    assert len(calls) <= 60, len(calls)


def test_build_taxonomy_on_a_told_tree_asks_about_linearly_many_pairs():
    names, told, _ = told_tree(2000, 3)
    calls = []

    def leq(c, d):
        calls.append((c, d))
        return d in told[c]

    order = sorted(names, key=lambda name: (len(told[name]), name.value))
    tree = build_taxonomy(order, leq)
    assert len(calls) < 20 * len(names), len(calls)
    assert len(set(calls)) == len(calls)
    for i in (1, 4, 1999):
        assert tree.parent_concepts_of(names[i]) == (names[(i - 1) // 3],)


def test_told_subsumers_lists_names_after_their_told_subsumers():
    names, told, ontology = told_tree(40, 3)
    closure = told_subsumers(ontology)
    assert closure == {name: frozenset(ups) for name, ups in told.items()}
    order = list(closure)
    assert all(order.index(up) <= order.index(name)
               for name in names for up in told[name])


def test_realize_does_not_enumerate_entailed_types(disease, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("realize called entailed_types")

    monkeypatch.setattr(reasoner, "entailed_types", forbidden)
    assert realize(disease)[GIARDIA] == (Iri(DISEASE_NS + "OrganismStructure"),)


def test_classify_keeps_no_module_state_across_ontologies():
    def module_state():
        return {(module.__name__, name): len(value)
                for module in (reasoner, taxonomy, model, parser)
                for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    def chain_tbox(k):
        ns = f"http://example.org/chain{k}#"
        names = [Iri(f"{ns}A{i}") for i in range(6)]
        role = Iri(f"{ns}r")
        axioms = [Declaration(Entity(EntityKind.CONCEPT, n)) for n in names]
        axioms.append(Declaration(Entity(EntityKind.OBJECT_ROLE, role)))
        for sub, sup in zip(names[1:], names):
            axioms.append(SubConceptOf(Named(sub), Named(sup)))
            axioms.append(SubConceptOf(Named(sub), Existential(NamedRole(role), Named(sup))))
        return make_ontology(Iri(ns.rstrip("#")), (("", ns),), axioms)

    def read(ontology):
        model.signature(ontology)
        parser.parse(parser.serialize(ontology))

    classify(chain_tbox(0))
    read(chain_tbox(0))
    before = module_state()
    for k in range(1, 7):
        classify(chain_tbox(k))
        read(chain_tbox(k))
    for seed in range(40):
        read(random_full_ontology(random.Random(seed)))
    assert module_state() == before


# ---------------------------------------------------------------------------
# instances_of and entailed_types prune with the consistency check's labels
# ---------------------------------------------------------------------------


def unpruned(function, *args, monkeypatch):
    """`function` as it answers with every ABox test run."""
    with monkeypatch.context() as patch:
        patch.setattr(reasoner, "_refuted", lambda label, name, tbox: False)
        return function(*args)


def test_pruned_abox_retrieval_equals_unpruned(disease, monkeypatch):
    rng = random.Random(SEED)
    checked = 0
    for ontology in [disease] + [random_abox_ontology(rng) for _ in range(120)]:
        if not is_consistent(ontology):
            continue
        checked += 1
        assert entailed_types(ontology) == unpruned(
            entailed_types, ontology, monkeypatch=monkeypatch)
        for name in [OWL_THING] + list(told_subsumers(ontology)):
            assert instances_of(Named(name), ontology) == unpruned(
                instances_of, Named(name), ontology, monkeypatch=monkeypatch)
    assert checked >= 60, checked


def test_pruned_abox_retrieval_makes_fewer_abox_tests(disease, monkeypatch):
    calls = []
    original = reasoner._abox_labels

    def counting(*args, **kwargs):
        calls.append(kwargs.get("extra"))
        return original(*args, **kwargs)

    monkeypatch.setattr(reasoner, "_abox_labels", counting)
    names = len(told_subsumers(disease))
    entailed_types(disease)
    # One consistency check, then a test for each name Giardia's label does
    # not refute: its three primitive types and the defined Infectious.
    # Without pruning there is one test per name.
    assert len(calls) == 5 < 1 + names, len(calls)
    calls.clear()
    assert instances_of(Named(Iri(DISEASE_NS + "Virus")), disease) == ()
    assert len(calls) == 1
    calls.clear()
    assert instances_of(Named(OWL_THING), disease) == (GIARDIA,)
    assert len(calls) == 2


def test_realize_compiles_the_tbox_once(disease, monkeypatch):
    calls = []
    original = reasoner.normalize

    def counting(ontology):
        calls.append(ontology)
        return original(ontology)

    monkeypatch.setattr(reasoner, "normalize", counting)
    assert realize(disease)[GIARDIA] == (Iri(DISEASE_NS + "OrganismStructure"),)
    # The consistency check and the taxonomy share one compiled TBox.
    assert len(calls) == 1
