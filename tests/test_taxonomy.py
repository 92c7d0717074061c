"""The taxonomy builder against the all-pairs oracle.

`build_taxonomy` closes each name's known subsumers, given as bitsets,
tests only the pairs they leave undecided and reduces the closed sets to
the DAG. `allpairs_taxonomy` is the builder the toolkit used before any
pruning: it groups names by testing each against every group and finds
direct parents among all strict subsumers. It asks `leq` about every pair,
so it cannot be misled by test order or pruning, and it is kept here only
as the reference that `build_taxonomy`, `classify`, `asserted_taxonomy`
and `realize` are compared with.
"""

import random

from ontokit import model, parser, reasoner, tableau, taxonomy
from ontokit.analysis import asserted_taxonomy
from ontokit.model import (
    ConceptAssertion,
    Declaration,
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
    OWL_THING,
    SubConceptOf,
    Top,
    Union,
    Universal,
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
from ontokit.disease import DISEASE_NS, GIARDIA, build_disease_ontology
from genontology import (
    NS,
    disease_abox_ontology,
    random_abox_ontology,
    random_alc_ontology,
    random_full_ontology,
)

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


def random_preorder(rng):
    """Names and each name's subsumers (itself included): the closure of a
    random told DAG, with cycles, so with equivalences."""
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
    return names, ups


def masks(names, pairs):
    """Bitsets over the index of `names`: bit d of row c for (c, d) in `pairs`."""
    bit = {name: 1 << i for i, name in enumerate(names)}
    rows = {name: 0 for name in names}
    for c, d in pairs:
        rows[c] |= bit[d]
    return [rows[name] for name in names]


def test_build_taxonomy_independent_of_insertion_order():
    # Random told DAGs with equivalences, their masks given in shuffled
    # order.
    rng = random.Random(SEED)
    for _ in range(200):
        names, ups = random_preorder(rng)
        expected = allpairs_taxonomy(names, lambda c, d: d in ups[c])
        shuffled = names[:]
        rng.shuffle(shuffled)
        known = masks(shuffled, [(c, d) for c in names for d in ups[c]])
        assert build_taxonomy(shuffled, known) == expected


def test_build_taxonomy_tests_only_undecided_pairs():
    # Each pair of a random preorder is split at random: a holding pair is
    # known or possible, any other possible or refuted. The builder must
    # build the same taxonomy as from all pairs, test a possible pair at
    # most once, and never test a known or refuted one.
    rng = random.Random(SEED)
    tested = 0
    for _ in range(300):
        names, ups = random_preorder(rng)
        rng.shuffle(names)
        known, possible = [], []
        for c in names:
            for d in names:
                if c == d:
                    known.append((c, d))
                elif rng.random() < 0.5:
                    (known if d in ups[c] else possible).append((c, d))
                else:
                    possible.append((c, d))
        calls = []

        def test(c, d):
            calls.append((c, d))
            return d in ups[c]

        built = build_taxonomy(names, masks(names, known), masks(names, possible), test)
        assert built == allpairs_taxonomy(names, lambda c, d: d in ups[c])
        assert len(set(calls)) == len(calls)
        assert set(calls) <= set(possible)
        tested += len(calls)
    assert tested > 0


def test_closure_pairs_are_each_names_equivalents_and_ancestors(disease_taxonomy):
    rng = random.Random(SEED)
    taxonomies = [disease_taxonomy] + [classify(random_full_ontology(rng)) for _ in range(60)]
    for tree in taxonomies:
        expected = {(iri, other) for iri in tree.concepts()
                    for other in tree.equivalents_of(iri) + tree.ancestors_of(iri)
                    if other != iri}
        assert tree.closure_pairs() == expected


def test_tree_walks_in_the_order_of_a_recursive_pre_order_walk(disease, disease_taxonomy):
    def recursive(tree):
        walk = []

        def visit(group, depth):
            walk.append((depth, group))
            for child in tree.children_of(group):
                if child != Taxonomy.BOTTOM or tree.members(child):
                    visit(child, depth + 1)

        visit(Taxonomy.TOP, 0)
        return walk

    rng = random.Random(SEED)
    taxonomies = [disease_taxonomy, asserted_taxonomy(disease)]
    taxonomies += [classify(random_alc_ontology(rng)[0]) for _ in range(40)]
    for tree in taxonomies:
        assert list(tree.tree()) == recursive(tree)
    assert any(tree.members(Taxonomy.BOTTOM) for tree in taxonomies)


def test_a_cycle_reached_through_a_name_already_searched_is_demoted():
    # b → c → a → b is a cycle. A depth-first search from `a` finishes `c`,
    # closing a → c → a, before it reaches `b`, and then sees `b`'s way back
    # to `a` only through the finished `c`.
    ns = "http://example.org/cycle#"
    a, b, c = (Named(Iri(ns + name)) for name in "abc")
    r = NamedRole(Iri(ns + "r"))
    ontology = make_ontology(Iri("http://example.org/cycle"), (("", ns),), [
        EquivalentConcepts((a, Intersection((Universal(r, c), Universal(r, b))))),
        EquivalentConcepts((b, Universal(r, c))),
        EquivalentConcepts((c, Universal(r, a))),
    ])
    assert normalize(ontology).definitions == {}
    assert classify(ontology) == oracle_classify(ontology)


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


def test_witness_never_refutes_a_defined_name():
    # Lazy unfolding adds I's body when I is in a label, never I when its
    # body holds, so the witness of O lacks the name although O ⊑ ∀r.G ≡ I.
    r = NamedRole(Iri(NS + "r"))
    i, g, o = (Named(Iri(NS + name)) for name in "IGO")
    ontology = make_ontology(
        Iri(NS.rstrip("#")), (("", NS),),
        [Declaration(Entity(EntityKind.CONCEPT, c.iri)) for c in (i, g, o)]
        + [Declaration(Entity(EntityKind.OBJECT_ROLE, r.iri)),
           EquivalentConcepts((i, Universal(r, g))), SubConceptOf(o, Universal(r, g))])
    tbox = normalize(ontology)
    witness = is_satisfiable(o, tbox).witness
    assert i.iri in tbox.definitions
    assert i not in witness.nodes[0].label
    assert i.iri in classify(ontology).ancestors_of(o.iri)


def test_classify_fixture_makes_few_satisfiability_tests(disease, monkeypatch):
    # Every tableau run, whichever function starts it, makes one `_Work`.
    runs = []
    original = tableau._Work.__init__

    def counting(self, limits):
        original(self, limits)
        runs.append(1)

    monkeypatch.setattr(tableau._Work, "__init__", counting)
    classify(disease)
    # The pre-pass makes one test per name and one for ⊤, 25 here. Every
    # name is primitive, so each label decides every name and no test
    # follows; the all-pairs builder made 574 in all.
    assert len(runs) <= 30, len(runs)


def test_classify_on_random_tboxes_makes_few_subsumption_tests(monkeypatch):
    # The draws of test_classify_equals_oracle_on_random_tboxes. The
    # insertion builder made 189 subsumption tests on them, 70 about ⊤;
    # splitting union left-hand sides before absorption leaves 69 about ⊤.
    calls = []
    original = reasoner.is_subsumed_by

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(reasoner, "is_subsumed_by", counting)
    rng = random.Random(SEED)
    for _ in range(300):
        classify(random_alc_ontology(rng)[0])
    assert sum(isinstance(sub, Top) for sub in calls) == 69
    assert len(calls) <= 170, len(calls)


def test_build_taxonomy_on_a_told_tree_makes_no_tests(monkeypatch):
    # Every label of a told tree decides every name, so classification
    # reads the tree off the pre-pass as the asserted tree reads it off the
    # told closure: the builder's test is never called.
    names, _, ontology = told_tree(2000, 3)
    calls = []
    original = reasoner.is_subsumed_by

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(reasoner, "is_subsumed_by", counting)
    for tree in (classify(ontology), asserted_taxonomy(ontology)):
        for i in (1, 4, 1999):
            assert tree.parent_concepts_of(names[i]) == (names[(i - 1) // 3],)
    assert calls == []


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
                for module in (reasoner, tableau, taxonomy, model, parser)
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
# Classification and the ABox queries answer from labels where they can
# ---------------------------------------------------------------------------


def unpruned(function, *args, monkeypatch):
    """`function` as it answers with every tableau test run: no label
    decides a name (`_decided`)."""
    with monkeypatch.context() as patch:
        patch.setattr(reasoner, "_decided",
                      lambda label, bits, defined: (0, sum(bits.values())))
        return function(*args)


def test_pruned_abox_retrieval_equals_unpruned(disease, monkeypatch):
    rng = random.Random(SEED)
    ontologies = [disease]
    for _ in range(80):
        ontologies += [random_abox_ontology(rng), random_full_ontology(rng),
                       random_alc_ontology(rng)[0]]
    checked = 0
    for ontology in ontologies:
        assert classify(ontology) == unpruned(classify, ontology, monkeypatch=monkeypatch)
        if not is_consistent(ontology):
            continue
        checked += 1
        for function in (realize, entailed_types):
            assert function(ontology) == unpruned(function, ontology, monkeypatch=monkeypatch)
        for name in [OWL_THING] + list(told_subsumers(ontology)):
            assert instances_of(Named(name), ontology) == unpruned(
                instances_of, Named(name), ontology, monkeypatch=monkeypatch)
    assert checked >= 180, checked


def test_pruned_abox_retrieval_makes_fewer_abox_tests(monkeypatch):
    # Its own instance: one the session has reasoned over has its
    # consistency check kept already.
    disease = build_disease_ontology()
    checks, tests = [], []
    original = reasoner._abox_labels

    def counting(*args, **kwargs):
        (tests if kwargs.get("extra") is not None else checks).append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reasoner, "_abox_labels", counting)
    names = len(told_subsumers(disease))
    entailed_types(disease)
    # Giardia's label has its primitive types with no dependencies and
    # refutes every other name, all of them primitive, so no name needs a
    # test. Without pruning there is one test per name.
    assert len(tests) == 0 < names, len(tests)
    tests.clear()
    assert instances_of(Named(Iri(DISEASE_NS + "Virus")), disease) == ()
    assert len(tests) == 0
    assert instances_of(Named(OWL_THING), disease) == (GIARDIA,)
    assert len(tests) == 1
    # The three calls share one consistency check.
    assert len(checks) == 1


def test_realize_reads_the_names_once(monkeypatch):
    # Each query reads the individuals' labels over one `_reading` of its
    # names, however many individuals and groups it visits; realize reads
    # its candidates' satisfiability runs over that same reading, and
    # classifies nothing.
    calls = []
    original = reasoner._reading

    def counting(names, tbox):
        calls.append(len(names))
        return original(names, tbox)

    monkeypatch.setattr(reasoner, "_reading", counting)
    rng = random.Random(SEED)
    for ontology in [build_disease_ontology()] + [random_abox_ontology(rng) for _ in range(20)]:
        if not is_consistent(ontology):
            continue
        for query in (realize, entailed_types):
            calls.clear()
            query(ontology)
            assert calls == [len(told_subsumers(ontology))], calls
        calls.clear()
        for name in told_subsumers(ontology):
            instances_of(Named(name), ontology)
        assert calls == [1] * len(told_subsumers(ontology))
    calls.clear()
    realize(build_disease_ontology())
    assert len(calls) == 1


def test_realize_compiles_the_tbox_once(monkeypatch):
    disease = build_disease_ontology()
    calls = []
    original = reasoner.normalize

    def counting(ontology):
        calls.append(ontology)
        return original(ontology)

    monkeypatch.setattr(reasoner, "normalize", counting)
    assert realize(disease)[GIARDIA] == (Iri(DISEASE_NS + "OrganismStructure"),)
    # The consistency check and the candidates' satisfiability runs share
    # one compiled TBox.
    assert len(calls) == 1


def record_blocking(monkeypatch):
    """The list that each `_Tableau` made from now on appends its mode to:
    True for equality blocking, False for subset blocking."""
    blocking = []

    class Recording(tableau._Tableau):
        def __init__(self, table, limits, equality_blocking):
            blocking.append(equality_blocking)
            super().__init__(table, limits, equality_blocking)

    monkeypatch.setattr(tableau, "_Tableau", Recording)
    return blocking


def test_an_inverse_role_in_an_assertion_blocks_only_the_abox_runs(monkeypatch):
    # The TBox has no inverse role; a's assertion `∃r⁻.(A ⊓ ∀r.D)` has the
    # only one, and puts a in D through its r-predecessor.
    a, d, e = (Named(Iri(NS + name)) for name in "ADE")
    r = NamedRole(Iri(NS + "r"))
    first, second = Iri(NS + "a"), Iri(NS + "b")
    axioms = [Declaration(Entity(EntityKind.INDIVIDUAL, first)),
              Declaration(Entity(EntityKind.INDIVIDUAL, second)),
              SubConceptOf(a, Existential(r, a)), SubConceptOf(d, e),
              ConceptAssertion(Existential(InverseRole(r.iri), Intersection((a, Universal(r, d)))),
                               first),
              ConceptAssertion(a, second)]
    ontology = make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms)
    blocking = record_blocking(monkeypatch)
    assert is_consistent(ontology)
    assert blocking == [True]  # the ABox run has the assertion's inverse role
    blocking.clear()
    classify(ontology)
    assert blocking and not any(blocking)  # the TBox's runs do not
    assert realize(ontology) == oracle_realize(ontology) == {first: (d.iri,), second: (a.iri,)}


def test_a_run_blocks_by_equality_for_an_inverse_role_at_any_depth(monkeypatch):
    # A TBox with no inverse flow, where A's r-chain needs blocking.
    a, b, c, d = (Named(Iri(NS + name)) for name in "ABCD")
    r, s = (NamedRole(Iri(NS + name)) for name in "rs")
    axioms = [SubConceptOf(a, Existential(r, a))]
    tbox = normalize(make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms))
    assert not tbox.uses_inverse
    nested = Existential(r, Union((b, Universal(InverseRole(s.iri), c))))
    blocking = record_blocking(monkeypatch)
    # The only inverse role is two levels below the query.
    assert is_satisfiable(Intersection((a, nested)), tbox)
    assert blocking == [True]
    blocking.clear()
    assert is_satisfiable(Intersection((a, Existential(r, Union((b, Universal(s, c)))))), tbox)
    assert blocking == [False]
    # A new query whose operand an earlier run interned: the table reads
    # the operand's flag off its id.
    blocking.clear()
    assert is_satisfiable(Intersection((d, nested)), tbox)
    assert is_satisfiable(nested, tbox)
    assert blocking == [True, True]
    # With an inverse flow in the TBox, every run blocks by equality.
    blocking.clear()
    flows = make_ontology(Iri(NS.rstrip("#")), (("", NS),),
                          axioms + [InverseRoles(r.iri, s.iri)])
    assert normalize(flows).uses_inverse
    classify(flows)
    assert is_satisfiable(Intersection((a, Existential(r, b))), normalize(flows))
    assert len(blocking) > 1 and all(blocking)


# ---------------------------------------------------------------------------
# Realization decides subsumption only among the names an individual can have
# ---------------------------------------------------------------------------


def realize_work(ontology, monkeypatch):
    """The ABox tests (`_abox_labels` with extra constraints) and the tableau
    runs (`tableau._Work` instances) of one `realize` call, after the
    consistency check it shares with the other queries."""
    assert is_consistent(ontology)
    tests, runs = [], []
    original_labels, original_work = reasoner._abox_labels, tableau._Work.__init__

    def labels(*args, **kwargs):
        if kwargs.get("extra") is not None:
            tests.append(1)
        return original_labels(*args, **kwargs)

    def work(self, limits):
        original_work(self, limits)
        runs.append(1)

    with monkeypatch.context() as patch:
        patch.setattr(reasoner, "_abox_labels", labels)
        patch.setattr(tableau._Work, "__init__", work)
        realize(ontology)
    return len(tests), len(runs)


def test_realize_makes_no_more_abox_tests_than_the_taxonomy_descent(monkeypatch):
    # The draws of test_pruned_abox_retrieval_equals_unpruned. A group is
    # tested only once all its strict subsumers are entailed, as the
    # descent of the inferred taxonomy tested it only once all its parents
    # had passed; the descent made 21 and 14 tests on the consistent
    # random_abox_ontology and random_full_ontology draws.
    assert realize_work(build_disease_ontology(), monkeypatch)[0] == 0
    rng = random.Random(SEED)
    tests = {"abox": 0, "full": 0}
    consistent = {"abox": 0, "full": 0}
    for _ in range(80):
        draws = {"abox": random_abox_ontology(rng), "full": random_full_ontology(rng)}
        random_alc_ontology(rng)
        for kind, ontology in draws.items():
            if is_consistent(ontology):
                consistent[kind] += 1
                tests[kind] += realize_work(ontology, monkeypatch)[0]
    assert consistent == {"abox": 62, "full": 70}
    assert tests["abox"] <= 21 and tests["full"] <= 14, tests
    # Each bacterial disease needs one test for Bacterial, and the descent
    # made the same.
    for count, expected in ((8, 4), (32, 16)):
        ontology, _ = disease_abox_ontology(random.Random(1), count)
        assert realize_work(ontology, monkeypatch)[0] == expected


def test_realize_runs_the_tableau_only_for_candidate_names(monkeypatch):
    # Classifying the fixture first took 25 runs, one per name and one for
    # ⊤; Giardia's label refutes all but its few types.
    assert realize_work(build_disease_ontology(), monkeypatch)[1] <= 6
    # No individual, no candidate.
    rng = random.Random(SEED)
    for _ in range(20):
        assert realize_work(random_alc_ontology(rng)[0], monkeypatch) == (0, 0)
    assert realize_work(told_tree(30, 3)[2], monkeypatch) == (0, 0)
    # The same two typed individuals in a tree of 30 names and of 300.
    counts = []
    for size in (30, 300):
        names, _, ontology = told_tree(size, 3)
        a, b = Iri("http://example.org/tree#a"), Iri("http://example.org/tree#b")
        ontology = model.add_axioms(ontology, [ConceptAssertion(Named(names[4]), a),
                                               ConceptAssertion(Named(names[7]), b)])
        assert realize(ontology) == {a: (names[4],), b: (names[7],)}
        counts.append(realize_work(ontology, monkeypatch))
    assert counts[0] == counts[1], counts
