"""The reasoning context each Ontology instance keeps: what it compiles once
is reused by every later call, with the same answers as a fresh instance,
the limits of each call and nothing kept past the instance."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from ontokit import model, reasoner
from ontokit.analysis import (
    CompetencyQuery,
    ProbeSpec,
    QueryKind,
    answer_competency_query,
    asserted_taxonomy,
    run_probes,
)
from ontokit.disease import DISEASE_NS, GIARDIA, build_disease_ontology
from ontokit.model import (
    Bottom,
    ConceptAssertion,
    Declaration,
    Entity,
    EntityKind,
    Existential,
    Iri,
    Named,
    NamedRole,
    Ontology,
    SubConceptOf,
    Top,
    Union,
    add_axiom,
    add_axioms,
    make_ontology,
    signature,
)
from ontokit.parser import parse, serialize
from ontokit.reasoner import (
    InconsistentOntologyError,
    DEFAULT_LIMITS,
    ReasonerLimits,
    ResourceLimitExceeded,
    classify,
    entailed_types,
    instances_of,
    is_consistent,
    is_satisfiable,
    normalize,
    realize,
    told_subsumers,
)
from genontology import NS, random_abox_ontology


def t(fragment):
    return Iri(NS + fragment)


def reasoning_parts(ontology):
    """The keys of what the instance's cache holds beyond its signature."""
    return set(ontology._derived) - {model._entities, model._sorted_signature}


def outcome(call, ontology):
    """What the call returns, or the type of what it raises."""
    try:
        return call(ontology)
    except (InconsistentOntologyError, ResourceLimitExceeded) as exc:
        return type(exc)


def reasoning_calls(ontology):
    calls = [is_consistent, classify, realize, entailed_types,
             lambda o: instances_of(Top(), o)]
    calls += [lambda o, name=name: instances_of(Named(name), o)
              for name in told_subsumers(ontology)]
    return calls


def test_kept_context_answers_like_a_fresh_instance():
    inconsistent = 0
    for seed in range(40):
        rng = random.Random(seed)
        ontology = random_abox_ontology(rng)
        calls = reasoning_calls(ontology)
        rng.shuffle(calls)
        for call in calls:
            assert outcome(call, ontology) == outcome(call, parse(serialize(ontology))), seed
        inconsistent += not is_consistent(ontology)
    assert 0 < inconsistent < 40, inconsistent


def thrash_ontology(k, individual):
    """`C ⊑ Ai ⊔ Bi` for i < k and `C ⊑ ∃r.D` with D unsatisfiable; with an
    individual asserted to be a C, the ABox is inconsistent."""
    c = Named(t("C"))
    axioms = [SubConceptOf(c, Union((Named(t(f"A{i}")), Named(t(f"B{i}")))))
              for i in range(k)]
    axioms += [SubConceptOf(c, Existential(NamedRole(t("r")), Named(t("D")))),
               SubConceptOf(Named(t("D")), Bottom())]
    if individual:
        axioms.append(ConceptAssertion(c, t("a")))
    return make_ontology(Iri(NS.rstrip("#")), (("", NS),), axioms)


def test_kept_context_respects_each_calls_limits():
    # k = 8 takes 29 steps, as a sat test and as an ABox check: 8 graph
    # copies, one per choice point, since the clash depends on no choice.
    tight = ReasonerLimits(max_steps=28)
    tbox = thrash_ontology(8, individual=False)
    assert classify(tbox).members(0) == ()
    with pytest.raises(ResourceLimitExceeded, match=r"after 29 steps: 2 nodes created, "
                                                    r"8 graph copies$"):
        classify(tbox, tight)
    abox = thrash_ontology(8, individual=True)
    assert is_consistent(abox) is False
    with pytest.raises(ResourceLimitExceeded, match=r"after 29 steps: 2 nodes created, "
                                                    r"8 graph copies$"):
        is_consistent(abox, tight)
    assert is_consistent(abox, ReasonerLimits(max_steps=29)) is False


def test_inconsistent_ontology_raises_on_every_call():
    abox = thrash_ontology(2, individual=True)
    for call in (realize, realize, entailed_types,
                 lambda o: instances_of(Named(t("C")), o), entailed_types):
        with pytest.raises(InconsistentOntologyError):
            call(abox)
    assert is_consistent(abox) is False


def test_told_closure_is_built_once_per_instance(monkeypatch):
    expected = told_subsumers(build_disease_ontology())
    onto = build_disease_ontology()
    built = []
    original = reasoner._closure

    def counting(direct):
        built.append(frozenset(direct))
        return original(direct)

    monkeypatch.setattr(reasoner, "_closure", counting)
    inferred = classify(onto)
    asserted = asserted_taxonomy(onto)
    told = told_subsumers(onto)
    assert told == expected
    told.clear()  # each call returns its own dict
    assert told_subsumers(onto) == expected
    assert classify(onto) == inferred and asserted_taxonomy(onto) == asserted
    # One closure each of the role hierarchy, the told subsumptions and the
    # defined names that definitions use, told apart by the keys they close.
    assert len(built) == len(set(built)) == 3
    assert set(expected) in built
    assert sum(all(isinstance(key, Iri) for key in keys) for keys in built) == 2


def test_context_lives_and_dies_with_its_instance():
    onto = build_disease_ontology()
    assert not reasoning_parts(onto)
    realize(onto)
    table = weakref.ref(reasoner._compiled(onto).tbox.table)
    assert table() is not None
    assert onto == build_disease_ontology()
    assert "_derived" not in repr(onto)
    extended = add_axiom(onto, Declaration(Entity(EntityKind.INDIVIDUAL,
                                                  Iri(DISEASE_NS + "another"))))
    assert not reasoning_parts(extended)
    del onto
    gc.collect()
    assert table() is None


def test_reasoned_instances_copy_and_pickle():
    onto = build_disease_ontology()
    expected = realize(onto)
    pickled = [pickle.loads(pickle.dumps(onto, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (copy.deepcopy(onto), *pickled, copy.copy(onto)):
        assert other == onto
        assert not reasoning_parts(other)
        assert realize(other) == expected
    assert reasoning_parts(onto)  # the copies took nothing from it
    tbox = normalize(onto)
    verdict = is_satisfiable(Named(Iri(DISEASE_NS + "Infectious")), tbox)
    for other in (copy.deepcopy(tbox), pickle.loads(pickle.dumps(tbox))):
        assert is_satisfiable(Named(Iri(DISEASE_NS + "Infectious")), other) == verdict


def test_threads_sharing_an_instance_answer_like_a_serial_run():
    sources = [build_disease_ontology()]
    rng = random.Random(7)
    while len(sources) < 4:
        candidate = random_abox_ontology(rng)
        if is_consistent(candidate):
            sources.append(candidate)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that runs overlap
    try:
        for source in sources:
            names = [Named(name) for name in told_subsumers(source)]

            def run(ontology, first):
                # Each thread starts at a different name, so that they
                # intern different probes at once.
                order = names[first:] + names[:first]
                return realize(ontology), [instances_of(name, ontology) for name in order]

            expected = [run(parse(serialize(source)), first) for first in range(4)]
            for round in range(4):
                shared = parse(serialize(source))
                if round % 2:
                    is_consistent(shared)  # threads then share one ConceptTable from the start
                results, errors = [None] * 4, []
                barrier = threading.Barrier(4, timeout=60)

                def worker(first):
                    try:
                        barrier.wait()
                        results[first] = run(shared, first)
                    except Exception as exc:  # reported on the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(first,))
                           for first in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert results == expected
                table = reasoner._compiled(shared).tbox.table
                assert len(table.ids) == len(table.exprs) == len(table.kinds)
                assert all(table.ids[expr] == i for i, expr in enumerate(table.exprs))
    finally:
        sys.setswitchinterval(interval)


class CountingCache(dict):
    """An instance's cache that counts the values stored under each key."""

    def __init__(self):
        super().__init__()
        self.stored = {}

    def setdefault(self, key, value):
        self.stored[key] = self.stored.get(key, 0) + 1
        return super().setdefault(key, value)


def every_entry_point(ontology, limits):
    """Each public call that reads what reasoning derives from an instance."""
    def d(fragment):
        return Iri(DISEASE_NS + fragment)

    probes = [ProbeSpec("FreshProbe", ("Autoimmune", "Infectious"))]
    queries = [CompetencyQuery(QueryKind.FILLERS_OF, GIARDIA, d("hasStructure")),
               CompetencyQuery(QueryKind.SYMPTOMS_OF, GIARDIA),
               CompetencyQuery(QueryKind.SUPER_CONCEPTS_OF, d("Protozoa")),
               CompetencyQuery(QueryKind.INSTANCES_OF, d("OrganismStructure"))]
    return [
        is_consistent(ontology, limits),
        classify(ontology, limits),
        realize(ontology, limits),
        entailed_types(ontology, limits),
        instances_of(Named(d("OrganismStructure")), ontology, limits),
        instances_of(Top(), ontology, limits),
        asserted_taxonomy(ontology),
        run_probes(ontology, probes, limits),
        [answer_competency_query(query, ontology, limits) for query in queries],
        signature(ontology),
    ]


def test_every_entry_point_makes_each_part_once(monkeypatch):
    disease = build_disease_ontology()
    # Built directly, so that the instance walks its axioms for its entities.
    onto = Ontology(disease.iri, disease.prefixes, disease.axioms)
    cache = vars(onto)["_derived"] = CountingCache()
    checks = []
    original = reasoner._abox_labels

    def counting(abox, limits, extra=()):
        if extra == ():
            checks.append(limits)
        return original(abox, limits, extra)

    monkeypatch.setattr(reasoner, "_abox_labels", counting)
    expected = every_entry_point(disease, DEFAULT_LIMITS)
    checks.clear()
    assert every_entry_point(onto, DEFAULT_LIMITS) == expected
    assert every_entry_point(onto, DEFAULT_LIMITS) == expected
    parts = {model._entities, model._sorted_signature, model._by_kind, reasoner._role_closure,
             reasoner._told_closure, reasoner._compile,
             (reasoner._consistency_labels, DEFAULT_LIMITS)}
    assert cache.stored == dict.fromkeys(parts, 1)
    assert set(cache) == parts
    assert checks == [DEFAULT_LIMITS]
    # Other limits add their own consistency check, and nothing else.
    other = ReasonerLimits(max_steps=DEFAULT_LIMITS.max_steps - 1)
    assert every_entry_point(onto, other) == expected
    assert cache.stored == {**dict.fromkeys(parts, 1), (reasoner._consistency_labels, other): 1}
    assert checks == [DEFAULT_LIMITS, other]


def test_copies_and_added_axioms_start_with_no_reasoning_part(monkeypatch):
    onto = build_disease_ontology()
    expected = realize(onto), signature(onto)
    walks = []
    original = model._admitted

    def counting(axioms, strict):
        walks.append(len(axioms))
        return original(axioms, strict)

    monkeypatch.setattr(model, "_admitted", counting)
    pickled = [pickle.loads(pickle.dumps(onto, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (copy.copy(onto), copy.deepcopy(onto), *pickled):
        assert other._derived == {}
        # A copy walks its axioms once for its signature, then reasons afresh.
        walks.clear()
        assert (realize(other), signature(other)) == expected
        assert walks == [len(onto.axioms)]
    declared = Declaration(Entity(EntityKind.INDIVIDUAL, Iri(DISEASE_NS + "another")))
    for extended in (add_axiom(onto, declared), add_axioms(onto, [declared])):
        # Only the entity sets are handed over: the signature walks nothing.
        assert set(extended._derived) == {model._entities}
        walks.clear()
        assert signature(extended) == tuple(sorted(
            expected[1] + (declared.entity,), key=Entity.sort_key))
        assert walks == []
        assert not reasoning_parts(extended)


def test_threads_compiling_one_instance_get_the_kept_abox():
    shared = parse(serialize(build_disease_ontology()))
    results, errors = [None] * 8, []
    barrier = threading.Barrier(8, timeout=60)

    def worker(index):
        try:
            barrier.wait()
            results[index] = reasoner._compiled(shared)
        except Exception as exc:  # reported on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that compiles overlap
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    kept = reasoner._compiled(shared)
    assert all(result is kept for result in results)
