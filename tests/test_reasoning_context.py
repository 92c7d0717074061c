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

from ontokit import reasoner
from ontokit.analysis import asserted_taxonomy
from ontokit.disease import DISEASE_NS, build_disease_ontology
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
    SubConceptOf,
    Top,
    Union,
    add_axiom,
    make_ontology,
)
from ontokit.parser import parse, serialize
from ontokit.reasoner import (
    InconsistentOntologyError,
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
    assert onto._reasoning is None
    realize(onto)
    table = weakref.ref(onto._reasoning.abox.tbox.table)
    assert table() is not None
    assert onto == build_disease_ontology()
    assert "_reasoning" not in repr(onto)
    extended = add_axiom(onto, Declaration(Entity(EntityKind.INDIVIDUAL,
                                                  Iri(DISEASE_NS + "another"))))
    assert extended._reasoning is None
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
        assert other._reasoning is None
        assert realize(other) == expected
    assert onto._reasoning is not None  # the copies took nothing from it
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
                table = shared._reasoning.abox.tbox.table
                assert len(table.ids) == len(table.exprs) == len(table.kinds)
                assert all(table.ids[expr] == i for i, expr in enumerate(table.exprs))
    finally:
        sys.setswitchinterval(interval)
