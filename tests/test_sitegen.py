import collections
import hashlib
import random

from ontokit import model, sitegen
from ontokit.analysis import asserted_taxonomy
from ontokit.model import (
    AnnotationAssertion,
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
    Literal,
    Named,
    NamedRole,
    OWL_THING,
    Ontology,
    RoleAssertion,
    RoleDomain,
    RoleRange,
    SubConceptOf,
    Top,
    Bottom,
    Union,
    Universal,
    compute_counts,
    declared_entities,
    make_ontology,
)
from ontokit.reasoner import classify, entailed_types, is_consistent, realize
from ontokit.sitegen import generate_site, render_expression, verify_links, SiteDocument
from ontokit.disease import DISEASE_NS
from ontokit.parser import parse
from genontology import random_full_ontology


def iri(fragment):
    return Iri(DISEASE_NS + fragment)


def named(fragment):
    return Named(iri(fragment))


LINKS = {
    iri("hasGenetics"): "hasGenetics.html",
    iri("GeneticMaterial"): "GeneticMaterial.html",
    iri("Disease"): "Disease.html",
}


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


def test_render_existential_with_links():
    expr = Existential(NamedRole(iri("hasGenetics")), named("GeneticMaterial"))
    rendered = render_expression(expr, LINKS)
    assert rendered == ('∃<a href="hasGenetics.html">hasGenetics</a>.'
                        '<a href="GeneticMaterial.html">GeneticMaterial</a>')
    assert rendered.count("<a ") == 2


def test_render_named_single_link():
    assert render_expression(named("Disease"), LINKS) == \
        '<a href="Disease.html">Disease</a>'


def test_render_union_of_complement():
    a, b = named("A"), named("B")
    assert render_expression(Union((Complement(a), b))) == "¬A ⊔ B"


def test_render_top_bottom():
    assert render_expression(Top()) == "⊤"
    assert render_expression(Bottom()) == "⊥"


def test_render_precedence_matrix():
    a, b, c = named("A"), named("B"), named("C")
    r = NamedRole(iri("r"))
    cases = [
        (Complement(Intersection((a, b))), "¬(A ⊓ B)"),
        (Complement(Complement(a)), "¬¬A"),
        (Complement(Existential(r, a)), "¬∃r.A"),
        (Intersection((Union((a, b)), c)), "(A ⊔ B) ⊓ C"),
        (Union((Intersection((a, b)), c)), "A ⊓ B ⊔ C"),
        (Existential(r, Union((a, b))), "∃r.(A ⊔ B)"),
        (Universal(r, Intersection((a, b))), "∀r.(A ⊓ B)"),
        (Existential(r, Complement(a)), "∃r.¬A"),
        (Existential(r, Existential(r, a)), "∃r.∃r.A"),
        (Universal(InverseRole(iri("r")), a), "∀r⁻.A"),
    ]
    for expr, expected in cases:
        assert render_expression(expr) == expected, expr


def test_render_escapes_html():
    weird = Named(Iri("http://x#A<b>"))
    assert "<b>" not in render_expression(weird)
    assert "&lt;b&gt;" in render_expression(weird)


# ---------------------------------------------------------------------------
# Site generation on the fixture
# ---------------------------------------------------------------------------


def _site(disease, disease_taxonomy):
    return generate_site(
        disease,
        disease_taxonomy,
        asserted_taxonomy(disease),
        realization=entailed_types(disease),
    )


def test_fixture_site_giardia_page(disease, disease_taxonomy):
    docs = {d.relative_path: d for d in _site(disease, disease_taxonomy)}
    giardia = docs["Giardia_lambliia.html"]
    assert "locomotion: Flagellates" in giardia.body
    assert "Giardia lamblia" in giardia.body  # display-name annotation


def test_fixture_site_organism_structure_sections(disease, disease_taxonomy):
    docs = {d.relative_path: d for d in _site(disease, disease_taxonomy)}
    page = docs["OrganismStructure.html"].body
    asserted_section = page.split("Superclasses (asserted)")[1] \
                           .split("Superclasses (inferred)")[0]
    inferred_section = page.split("Superclasses (inferred)")[1].split("<h2>")[0]
    assert "Infectious" not in asserted_section
    assert "Infectious" in inferred_section
    assert "DiseaseStructure" in asserted_section


def test_fixture_site_one_page_per_entity(disease, disease_taxonomy):
    docs = _site(disease, disease_taxonomy)
    paths = {d.relative_path for d in docs}
    assert "index.html" in paths
    assert len(docs) == len(declared_entities(disease)) + 1
    assert len(paths) == len(docs)


def test_fixture_site_counts_match_compute_counts(disease, disease_taxonomy):
    docs = {d.relative_path: d for d in _site(disease, disease_taxonomy)}
    counts = compute_counts(disease)
    index = docs["index.html"].body
    for label, value in [("Classes", counts.concepts),
                         ("Object Properties", counts.object_roles),
                         ("Data Properties", counts.data_roles),
                         ("Annotation Properties", counts.annotation_roles),
                         ("Individuals", counts.individuals),
                         ("Data types", counts.datatypes)]:
        assert f"<tr><td>{label}</td><td>{value}</td></tr>" in index


def test_fixture_site_no_broken_links(disease, disease_taxonomy):
    report = verify_links(_site(disease, disease_taxonomy))
    assert report.broken_links == 0
    assert report.broken_list == ()
    assert report.total_links > 0


def test_fixture_site_deterministic(disease, disease_taxonomy):
    first = _site(disease, disease_taxonomy)
    second = _site(disease, disease_taxonomy)
    assert first == second


def test_fixture_site_members_from_realization(disease, disease_taxonomy):
    docs = {d.relative_path: d for d in _site(disease, disease_taxonomy)}
    assert "Giardia_lambliia" in docs["Infectious.html"].body
    members = docs["Infectious.html"].body.split("Members")[1].split("<h2>")[0]
    assert "Giardia_lambliia" in members


def test_empty_ontology_site_is_just_index():
    o = Ontology(Iri("http://x"))
    docs = generate_site(o, classify(o), asserted_taxonomy(o))
    assert [d.relative_path for d in docs] == ["index.html"]
    body = docs[0].body
    for label in ("Classes", "Object Properties", "Data Properties",
                  "Annotation Properties", "Individuals", "Data types"):
        assert f"<tr><td>{label}</td><td>0</td></tr>" in body


# ---------------------------------------------------------------------------
# Link verification
# ---------------------------------------------------------------------------


def test_verify_links_counts_broken():
    docs = (SiteDocument("index.html", "x",
                         '<a href="missing.html">gone</a>'),)
    report = verify_links(docs)
    assert report.total_links == 1
    assert report.broken_links == 1
    assert report.broken_list == (("index.html", "missing.html"),)


def test_verify_links_empty_set():
    report = verify_links(())
    assert report.total_links == 0
    assert report.broken_links == 0


def test_verify_links_ignores_absolute_urls():
    docs = (SiteDocument("index.html", "x",
                         '<a href="http://example.org/x">out</a>'),)
    assert verify_links(docs).total_links == 0


# ---------------------------------------------------------------------------
# Properties on random ontologies
# ---------------------------------------------------------------------------


def test_random_sites_have_no_broken_links_and_are_deterministic():
    rng = random.Random(99)
    for _ in range(12):
        ontology = random_full_ontology(rng)
        inferred = classify(ontology)
        asserted = asserted_taxonomy(ontology)
        realization = entailed_types(ontology) if is_consistent(ontology) else None
        docs = generate_site(ontology, inferred, asserted, realization)
        again = generate_site(ontology, inferred, asserted, realization)
        assert docs == again
        report = verify_links(docs)
        assert report.broken_links == 0, report.broken_list
        paths = {d.relative_path for d in docs}
        assert len(paths) == len(docs)
        assert len(docs) == len(declared_entities(ontology)) + 1


def test_page_path_collisions_resolved():
    from ontokit.model import Declaration, Entity, EntityKind, make_ontology
    o = make_ontology(Iri("http://x"), (), [
        Declaration(Entity(EntityKind.CONCEPT, Iri("http://x#Name"))),
        Declaration(Entity(EntityKind.INDIVIDUAL, Iri("http://x#Name"))),
        Declaration(Entity(EntityKind.OBJECT_ROLE, Iri("http://y#Name"))),
    ], strict=True)
    docs = generate_site(o, classify(o), asserted_taxonomy(o))
    paths = sorted(d.relative_path for d in docs)
    assert paths == ["Name-2.html", "Name-3.html", "Name.html", "index.html"]


def test_awkward_fragments_stay_flat():
    from ontokit.model import Declaration, Entity, EntityKind, make_ontology
    o = make_ontology(Iri("http://x"), (), [
        Declaration(Entity(EntityKind.CONCEPT, Iri("http://x#a/b"))),
        Declaration(Entity(EntityKind.CONCEPT, Iri("http://x#a%20b"))),
    ], strict=True)
    docs = generate_site(o, classify(o), asserted_taxonomy(o))
    for doc in docs:
        assert "/" not in doc.relative_path
    assert verify_links(docs).broken_links == 0


def test_lenient_ontology_site_covers_auto_declared_entities():
    doc = """Prefix(:=<http://x#>)
Ontology(<http://x>
SubClassOf(:A ObjectSomeValuesFrom(:r :B))
ClassAssertion(:A :i)
)
"""
    ontology = parse(doc)  # lenient: A, B, r, i auto-declared
    docs = generate_site(ontology, classify(ontology), asserted_taxonomy(ontology),
                         entailed_types(ontology))
    paths = sorted(d.relative_path for d in docs)
    assert paths == ["A.html", "B.html", "i.html", "index.html", "r.html"]
    assert verify_links(docs).broken_links == 0


# ---------------------------------------------------------------------------
# Byte identity and cost of generation
# ---------------------------------------------------------------------------


def _site_digest(sites):
    digest = hashlib.sha256()
    for docs in sites:
        for doc in docs:
            digest.update(repr(doc).encode("utf-8"))
    return digest.hexdigest()


def _random_site(seed):
    # The taxonomies and the realization are drawn without the reasoner, so
    # the digest pins the generator alone (and on seed 7 the tableau runs
    # for more than five seconds).
    rng = random.Random(seed)
    ontology = random_full_ontology(rng)
    entities = declared_entities(ontology)
    concepts = [e.iri for e in entities if e.kind is EntityKind.CONCEPT]
    realization = {
        e.iri: tuple(sorted(rng.sample(concepts, rng.randint(0, 2)))) or (OWL_THING,)
        for e in entities if e.kind is EntityKind.INDIVIDUAL
    }
    taxonomy = asserted_taxonomy(ontology)
    return generate_site(ontology, taxonomy, taxonomy, realization)


def _declared_thing_ontology():
    # Possible through the API only: the parser never yields Named(owl:Thing).
    a = Iri("http://x#A")
    return make_ontology(Iri("http://x"), (), [
        Declaration(Entity(EntityKind.CONCEPT, OWL_THING)),
        SubConceptOf(Named(OWL_THING), Named(a)),
        SubConceptOf(Named(a), Named(OWL_THING)),
    ])


def _told_ontology(n_classes):
    """A lenient told-only ontology: a binary class tree, one role, typed and
    related individuals, data values and annotations."""
    ns = "http://x#"
    classes = [Iri(f"{ns}C{i}") for i in range(n_classes)]
    individuals = [Iri(f"{ns}i{i}") for i in range(n_classes // 4)]
    role, data, note = Iri(ns + "r"), Iri(ns + "d"), Iri(ns + "note")
    axioms = [SubConceptOf(Named(classes[i]), Named(classes[(i - 1) // 2]))
              for i in range(1, n_classes)]
    axioms += [AnnotationAssertion(note, c, Literal(f"class {c.fragment}")) for c in classes]
    for i, individual in enumerate(individuals):
        axioms.append(ConceptAssertion(Named(classes[-1 - i]), individual))
        axioms.append(RoleAssertion(role, individual, individuals[i // 2]))
        axioms.append(DataAssertion(data, individual, Literal(f"value-{i}")))
    return make_ontology(Iri("http://x"), (), axioms)


# Recorded from the generator that scanned every axiom once per page, before
# generation became one pass over the axioms.
SITE_DIGESTS = {
    "fixture": "deb077dfdbe6e6bf90fdb950a098ad382023f45aa030686b79c880cca84bf738",
    "random": "a392b6db9ab48070cad6d61b6dd40aaf70d2691cd49e4be27f1a7f29b9708b74",
    "declared-thing": "ac2ea95f7da5ba53580d32c4f2f0a9c0894154dcd8230b4136e54b1925196e9e",
}


def test_sites_keep_recorded_bytes(disease, disease_taxonomy):
    fixture = generate_site(disease, disease_taxonomy, asserted_taxonomy(disease),
                            realize(disease))
    thing = _declared_thing_ontology()
    assert {
        "fixture": _site_digest([fixture]),
        "random": _site_digest([_random_site(seed) for seed in range(40)]),
        "declared-thing": _site_digest(
            [generate_site(thing, classify(thing), asserted_taxonomy(thing))]),
    } == SITE_DIGESTS


def _told_realization(n_classes):
    """Each individual of `_told_ontology(n_classes)` under its told class and
    every ancestor of it, as realizing a told tree gives: many pages share
    axioms, and the upper classes list many members."""
    ns = "http://x#"
    realization = {}
    for i in range(n_classes // 4):
        types, j = [], n_classes - 1 - i
        while True:
            types.append(Iri(f"{ns}C{j}"))
            if j == 0:
                break
            j = (j - 1) // 2
        realization[Iri(f"{ns}i{i}")] = tuple(types)
    return realization


def _punned_ontology():
    """One IRI as class, role and individual at once, with the positions a
    page must match by kind: annotation subjects (any kind, or no page), a
    self-inverse role, a repeated equivalent and owl:Thing named outright."""
    ns = "http://x#"
    p, q, a, note = Iri(ns + "P"), Iri(ns + "Q"), Iri(ns + "A"), Iri(ns + "note")
    return make_ontology(Iri("http://x"), (), [
        SubConceptOf(Named(p), Existential(NamedRole(p), Named(q))),
        SubConceptOf(Named(OWL_THING), Named(p)),
        EquivalentConcepts((Named(p), Named(p), Named(a))),
        DisjointConcepts((Named(q), Named(OWL_THING))),
        ConceptAssertion(Named(p), p),
        RoleAssertion(p, p, q),
        InverseRoles(p, p),
        RoleDomain(p, Named(p)),
        RoleRange(p, Named(OWL_THING)),
        DataAssertion(Iri(ns + "d"), p, Literal("v<1> & 2")),
        AnnotationAssertion(note, p, Literal("about P")),
        AnnotationAssertion(note, Iri(ns + "stray"), Literal("no page")),
    ])


# Recorded from the generator that rendered each page's sections from that
# page's own axioms, before one pass over the axioms filled every page.
ONE_PASS_DIGESTS = {
    "told-members": "b60448d0cfd8c306e7e5d86ecb40d0174fc25ee0fe10f89bb5f671a200460694",
    "punned": "b5352e860086ae79585afbbc68b0cab96fffda3ce602597d2958f320d250fe2b",
}


def test_sites_sharing_axioms_keep_recorded_bytes():
    told = _told_ontology(120)
    told_taxonomy = asserted_taxonomy(told)
    punned = _punned_ontology()
    punned_taxonomy = asserted_taxonomy(punned)
    p, q, a = (Iri("http://x#" + name) for name in "PQA")
    assert {
        "told-members": _site_digest([generate_site(
            told, told_taxonomy, told_taxonomy, _told_realization(120))]),
        "punned": _site_digest([generate_site(
            punned, punned_taxonomy, punned_taxonomy,
            {p: (p, a, OWL_THING), q: (p,)})]),
    } == ONE_PASS_DIGESTS


def test_declared_thing_page_keeps_asserted_superclass():
    ontology = _declared_thing_ontology()
    docs = generate_site(ontology, classify(ontology), asserted_taxonomy(ontology))
    page = {d.relative_path: d.body for d in docs}["Thing.html"]
    asserted = page.split("<h2>Superclasses (asserted)</h2>\n")[1].split("</ul>")[0]
    assert '<a href="A.html">A</a>' in asserted
    assert "<h2>Usage</h2>" not in page


def test_generate_site_does_not_rescan_signature_per_page(monkeypatch):
    calls = collections.Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("signature", "usages"):
        wrapped = counting(name, getattr(model, name))
        for module in (model, sitegen):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for n_classes in (60, 120):
        ontology = _told_ontology(n_classes)
        taxonomy = asserted_taxonomy(ontology)
        calls.clear()
        docs = generate_site(ontology, taxonomy, taxonomy)
        assert len(docs) > n_classes
        # declared_entities and compute_counts each read the signature once.
        assert calls["signature"] <= 2, (n_classes, calls)
        assert calls["usages"] == 0, (n_classes, calls)


def test_generate_site_renders_each_axiom_and_anchor_once(monkeypatch):
    calls = {name: collections.Counter()
             for name in ("axiom_references", "_axiom_html", "_entity_html")}

    def counting(name, key):
        original = getattr(sitegen, name)

        def wrapper(*args):
            calls[name][key(*args)] += 1
            return original(*args)
        monkeypatch.setattr(sitegen, name, wrapper)

    # Axioms are counted by identity, anchors by IRI.
    counting("axiom_references", lambda axiom: id(axiom))
    counting("_axiom_html", lambda axiom, anchors: id(axiom))
    counting("_entity_html", lambda iri, links: iri)
    ontology = _told_ontology(120)
    taxonomy = asserted_taxonomy(ontology)
    docs = generate_site(ontology, taxonomy, taxonomy, _told_realization(120))
    assert len(docs) > 120
    n_axioms = len(ontology.axioms)  # no declarations: all show in Usage
    assert sum(calls["axiom_references"].values()) == n_axioms
    assert sum(calls["_axiom_html"].values()) == n_axioms
    assert len(calls["_entity_html"]) > 120
    for name, counts in calls.items():
        assert max(counts.values()) == 1, (name, counts.most_common(3))


def test_asserted_taxonomy_then_site_sort_the_signature_once(monkeypatch):
    calls = collections.Counter()
    original = Entity.sort_key

    def counting(entity):
        calls["sort_key"] += 1
        return original(entity)

    ontology = _told_ontology(60)  # lenient: declared_entities is the signature
    n_entities = len(model.signature(_told_ontology(60)))
    monkeypatch.setattr(Entity, "sort_key", counting)
    taxonomy = asserted_taxonomy(ontology)
    generate_site(ontology, taxonomy, taxonomy)
    # One sort of the signature, and one of the page names.
    assert calls["sort_key"] == 2 * n_entities


def test_strict_site_sorts_the_declared_entities_once(fixture_dir, monkeypatch):
    with open(fixture_dir / "disease.ofn", encoding="utf-8") as handle:
        ontology = parse(handle.read(), strict=True)
    taxonomy = asserted_taxonomy(ontology)  # computes the signature too
    n_entities = len(declared_entities(ontology))
    calls = collections.Counter()
    original = Entity.sort_key

    def counting(entity):
        calls["sort_key"] += 1
        return original(entity)

    monkeypatch.setattr(Entity, "sort_key", counting)
    generate_site(ontology, taxonomy, taxonomy)
    # One sort of the declared entities, and one of the page names.
    assert calls["sort_key"] == 2 * n_entities
