"""Seeded input generators for the benchmark workloads.

Each generator returns a `Spec`: the ontology as abstract axioms, its
functional-syntax text, and the answers the program must give, all computed
here without calling ontokit. Expressions are a class name (str),
("some", role, filler), ("and", op, op, ...) or ("or", op, op, ...). Axioms
are tuples whose first element names the kind; `render_axiom` lists the
kinds.

The shapes are fixed per workload: the seed picks names, their order and
literal values (and in an ABox, which way each symptom link is asserted),
never the shape or the counts. So the work of a pass hardly depends on the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_DECLARATION_KINDS = {
    "class": "Class",
    "oprop": "ObjectProperty",
    "dprop": "DataProperty",
    "aprop": "AnnotationProperty",
    "ind": "NamedIndividual",
}


@dataclass
class Spec:
    iri: str
    axioms: list
    truth: dict = field(default_factory=dict)

    @property
    def ns(self) -> str:
        return self.iri + "#"

    @property
    def text(self) -> str:
        return render(self)


def _expr(e) -> str:
    if isinstance(e, str):
        return f":{e}"
    if e[0] == "some":
        return f"ObjectSomeValuesFrom(:{e[1]} {_expr(e[2])})"
    if e[0] == "and":
        return "ObjectIntersectionOf(" + " ".join(_expr(op) for op in e[1:]) + ")"
    if e[0] == "or":
        return "ObjectUnionOf(" + " ".join(_expr(op) for op in e[1:]) + ")"
    raise ValueError(f"unknown expression: {e!r}")


def _literal(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_axiom(a) -> str:
    kind = a[0]
    if kind in _DECLARATION_KINDS:
        return f"Declaration({_DECLARATION_KINDS[kind]}(:{a[1]}))"
    if kind == "datatype":
        return "Declaration(Datatype(xsd:string))"
    if kind == "sub":
        return f"SubClassOf({_expr(a[1])} {_expr(a[2])})"
    if kind == "equiv":
        return f"EquivalentClasses({_expr(a[1])} {_expr(a[2])})"
    if kind == "disjoint":
        return f"DisjointClasses({_expr(a[1])} {_expr(a[2])})"
    if kind == "subrole":
        return f"SubObjectPropertyOf(:{a[1]} :{a[2]})"
    if kind == "inverse":
        return f"InverseObjectProperties(:{a[1]} :{a[2]})"
    if kind == "trans":
        return f"TransitiveObjectProperty(:{a[1]})"
    if kind == "range":
        return f"ObjectPropertyRange(:{a[1]} {_expr(a[2])})"
    if kind == "type":
        return f"ClassAssertion({_expr(a[1])} :{a[2]})"
    if kind == "rel":
        return f"ObjectPropertyAssertion(:{a[1]} :{a[2]} :{a[3]})"
    if kind == "data":
        return f"DataPropertyAssertion(:{a[1]} :{a[2]} {_literal(a[3])})"
    if kind == "note":
        return f"AnnotationAssertion(:{a[1]} :{a[2]} {_literal(a[3])})"
    raise ValueError(f"unknown axiom kind: {kind!r}")


def render(spec: Spec) -> str:
    lines = [f"Prefix(:=<{spec.ns}>)", f"Prefix(owl:=<{OWL_NS}>)",
             f"Prefix(xsd:=<{XSD_NS}>)", f"Ontology(<{spec.iri}>"]
    lines.extend(render_axiom(a) for a in spec.axioms)
    lines.append(")")
    return "\n".join(lines) + "\n"


def _token(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))


def told_closure(names, parents: dict) -> dict:
    """Reflexive-transitive closure of a told parent map: name -> ancestors."""
    closure: dict = {}

    def up(name):
        if name not in closure:
            seen = {name}
            for parent in parents.get(name, ()):
                seen |= up(parent)
            closure[name] = seen
        return closure[name]

    for name in names:
        up(name)
    return closure


def reduce_parents(strict_ancestors: dict) -> dict:
    """Direct parents from strict ancestor sets of an acyclic order."""
    return {
        name: {p for p in ups
               if not any(p in strict_ancestors[q] for q in ups if q != p)}
        for name, ups in strict_ancestors.items()
    }


# ---------------------------------------------------------------------------
# tbox-classify: EL TBox with a transitive role and its sub-role
# ---------------------------------------------------------------------------

TBOX_CLASSES = 30
TBOX_DEFINED_EVERY = 11


def tbox_spec(seed: int, classes: int = TBOX_CLASSES) -> Spec:
    """A ternary class tree over the primitive names; every third primitive
    class gets an existential over `directPartOf` or `partOf`, and every
    11th name is defined as `P ⊓ ∃partOf.Q`. Fillers, P and Q sit at fixed
    places in the tree, so the seed picks the names and thereby the order
    in which they are classified, not the shape: seeded fillers made the
    cost of a TBox vary by a tenth. Answers come from `elref.classify`."""
    rng = random.Random(seed)
    prefix = _token(rng).capitalize()
    names = [f"{prefix}{i:03d}" for i in range(classes)]
    rng.shuffle(names)
    axioms: list = [("class", n) for n in names]
    axioms += [("oprop", "partOf"), ("oprop", "directPartOf"),
               ("trans", "partOf"), ("subrole", "directPartOf", "partOf")]
    primitive: list = []
    for i, name in enumerate(names):
        k = len(primitive)
        if i % TBOX_DEFINED_EVERY == TBOX_DEFINED_EVERY - 1:
            p, q = primitive[k // 2], primitive[k // 3]
            axioms.append(("equiv", name, ("and", p, ("some", "partOf", q))))
            continue
        if k:
            axioms.append(("sub", name, primitive[(k - 1) // 3]))
            if k % 3 == 0:
                role = ("directPartOf", "partOf")[k // 3 % 2]
                axioms.append(("sub", name, ("some", role, primitive[k // 2])))
        primitive.append(name)
    rng.shuffle(axioms)
    return Spec("http://example.org/bench/tbox", axioms, {"names": sorted(names)})


# ---------------------------------------------------------------------------
# abox-realize: disease, organism and symptom individuals
# ---------------------------------------------------------------------------

ABOX_CLASSES = ("Acute", "Bacteria", "Bacterial", "Chronic", "Disease",
                "Infectious", "Organism", "Symptom", "Virus")
# Told parents of the named classes; `Bacterial` also has its definition.
ABOX_PARENTS = {"Bacteria": ("Organism",), "Virus": ("Organism",),
                "Infectious": ("Disease",), "Bacterial": ("Infectious",)}


def abox_spec(seed: int, kinds: tuple = ("Bacteria",)) -> Spec:
    """One disease per entry of `kinds`, each caused by its own organism of
    that kind (Bacteria or Virus) and linked to its own symptom. The seed
    picks the names, the order of the diseases, and whether each symptom
    link is asserted as `hasSymptoms` or as its inverse `isSymptomsOf`."""
    rng = random.Random(seed)
    axioms: list = [("class", c) for c in ABOX_CLASSES]
    axioms += [("oprop", r) for r in ("causedBy", "hasSymptoms", "isSymptomsOf")]
    axioms += [
        ("sub", "Bacteria", "Organism"), ("sub", "Virus", "Organism"),
        ("disjoint", "Bacteria", "Virus"),
        ("sub", "Infectious", "Disease"),
        ("sub", "Infectious", ("or", "Chronic", "Acute")),
        ("equiv", "Bacterial", ("and", "Disease", ("some", "causedBy", "Bacteria"))),
        ("sub", "Bacterial", "Infectious"),
        ("range", "causedBy", "Organism"),
        ("range", "hasSymptoms", "Symptom"),
        ("inverse", "hasSymptoms", "isSymptomsOf"),
    ]
    kinds = list(kinds)
    rng.shuffle(kinds)
    types: dict = {}
    symptoms: dict = {}
    caused_by: dict = {}
    for i, kind in enumerate(kinds):
        tag = f"{_token(rng)}{i}"
        disease, organism, symptom = f"d_{tag}", f"o_{tag}", f"s_{tag}"
        axioms += [("ind", disease), ("ind", organism), ("ind", symptom),
                   ("type", "Disease", disease), ("type", kind, organism),
                   ("rel", "causedBy", disease, organism)]
        if rng.random() < 0.5:
            axioms.append(("rel", "hasSymptoms", disease, symptom))
        else:
            axioms.append(("rel", "isSymptomsOf", symptom, disease))
        types[disease] = ("Bacterial",) if kind == "Bacteria" else ("Disease",)
        types[organism] = (kind,)
        types[symptom] = ("Symptom",)
        symptoms[disease] = (symptom,)
        caused_by[disease] = (organism,)
    rng.shuffle(axioms)
    closure = told_closure(ABOX_CLASSES, ABOX_PARENTS)
    entailed = {ind: set().union(*(closure[t] for t in ts)) for ind, ts in types.items()}
    return Spec("http://example.org/bench/abox", axioms, {
        "realization": types,
        "instances": {c: sorted(i for i, e in entailed.items() if c in e)
                      for c in ABOX_CLASSES},
        "symptoms": symptoms,
        "diseases_with_symptom": {s[0]: (d,) for d, s in symptoms.items()},
        "caused_by": caused_by,
        "told_types": {a[2]: a[1] for a in axioms if a[0] == "type"},
        "ancestors": {c: closure[c] - {c} for c in ABOX_CLASSES},
    })


# ---------------------------------------------------------------------------
# publish-site: told-only ontology with annotations, roles and individuals
# ---------------------------------------------------------------------------

SITE_CLASSES = 160
SITE_ROLES = 8
SITE_INDIVIDUALS = 40


def site_spec(seed: int, classes: int = SITE_CLASSES, roles: int = SITE_ROLES,
              individuals: int = SITE_INDIVIDUALS) -> Spec:
    """A told class DAG (a ternary tree in which every fifth class also
    gets the node beside its parent as a second parent), existential
    superclasses that entail no named subsumption, disjoint leaf pairs, a
    role hierarchy with inverses, and typed individuals with role, data and
    annotation assertions. Everything sits at fixed places; the seed picks
    the names, their order and the literal values, since a seeded shape made
    the cost vary by a tenth. Nothing here is inferred beyond the told
    closure, so the asserted tree is also the inferred tree and the
    realization is told types plus their ancestors."""
    rng = random.Random(seed)
    prefix = _token(rng).capitalize()
    names = [f"{prefix}{i:04d}" for i in range(classes)]
    rng.shuffle(names)
    role_names = [f"rel{_token(rng)}{i}" for i in range(roles)]
    people = [f"ind{_token(rng)}{i}" for i in range(individuals)]
    axioms: list = [("class", n) for n in names]
    axioms += [("oprop", r) for r in role_names]
    axioms += [("dprop", "code"), ("dprop", "weight"), ("aprop", "comment"),
               ("aprop", "label"), ("datatype", "xsd:string")]
    axioms += [("ind", p) for p in people]

    level = [0]
    parents: dict = {names[0]: ()}
    for i in range(1, classes):
        first = (i - 1) // 3
        level.append(level[first] + 1)
        chosen = [names[first]]
        # A node of the parent's level is never its relative.
        if i % 5 == 0 and first > 1 and level[first - 1] == level[first]:
            chosen.append(names[first - 1])
        parents[names[i]] = tuple(chosen)
        axioms += [("sub", names[i], p) for p in chosen]
        if i % 4 == 0:
            axioms.append(("sub", names[i],
                           ("some", role_names[i % roles], names[i * 7 % classes])))
    closure = told_closure(names, parents)
    with_children = {p for ps in parents.values() for p in ps}
    leaves = [n for n in names if n not in with_children]
    for a, b in zip(leaves[0::2][:classes // 20], leaves[1::2]):
        axioms.append(("disjoint", a, b))
    for i in range(1, roles, 2):
        axioms.append(("subrole", role_names[i], role_names[i - 1]))
    for i in range(2, roles, 4):
        axioms.append(("inverse", role_names[i], role_names[i + 1]))
    for i, name in enumerate(names):
        if i % 3 == 0:
            axioms.append(("note", "comment", name,
                           f"About {name}: {_token(rng)} & {_token(rng)} <{i}>"))
        if i % 7 == 0:
            axioms.append(("note", "label", name, f'"{name.lower()}"'))
    types: dict = {}
    for j, person in enumerate(people):
        told = names[j * 11 % classes]
        types[person] = told
        axioms.append(("type", told, person))
        axioms.append(("rel", role_names[j % roles], person,
                       people[(j * 3 + 1) % individuals]))
        axioms.append(("data", "code", person, _token(rng)))
        if j % 2 == 0:
            axioms.append(("data", "weight", person, str(rng.randrange(1000))))
        axioms.append(("note", "comment", person, f"Individual {_token(rng)}"))
    rng.shuffle(axioms)
    ancestors = {n: closure[n] - {n} for n in names}
    return Spec("http://example.org/bench/site", axioms, {
        "classes": sorted(names),
        "parents": reduce_parents(ancestors),
        "ancestors": ancestors,
        "realization": {p: tuple(sorted(closure[t])) for p, t in types.items()},
        "entities": sum(1 for a in axioms if a[0] in _DECLARATION_KINDS or a[0] == "datatype"),
    })


# ---------------------------------------------------------------------------
# Inputs of each generated workload
# ---------------------------------------------------------------------------

# Several small TBoxes and ABoxes per pass: their costs vary by seed, and
# the mean over a batch varies far less than one of them does.
TBOX_CASES = 4
ABOX_CASES = 8


def workload_specs(workload: str, seed: int) -> list:
    seeds = [seed * 1009 + k for k in range(max(TBOX_CASES, ABOX_CASES))]
    if workload == "tbox-classify":
        return [tbox_spec(s) for s in seeds[:TBOX_CASES]]
    if workload == "abox-realize":
        # Bacterial and viral diseases alternate, one per ABox: a second
        # disease in one ABox makes realize about 150 times slower.
        return [abox_spec(s, (("Bacteria",), ("Virus",))[k % 2])
                for k, s in enumerate(seeds[:ABOX_CASES])]
    if workload == "publish-site":
        return [site_spec(seed)]
    raise ValueError(f"no generated inputs for workload {workload!r}")
