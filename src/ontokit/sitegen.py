"""Deterministic static website generation.

One hyperlinked page per declared entity plus an index with entity counts and
the inferred concept tree. Generation takes one pass over the axioms, which
indexes each axiom under the IRIs it mentions, plus one render per page that
reads only its own entity's axioms. Markup is hand-emitted minimal HTML with no
scripts or external assets, so equal inputs produce byte-identical output and
structural tests stay trivial.
"""

from __future__ import annotations

import enum
import html
import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import (
    AnnotationAssertion,
    Axiom,
    Bottom,
    Complement,
    ConceptAssertion,
    ConceptExpression,
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
    Ontology,
    RoleAssertion,
    RoleDomain,
    RoleExpression,
    RoleRange,
    SubConceptOf,
    SubRoleOf,
    Top,
    TransitiveRole,
    Union,
    Universal,
    _mentions,
    axiom_references,
    compute_counts,
    declared_entities,
)
from .reasoner import Taxonomy


@dataclass(frozen=True)
class SiteDocument:
    relative_path: str
    title: str
    body: str


class SectionHeading(enum.Enum):
    ASSERTED_SUPERCLASSES = "AssertedSuperclasses"
    INFERRED_SUPERCLASSES = "InferredSuperclasses"
    EQUIVALENT_TO = "EquivalentTo"
    DISJOINT_WITH = "DisjointWith"
    SUB_PROPERTIES = "SubProperties"
    INVERSE_OF = "InverseOf"
    DOMAIN_OF = "DomainOf"
    RANGE_OF = "RangeOf"
    MEMBERS = "Members"
    PROPERTY_ASSERTIONS = "PropertyAssertions"
    ANNOTATIONS = "Annotations"
    USAGE = "Usage"


@dataclass(frozen=True)
class RenderedSection:
    heading: SectionHeading
    entries: tuple[str, ...]


@dataclass(frozen=True)
class LinkReport:
    total_links: int
    broken_links: int
    broken_list: tuple[tuple[str, str], ...]


_SECTION_LABELS = {
    SectionHeading.ASSERTED_SUPERCLASSES: "Superclasses (asserted)",
    SectionHeading.INFERRED_SUPERCLASSES: "Superclasses (inferred)",
    SectionHeading.EQUIVALENT_TO: "Equivalent to",
    SectionHeading.DISJOINT_WITH: "Disjoint with",
    SectionHeading.SUB_PROPERTIES: "Sub-properties",
    SectionHeading.INVERSE_OF: "Inverse of",
    SectionHeading.DOMAIN_OF: "Domain",
    SectionHeading.RANGE_OF: "Range",
    SectionHeading.MEMBERS: "Members",
    SectionHeading.PROPERTY_ASSERTIONS: "Property assertions",
    SectionHeading.ANNOTATIONS: "Annotations",
    SectionHeading.USAGE: "Usage",
}

_INDIVIDUAL_LABELS = {
    SectionHeading.ASSERTED_SUPERCLASSES: "Types (asserted)",
    SectionHeading.INFERRED_SUPERCLASSES: "Types (inferred)",
}


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


LinkMap = Mapping[Iri, str]


def _entity_html(iri: Iri, links: Optional[LinkMap]) -> str:
    text = html.escape(iri.fragment)
    if links and iri in links:
        return f'<a href="{html.escape(links[iri], quote=True)}">{text}</a>'
    return text


def _role_html(role: RoleExpression, links: Optional[LinkMap]) -> str:
    base = _entity_html(role.iri, links)
    if isinstance(role, InverseRole):
        return base + "⁻"
    return base


def render_expression(expr: ConceptExpression, links: Optional[LinkMap] = None) -> str:
    """DL notation with embedded entity links: ⊓ ⊔ ¬ ∃ ∀ ⊤ ⊥, parenthesized
    only where the reading would otherwise be ambiguous (¬/∃/∀ bind tighter
    than ⊓, which binds tighter than ⊔)."""

    def needs_parens(child: ConceptExpression, tight: bool) -> bool:
        # Prefix operators and restriction fillers wrap any infix child;
        # intersections wrap union children.
        if isinstance(child, Union):
            return True
        return tight and isinstance(child, Intersection)

    def wrap(child: ConceptExpression, tight: bool) -> str:
        rendered = render(child)
        if needs_parens(child, tight):
            return f"({rendered})"
        return rendered

    def render(e: ConceptExpression) -> str:
        if isinstance(e, Top):
            return "⊤"
        if isinstance(e, Bottom):
            return "⊥"
        if isinstance(e, Named):
            return _entity_html(e.iri, links)
        if isinstance(e, Complement):
            return "¬" + wrap(e.operand, tight=True)
        if isinstance(e, Existential):
            return f"∃{_role_html(e.role, links)}.{wrap(e.filler, tight=True)}"
        if isinstance(e, Universal):
            return f"∀{_role_html(e.role, links)}.{wrap(e.filler, tight=True)}"
        if isinstance(e, Intersection):
            return " ⊓ ".join(wrap(op, tight=True) for op in e.operands)
        if isinstance(e, Union):
            return " ⊔ ".join(wrap(op, tight=False) for op in e.operands)
        raise TypeError(f"unknown concept expression: {type(e).__name__}")

    return render(expr)


def _axiom_html(axiom: Axiom, links: Optional[LinkMap]) -> str:
    ent = lambda iri: _entity_html(iri, links)
    con = lambda expr: render_expression(expr, links)
    if isinstance(axiom, Declaration):
        return f"declared {axiom.entity.kind.value}: {ent(axiom.entity.iri)}"
    if isinstance(axiom, SubConceptOf):
        return f"{con(axiom.sub)} ⊑ {con(axiom.sup)}"
    if isinstance(axiom, EquivalentConcepts):
        return " ≡ ".join(con(op) for op in axiom.operands)
    if isinstance(axiom, DisjointConcepts):
        return "Disjoint(" + ", ".join(con(op) for op in axiom.operands) + ")"
    if isinstance(axiom, SubRoleOf):
        return f"{ent(axiom.sub)} ⊑ {ent(axiom.sup)}"
    if isinstance(axiom, InverseRoles):
        return f"{ent(axiom.first)} ≡ {ent(axiom.second)}⁻"
    if isinstance(axiom, TransitiveRole):
        return f"Transitive({ent(axiom.role)})"
    if isinstance(axiom, RoleDomain):
        return f"Domain({ent(axiom.role)}) = {con(axiom.concept)}"
    if isinstance(axiom, RoleRange):
        return f"Range({ent(axiom.role)}) = {con(axiom.concept)}"
    if isinstance(axiom, ConceptAssertion):
        return f"{con(axiom.concept)}({ent(axiom.individual)})"
    if isinstance(axiom, RoleAssertion):
        return f"{ent(axiom.role)}({ent(axiom.subject)}, {ent(axiom.object)})"
    if isinstance(axiom, DataAssertion):
        return (f"{html.escape(axiom.role.fragment)}: "
                f"{html.escape(axiom.value.lexical)} ({ent(axiom.subject)})")
    if isinstance(axiom, AnnotationAssertion):
        return (f"{html.escape(axiom.role.fragment)}: "
                f"{html.escape(axiom.value.lexical)} ({ent(axiom.subject)})")
    raise TypeError(f"unknown axiom type: {type(axiom).__name__}")


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _safe_name(fragment: str) -> str:
    # Keeps the layout flat even for fragments with separators in them.
    return _SAFE_CHARS.sub("-", fragment) or "entity"


def _page_paths(entities: tuple[Entity, ...]) -> dict[Entity, str]:
    by_name: dict[str, list[Entity]] = {}
    for entity in sorted(entities, key=lambda e: (e.iri.value, e.sort_key())):
        by_name.setdefault(_safe_name(entity.iri.fragment), []).append(entity)
    paths: dict[Entity, str] = {}
    for name, group in by_name.items():
        for index, entity in enumerate(group):
            suffix = "" if index == 0 else f"-{index + 1}"
            paths[entity] = f"{name}{suffix}.html"
    return paths


def _html_page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n</head>\n<body>\n{body}</body>\n</html>\n"
    )


def _render_sections(sections: list[RenderedSection], kind: EntityKind) -> str:
    parts: list[str] = []
    order = list(SectionHeading)
    for section in sorted(sections, key=lambda s: order.index(s.heading)):
        if not section.entries:
            continue
        label = _SECTION_LABELS[section.heading]
        if kind is EntityKind.INDIVIDUAL:
            label = _INDIVIDUAL_LABELS.get(section.heading, label)
        parts.append(f"<h2>{html.escape(label)}</h2>\n<ul>\n")
        parts.extend(f"<li>{entry}</li>\n" for entry in section.entries)
        parts.append("</ul>\n")
    return "".join(parts)


def _tree_html(taxonomy: Taxonomy, links: LinkMap) -> str:
    def group_label(group: int) -> str:
        members = taxonomy.members(group)
        return " ≡ ".join(_entity_html(iri, links) for iri in members)

    def subtree(group: int) -> str:
        children = [
            child for child in taxonomy.children_of(group)
            if child != Taxonomy.BOTTOM or taxonomy.members(child)
        ]
        if not children:
            return ""
        rows = []
        for child in children:
            label = group_label(child) if taxonomy.members(child) else "⊥"
            rows.append(f"<li>{label}{subtree(child)}</li>\n")
        return "<ul>\n" + "".join(rows) + "</ul>\n"

    return "<ul>\n<li>⊤" + subtree(Taxonomy.TOP) + "</li>\n</ul>\n"


def _sorted_entries(entries: set[str] | list[str]) -> tuple[str, ...]:
    return tuple(sorted(set(entries)))


def generate_site(
    ontology: Ontology,
    inferred: Taxonomy,
    asserted: Taxonomy,
    realization: Optional[Mapping[Iri, tuple[Iri, ...]]] = None,
) -> tuple[SiteDocument, ...]:
    """Render the full site: index.html plus one page per declared entity.

    `realization` optionally supplies entailed named types per individual
    (feeding concept Members sections and individual inferred-type sections).
    Output is byte-identical across runs for equal inputs.
    """
    entities = declared_entities(ontology)
    paths = _page_paths(entities)
    links: dict[Iri, str] = {}
    for entity in entities:  # declared_entities sorts by Entity.sort_key
        links.setdefault(entity.iri, paths[entity])
    realization = realization or {}
    mentioning: dict[Iri, list[Axiom]] = {}
    for axiom in ontology.axioms:
        for iri in _compared_iris(axiom):
            mentioning.setdefault(iri, []).append(axiom)
    members: dict[Iri, list[Iri]] = {}
    for individual, types in realization.items():
        for concept in types:
            members.setdefault(concept, []).append(individual)
    inferred_parents = {iri: inferred.parent_concepts_of(iri)
                        for iri in inferred.concepts()}

    documents = [_index_document(ontology, inferred, entities, paths, links)]
    for entity in entities:
        documents.append(
            _entity_document(entity, mentioning.get(entity.iri, ()), realization,
                             members, inferred_parents, paths, links))
    return tuple(sorted(documents, key=lambda doc: doc.relative_path))


def _compared_iris(axiom: Axiom) -> set[Iri]:
    """Every IRI a page section may compare against `axiom`: its references,
    plus a built-in concept named outright in a concept position, which
    `axiom_references` skips but a declared owl:Thing's page still lists."""
    iris = {iri for _, iri in axiom_references(axiom)}
    if isinstance(axiom, SubConceptOf):
        concepts = (axiom.sub, axiom.sup)
    elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
        concepts = axiom.operands
    elif isinstance(axiom, (ConceptAssertion, RoleDomain, RoleRange)):
        concepts = (axiom.concept,)
    else:
        concepts = ()
    iris.update(c.iri for c in concepts if isinstance(c, Named))
    return iris


def _index_document(ontology, inferred, entities, paths, links) -> SiteDocument:
    counts = compute_counts(ontology)
    rows = [
        ("Classes", counts.concepts),
        ("Object Properties", counts.object_roles),
        ("Data Properties", counts.data_roles),
        ("Annotation Properties", counts.annotation_roles),
        ("Individuals", counts.individuals),
        ("Data types", counts.datatypes),
    ]
    body = [f"<h1>{html.escape(ontology.iri.value)}</h1>\n"]
    body.append("<h2>Entity counts</h2>\n<table>\n")
    body.extend(f"<tr><td>{label}</td><td>{value}</td></tr>\n" for label, value in rows)
    body.append("</table>\n")
    body.append("<h2>Class hierarchy (inferred)</h2>\n")
    body.append(_tree_html(inferred, links))
    kind_labels = [
        (EntityKind.CONCEPT, "Classes"),
        (EntityKind.OBJECT_ROLE, "Object properties"),
        (EntityKind.DATA_ROLE, "Data properties"),
        (EntityKind.ANNOTATION_ROLE, "Annotation properties"),
        (EntityKind.INDIVIDUAL, "Individuals"),
        (EntityKind.DATATYPE, "Data types"),
    ]
    for kind, label in kind_labels:
        of_kind = [e for e in entities if e.kind is kind]
        if not of_kind:
            continue
        body.append(f"<h2>{label}</h2>\n<ul>\n")
        for entity in sorted(of_kind, key=lambda e: (e.iri.fragment, e.iri.value)):
            link = f'<a href="{html.escape(paths[entity], quote=True)}">' \
                   f"{html.escape(entity.iri.fragment)}</a>"
            body.append(f"<li>{link}</li>\n")
        body.append("</ul>\n")
    return SiteDocument("index.html", ontology.iri.value,
                        _html_page(ontology.iri.value, "".join(body)))


def _entity_document(entity, axioms, realization, members, inferred_parents,
                     paths, links) -> SiteDocument:
    """`axioms` are those that mention the entity's IRI, in ontology order;
    `members` maps each concept to the individuals realized under it, and
    `inferred_parents` each concept of the inferred tree to its parents."""
    sections: list[RenderedSection] = []
    iri = entity.iri
    if entity.kind is EntityKind.CONCEPT:
        sections.extend(_concept_sections(iri, axioms, inferred_parents.get(iri, ()),
                                          members.get(iri, ()), links))
    elif entity.kind is EntityKind.OBJECT_ROLE:
        sections.extend(_role_sections(iri, axioms, links))
    elif entity.kind is EntityKind.INDIVIDUAL:
        sections.extend(_individual_sections(iri, axioms, realization, links))
    sections.append(_annotation_section(iri, axioms))
    sections.append(_usage_section(entity, axioms, links))

    header = (f"<h1>{html.escape(iri.fragment)}</h1>\n"
              f"<p><code>{html.escape(iri.value)}</code> "
              f"({html.escape(entity.kind.value)})</p>\n"
              '<p><a href="index.html">index</a></p>\n')
    body = header + _render_sections(sections, entity.kind)
    return SiteDocument(paths[entity], iri.fragment, _html_page(iri.fragment, body))


def _concept_sections(iri, axioms, parents, realized, links):
    told_supers: list[str] = []
    equivalents: list[str] = []
    disjoints: list[str] = []
    members: list[str] = [_entity_html(individual, links) for individual in realized]
    for axiom in axioms:
        if isinstance(axiom, SubConceptOf) and axiom.sub == Named(iri):
            told_supers.append(render_expression(axiom.sup, links))
        elif isinstance(axiom, EquivalentConcepts) and Named(iri) in axiom.operands:
            equivalents.extend(render_expression(op, links)
                               for op in axiom.operands if op != Named(iri))
        elif isinstance(axiom, DisjointConcepts) and Named(iri) in axiom.operands:
            disjoints.extend(render_expression(op, links)
                             for op in axiom.operands if op != Named(iri))
        elif isinstance(axiom, ConceptAssertion) and axiom.concept == Named(iri):
            members.append(_entity_html(axiom.individual, links))
    inferred_supers = [_entity_html(parent, links) for parent in parents]
    domain_of = [
        _entity_html(a.role, links) for a in axioms
        if isinstance(a, RoleDomain) and a.concept == Named(iri)
    ]
    range_of = [
        _entity_html(a.role, links) for a in axioms
        if isinstance(a, RoleRange) and a.concept == Named(iri)
    ]
    return [
        RenderedSection(SectionHeading.ASSERTED_SUPERCLASSES, _sorted_entries(told_supers)),
        RenderedSection(SectionHeading.INFERRED_SUPERCLASSES, _sorted_entries(inferred_supers)),
        RenderedSection(SectionHeading.EQUIVALENT_TO, _sorted_entries(equivalents)),
        RenderedSection(SectionHeading.DISJOINT_WITH, _sorted_entries(disjoints)),
        RenderedSection(SectionHeading.DOMAIN_OF, _sorted_entries(domain_of)),
        RenderedSection(SectionHeading.RANGE_OF, _sorted_entries(range_of)),
        RenderedSection(SectionHeading.MEMBERS, _sorted_entries(members)),
    ]


def _role_sections(iri, axioms, links):
    subs: list[str] = []
    inverses: list[str] = []
    domains: list[str] = []
    ranges: list[str] = []
    assertions: list[str] = []
    for axiom in axioms:
        if isinstance(axiom, SubRoleOf) and axiom.sup == iri:
            subs.append(_entity_html(axiom.sub, links))
        elif isinstance(axiom, InverseRoles) and iri in (axiom.first, axiom.second):
            other = axiom.second if axiom.first == iri else axiom.first
            inverses.append(_entity_html(other, links))
        elif isinstance(axiom, RoleDomain) and axiom.role == iri:
            domains.append(render_expression(axiom.concept, links))
        elif isinstance(axiom, RoleRange) and axiom.role == iri:
            ranges.append(render_expression(axiom.concept, links))
        elif isinstance(axiom, RoleAssertion) and axiom.role == iri:
            assertions.append(f"{_entity_html(axiom.subject, links)} → "
                              f"{_entity_html(axiom.object, links)}")
    return [
        RenderedSection(SectionHeading.SUB_PROPERTIES, _sorted_entries(subs)),
        RenderedSection(SectionHeading.INVERSE_OF, _sorted_entries(inverses)),
        RenderedSection(SectionHeading.DOMAIN_OF, _sorted_entries(domains)),
        RenderedSection(SectionHeading.RANGE_OF, _sorted_entries(ranges)),
        RenderedSection(SectionHeading.PROPERTY_ASSERTIONS, _sorted_entries(assertions)),
    ]


def _individual_sections(iri, axioms, realization, links):
    told_types: list[str] = []
    assertions: list[str] = []
    for axiom in axioms:
        if isinstance(axiom, ConceptAssertion) and axiom.individual == iri:
            told_types.append(render_expression(axiom.concept, links))
        elif isinstance(axiom, RoleAssertion) and iri in (axiom.subject, axiom.object):
            assertions.append(f"{_entity_html(axiom.role, links)}: "
                              f"{_entity_html(axiom.subject, links)} → "
                              f"{_entity_html(axiom.object, links)}")
        elif isinstance(axiom, DataAssertion) and axiom.subject == iri:
            # Plain text so the value row reads exactly "role: value".
            assertions.append(html.escape(f"{axiom.role.fragment}: {axiom.value.lexical}"))
    inferred_types = [
        _entity_html(concept, links) for concept in realization.get(iri, ())
    ]
    return [
        RenderedSection(SectionHeading.ASSERTED_SUPERCLASSES, _sorted_entries(told_types)),
        RenderedSection(SectionHeading.INFERRED_SUPERCLASSES, _sorted_entries(inferred_types)),
        RenderedSection(SectionHeading.PROPERTY_ASSERTIONS, _sorted_entries(assertions)),
    ]


def _annotation_section(iri, axioms) -> RenderedSection:
    notes = [
        html.escape(f"{axiom.role.fragment}: {axiom.value.lexical}")
        for axiom in axioms
        if isinstance(axiom, AnnotationAssertion) and axiom.subject == iri
    ]
    return RenderedSection(SectionHeading.ANNOTATIONS, _sorted_entries(notes))


def _usage_section(entity, axioms, links) -> RenderedSection:
    entries = [
        _axiom_html(axiom, links)
        for axiom in axioms
        if not isinstance(axiom, Declaration) and _mentions(axiom, entity)
    ]
    return RenderedSection(SectionHeading.USAGE, _sorted_entries(entries))


# ---------------------------------------------------------------------------
# Link verification
# ---------------------------------------------------------------------------

_HREF = re.compile(r'href="([^"]*)"')
_SCHEMES = ("http://", "https://", "mailto:", "file:")


def verify_links(documents: tuple[SiteDocument, ...]) -> LinkReport:
    """Check every relative link against the set of document paths."""
    known = {doc.relative_path for doc in documents}
    total = 0
    broken: list[tuple[str, str]] = []
    for doc in sorted(documents, key=lambda d: d.relative_path):
        for match in _HREF.finditer(doc.body):
            target = match.group(1)
            if target.startswith(_SCHEMES) or target.startswith("#"):
                continue
            total += 1
            plain = target.split("#", 1)[0]
            if plain not in known:
                broken.append((doc.relative_path, target))
    return LinkReport(total_links=total, broken_links=len(broken),
                      broken_list=tuple(broken))
