"""Deterministic static website generation.

One hyperlinked page per declared entity plus an index with entity counts and
the inferred concept tree. Generation takes one pass over the axioms. It
finds each axiom's references once, renders its Usage entry at most once, and
adds each section entry straight to the pages that show it; each IRI's anchor
is rendered once per site. A page then only sorts and joins its own entries.
Markup is hand-emitted minimal HTML with no scripts or external assets, so
equal inputs produce byte-identical output and structural tests stay trivial.
"""

from __future__ import annotations

import enum
import re
from collections import defaultdict
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
    KIND_ORDER,
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
    _Value,
    _counts_of,
    axiom_references,
    declared_entities,
)
from .reasoner import Taxonomy


@dataclass(frozen=True)
class SiteDocument:
    relative_path: str
    title: str
    body: str


class SectionHeading(enum.IntEnum):
    """A page's sections, numbered in the order the page shows them. As ints
    they hash and sort without a Python-level call."""

    ASSERTED_SUPERCLASSES = enum.auto()
    INFERRED_SUPERCLASSES = enum.auto()
    EQUIVALENT_TO = enum.auto()
    DISJOINT_WITH = enum.auto()
    SUB_PROPERTIES = enum.auto()
    INVERSE_OF = enum.auto()
    DOMAIN_OF = enum.auto()
    RANGE_OF = enum.auto()
    MEMBERS = enum.auto()
    PROPERTY_ASSERTIONS = enum.auto()
    ANNOTATIONS = enum.auto()
    USAGE = enum.auto()


class LinkReport(_Value):
    __slots__ = ()
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
    **_SECTION_LABELS,
    SectionHeading.ASSERTED_SUPERCLASSES: "Types (asserted)",
    SectionHeading.INFERRED_SUPERCLASSES: "Types (inferred)",
}


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


LinkMap = Mapping[Iri, str]


def _escape(text: str) -> str:
    """`html.escape(text)`: the same five replacements, `&` first, without
    importing `html` and its entity table, which the site never needs."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _entity_html(iri: Iri, links: Optional[LinkMap]) -> str:
    text = _escape(iri.fragment)
    if links and iri in links:
        return f'<a href="{_escape(links[iri])}">{text}</a>'
    return text


class _Anchors(dict):
    """Each IRI's anchor, rendered on its first lookup: a link when `links`
    gives the IRI a page, else the escaped bare fragment."""

    def __init__(self, links: Optional[LinkMap]):
        super().__init__()
        self.links = links

    def __missing__(self, iri: Iri) -> str:
        anchor = self[iri] = _entity_html(iri, self.links)
        return anchor


def render_expression(expr: ConceptExpression, links: Optional[LinkMap] = None) -> str:
    """DL notation with embedded entity links: ⊓ ⊔ ¬ ∃ ∀ ⊤ ⊥, parenthesized
    only where the reading would otherwise be ambiguous (¬/∃/∀ bind tighter
    than ⊓, which binds tighter than ⊔)."""
    return _expression_html(expr, _Anchors(links))


def _expression_html(expr: ConceptExpression, anchors: _Anchors) -> str:
    if isinstance(expr, Named):
        return anchors[expr.iri]
    if isinstance(expr, Top):
        return "⊤"
    if isinstance(expr, Bottom):
        return "⊥"
    if isinstance(expr, Complement):
        return "¬" + _operand_html(expr.operand, anchors, tight=True)
    if isinstance(expr, (Existential, Universal)):
        quantifier = "∃" if isinstance(expr, Existential) else "∀"
        return (f"{quantifier}{_role_html(expr.role, anchors)}."
                f"{_operand_html(expr.filler, anchors, tight=True)}")
    if isinstance(expr, Intersection):
        return " ⊓ ".join(_operand_html(op, anchors, tight=True) for op in expr.operands)
    if isinstance(expr, Union):
        return " ⊔ ".join(_operand_html(op, anchors, tight=False) for op in expr.operands)
    raise TypeError(f"unknown concept expression: {type(expr).__name__}")


def _operand_html(child: ConceptExpression, anchors: _Anchors, tight: bool) -> str:
    # Prefix operators and restriction fillers wrap any infix child;
    # intersections wrap union children.
    rendered = _expression_html(child, anchors)
    if isinstance(child, Union) or (tight and isinstance(child, Intersection)):
        return f"({rendered})"
    return rendered


def _role_html(role: RoleExpression, anchors: _Anchors) -> str:
    if isinstance(role, InverseRole):
        return anchors[role.iri] + "⁻"
    return anchors[role.iri]


def _axiom_html(axiom: Axiom, anchors: _Anchors) -> str:
    ent = anchors.__getitem__
    con = lambda expr: _expression_html(expr, anchors)
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
    if isinstance(axiom, (DataAssertion, AnnotationAssertion)):
        return (f"{_escape(axiom.role.fragment)}: "
                f"{_escape(axiom.value.lexical)} ({ent(axiom.subject)})")
    raise TypeError(f"unknown axiom type: {type(axiom).__name__}")


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _safe_name(fragment: str) -> str:
    # Keeps the layout flat even for fragments with separators in them.
    return _SAFE_CHARS.sub("-", fragment) or "entity"


def _page_paths(entities: tuple[Entity, ...]) -> dict[Entity, str]:
    """Each entity's page, taken in (IRI, kind) order: its safe name, or
    once that is taken, the name with the first free suffix `-2`, `-3`, ...
    The site index holds the name "index"."""
    taken = {"index.html"}
    last: dict[str, int] = {}  # a name -> the last suffix it took
    paths: dict[Entity, str] = {}
    for entity in sorted(entities, key=lambda e: (e.iri, KIND_ORDER[e.kind])):
        name = _safe_name(entity.iri.fragment)
        path, suffix = f"{name}.html", last.get(name, 1)
        while path in taken:
            suffix += 1
            path = f"{name}-{suffix}.html"
        taken.add(path)
        last[name] = suffix
        paths[entity] = path
    return paths


def _html_page(title: str, body: str) -> str:
    """A page around `body`; `title` is escaped already."""
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{title}</title>\n</head>\n<body>\n{body}</body>\n</html>\n"
    )


def _tree_html(taxonomy: Taxonomy, anchors: _Anchors) -> str:
    """Nested lists of `taxonomy.tree()`: a deeper item opens a list inside
    the item before it; a shallower one first closes the lists between."""
    parts: list[str] = []
    previous = -1
    for depth, group in taxonomy.tree():
        if depth > previous:
            parts.append("<ul>\n")
        else:
            parts.append("</li>\n" + "</ul>\n</li>\n" * (previous - depth))
        label = ("⊤" if group == Taxonomy.TOP
                 else " ≡ ".join(anchors[iri] for iri in taxonomy.members(group)))
        parts.append("<li>" + label)
        previous = depth
    parts.append("</li>\n" + "</ul>\n</li>\n" * previous + "</ul>\n")
    return "".join(parts)


def generate_site(
    ontology: Ontology,
    inferred: Taxonomy,
    asserted: Taxonomy,
    realization: Optional[Mapping[Iri, tuple[Iri, ...]]] = None,
) -> tuple[SiteDocument, ...]:
    """Render the full site: index.html plus one page per declared entity.

    `realization` optionally supplies entailed named types per individual
    (feeding concept Members sections and individual inferred-type sections).
    Output is byte-identical across runs for equal inputs. `asserted` is
    ignored; it stays only while `perfbench/workloads.py` passes it.
    """
    entities = declared_entities(ontology)
    paths = _page_paths(entities)
    links: dict[Iri, str] = {}
    pages: dict[Iri, list[_Page]] = {}
    for entity in entities:  # declared_entities sorts by kind, then IRI
        links.setdefault(entity.iri, paths[entity])
        pages.setdefault(entity.iri, []).append(_Page(entity))
    anchors = _Anchors(links)
    _fill_pages(pages, ontology, inferred, realization or {}, anchors)

    documents = [_index_document(ontology, inferred, entities, paths, anchors)]
    for entity_pages in pages.values():
        documents.extend(page.document(paths[page.entity]) for page in entity_pages)
    return tuple(sorted(documents, key=lambda doc: doc.relative_path))


class _Page:
    """One declared entity's page: its sections' entries, added by
    `_fill_pages` in any order and sorted when the page is rendered."""

    __slots__ = ("entity", "sections")

    def __init__(self, entity: Entity):
        self.entity = entity
        self.sections: defaultdict[SectionHeading, list[str]] = defaultdict(list)

    def document(self, path: str) -> SiteDocument:
        """Render the page, handing over its entries: they are freed as the
        site's pages are made, not held until the last one."""
        iri, kind = self.entity.iri, self.entity.kind
        # Kind names and section labels are constants with nothing to escape.
        title = _escape(iri.fragment)
        parts = [f"<h1>{title}</h1>\n"
                 f"<p><code>{_escape(iri)}</code> ({kind.value})</p>\n"
                 '<p><a href="index.html">index</a></p>\n']
        labels = _INDIVIDUAL_LABELS if kind is EntityKind.INDIVIDUAL else _SECTION_LABELS
        for heading in sorted(self.sections):
            entries = self.sections.pop(heading)
            parts.append(f"<h2>{labels[heading]}</h2>\n<ul>\n<li>"
                         + "</li>\n<li>".join(sorted(set(entries))) + "</li>\n</ul>\n")
        return SiteDocument(path, iri.fragment, _html_page(title, "".join(parts)))


def _fill_pages(pages: dict[Iri, list[_Page]], ontology: Ontology, inferred: Taxonomy,
                realization: Mapping[Iri, tuple[Iri, ...]], anchors: _Anchors) -> None:
    """One pass over the axioms adds every section entry to the pages that
    show it. An axiom's Usage entry goes to each page whose entity it
    references in a kind-compatible position (an annotation subject suits
    any kind); the other sections read an axiom's top-level positions, where
    a declared owl:Thing's page may be named too."""

    def add(kind: Optional[EntityKind], iri: Iri, heading: SectionHeading,
            entry: str) -> None:
        for page in pages.get(iri, ()):
            if kind is None or page.entity.kind is kind:
                page.sections[heading].append(entry)

    concept, role, individual = EntityKind.CONCEPT, EntityKind.OBJECT_ROLE, EntityKind.INDIVIDUAL
    for axiom in ontology.axioms:
        if isinstance(axiom, Declaration):
            continue
        usage = _axiom_html(axiom, anchors)
        for kind, iri in axiom_references(axiom):
            add(kind, iri, SectionHeading.USAGE, usage)
        if isinstance(axiom, SubConceptOf):
            if isinstance(axiom.sub, Named):
                add(concept, axiom.sub.iri, SectionHeading.ASSERTED_SUPERCLASSES,
                    _expression_html(axiom.sup, anchors))
        elif isinstance(axiom, (EquivalentConcepts, DisjointConcepts)):
            heading = (SectionHeading.EQUIVALENT_TO if isinstance(axiom, EquivalentConcepts)
                       else SectionHeading.DISJOINT_WITH)
            rendered = [(op, _expression_html(op, anchors)) for op in axiom.operands]
            for named in axiom.operands:
                if isinstance(named, Named):
                    for op, text in rendered:
                        if op != named:
                            add(concept, named.iri, heading, text)
        elif isinstance(axiom, (RoleDomain, RoleRange)):
            heading = (SectionHeading.DOMAIN_OF if isinstance(axiom, RoleDomain)
                       else SectionHeading.RANGE_OF)
            add(role, axiom.role, heading, _expression_html(axiom.concept, anchors))
            if isinstance(axiom.concept, Named):
                add(concept, axiom.concept.iri, heading, anchors[axiom.role])
        elif isinstance(axiom, ConceptAssertion):
            add(individual, axiom.individual, SectionHeading.ASSERTED_SUPERCLASSES,
                _expression_html(axiom.concept, anchors))
            if isinstance(axiom.concept, Named):
                add(concept, axiom.concept.iri, SectionHeading.MEMBERS,
                    anchors[axiom.individual])
        elif isinstance(axiom, SubRoleOf):
            add(role, axiom.sup, SectionHeading.SUB_PROPERTIES, anchors[axiom.sub])
        elif isinstance(axiom, InverseRoles):
            add(role, axiom.first, SectionHeading.INVERSE_OF, anchors[axiom.second])
            add(role, axiom.second, SectionHeading.INVERSE_OF, anchors[axiom.first])
        elif isinstance(axiom, RoleAssertion):
            pair = f"{anchors[axiom.subject]} → {anchors[axiom.object]}"
            add(role, axiom.role, SectionHeading.PROPERTY_ASSERTIONS, pair)
            entry = f"{anchors[axiom.role]}: {pair}"
            add(individual, axiom.subject, SectionHeading.PROPERTY_ASSERTIONS, entry)
            add(individual, axiom.object, SectionHeading.PROPERTY_ASSERTIONS, entry)
        elif isinstance(axiom, DataAssertion):
            # Plain text so the value row reads exactly "role: value".
            add(individual, axiom.subject, SectionHeading.PROPERTY_ASSERTIONS,
                _escape(f"{axiom.role.fragment}: {axiom.value.lexical}"))
        elif isinstance(axiom, AnnotationAssertion):
            add(None, axiom.subject, SectionHeading.ANNOTATIONS,
                _escape(f"{axiom.role.fragment}: {axiom.value.lexical}"))

    for iri in inferred.concepts():
        for parent in inferred.parent_concepts_of(iri):
            add(concept, iri, SectionHeading.INFERRED_SUPERCLASSES, anchors[parent])
    for member, types in realization.items():
        for type_ in types:
            add(concept, type_, SectionHeading.MEMBERS, anchors[member])
            add(individual, member, SectionHeading.INFERRED_SUPERCLASSES, anchors[type_])


def _index_document(ontology, inferred, entities, paths, anchors) -> SiteDocument:
    counts = _counts_of(entities)
    rows = [
        ("Classes", counts.concepts),
        ("Object Properties", counts.object_roles),
        ("Data Properties", counts.data_roles),
        ("Annotation Properties", counts.annotation_roles),
        ("Individuals", counts.individuals),
        ("Data types", counts.datatypes),
    ]
    title = _escape(ontology.iri)
    body = [f"<h1>{title}</h1>\n"]
    body.append("<h2>Entity counts</h2>\n<table>\n")
    body.extend(f"<tr><td>{label}</td><td>{value}</td></tr>\n" for label, value in rows)
    body.append("</table>\n")
    body.append("<h2>Class hierarchy (inferred)</h2>\n")
    body.append(_tree_html(inferred, anchors))
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
        for entity in sorted(of_kind, key=lambda e: (e.iri.fragment, e.iri)):
            # Paths are made of safe characters only. The IRI's anchor links
            # to the page of its first entity; a punned IRI's others differ.
            path = paths[entity]
            link = (anchors[entity.iri] if anchors.links[entity.iri] == path
                    else f'<a href="{path}">{_escape(entity.iri.fragment)}</a>')
            body.append(f"<li>{link}</li>\n")
        body.append("</ul>\n")
    return SiteDocument("index.html", ontology.iri.value, _html_page(title, "".join(body)))


# ---------------------------------------------------------------------------
# Link verification
# ---------------------------------------------------------------------------

_HREF = re.compile(r'href="([^"]*)"')
# Links that point outside the site, or within the same page.
_NOT_CHECKED = ("http://", "https://", "mailto:", "file:", "#")


def verify_links(documents: tuple[SiteDocument, ...]) -> LinkReport:
    """Check every relative link against the set of document paths."""
    known = {doc.relative_path for doc in documents}
    total = 0
    broken: list[tuple[str, str]] = []
    for doc in sorted(documents, key=lambda d: d.relative_path):
        for target in _HREF.findall(doc.body):
            if target.startswith(_NOT_CHECKED):
                continue
            total += 1
            plain = target.split("#", 1)[0]
            if plain not in known:
                broken.append((doc.relative_path, target))
    return LinkReport(total_links=total, broken_links=len(broken),
                      broken_list=tuple(broken))
