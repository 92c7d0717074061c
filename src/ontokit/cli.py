"""Command-line interface.

Subcommands: check, classify, diff, probe, stats, query, site. Exit codes:
0 success, 1 semantic finding (inconsistency, unsatisfiable concept, broken
link, unsatisfiable probe), 2 parse or usage error, 3 resource limit
exceeded. Output is deterministic; --format json emits the stable schemas
documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .analysis import (
    CompetencyQuery,
    ProbeNameCollisionError,
    QueryKind,
    TaxonomyMismatchError,
    UnknownEntityError,
    answer_competency_query,
    asserted_taxonomy,
    diff_taxonomies,
    parse_probe_file,
    run_probes,
)
from .disease import published_reference
from .model import (
    Iri,
    Ontology,
    UndeclaredEntityError,
    compute_counts,
    signature,
)
from .parser import ParseError, parse
from .reasoner import (
    DEFAULT_LIMITS,
    InconsistentOntologyError,
    ReasonerLimits,
    ResourceLimitExceeded,
    Taxonomy,
    classify,
    entailed_types,
    is_consistent,
)
from .sitegen import generate_site, verify_links

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep full control of the exit code
        raise _UsageError(message)


# Built on the first `run`, not at import, and kept for the process:
# building costs about 1.5 ms, and parse_args leaves the parser unchanged.
@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="ontokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="ontology file (.ofn)")
        p.add_argument("--strict", action="store_true",
                       help="require explicit declarations for every entity")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_LIMITS.max_nodes)
        p.add_argument("--max-branch-depth", type=int,
                       default=DEFAULT_LIMITS.max_branch_depth)
        p.add_argument("--max-steps", type=int, default=DEFAULT_LIMITS.max_steps,
                       help="bound on each tableau run's work: concepts added "
                            "to labels, nodes created and graph copies")
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("check", help="parse and check consistency"))
    common(sub.add_parser("classify", help="print the inferred taxonomy"))
    common(sub.add_parser("diff", help="asserted vs inferred hierarchy diff"))
    probe = sub.add_parser("probe", help="run probe classes from a file")
    common(probe)
    probe.add_argument("--probes", required=True, help="probe specification file")
    probe.add_argument("--expect-unsat", action="store_true",
                       help="succeed when every probe is unsatisfiable")
    common(sub.add_parser("stats", help="print entity counts"))
    query = sub.add_parser("query", help="answer a retrieval query")
    common(query)
    query.add_argument("--kind", required=True,
                       choices=[k.value for k in QueryKind])
    query.add_argument("--subject", required=True,
                       help="entity name (IRI fragment) or full IRI")
    query.add_argument("--role", help="role name, for FillersOf")
    site = sub.add_parser("site", help="generate the hyperlinked website")
    common(site)
    site.add_argument("--out", required=True, help="output directory")
    return parser


def _load(args) -> Ontology:
    if not os.path.exists(args.input):
        raise FileNotFoundError(args.input)
    with open(args.input, encoding="utf-8") as handle:
        return parse(handle.read(), strict=args.strict)


def _limits(args) -> ReasonerLimits:
    return ReasonerLimits(max_nodes=args.max_nodes,
                          max_branch_depth=args.max_branch_depth,
                          max_steps=args.max_steps)


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _resolve_iri(ontology: Ontology, name: str) -> Iri:
    if name.startswith("http://") or name.startswith("https://"):
        return Iri(name)
    matches = sorted({e.iri for e in signature(ontology) if e.iri.fragment == name},
                     key=lambda iri: iri.value)
    if not matches:
        raise UnknownEntityError(f"unknown entity name: {name}")
    return matches[0]


def _taxonomy_payload(taxonomy: Taxonomy) -> dict:
    groups = []
    for index, members in enumerate(taxonomy.groups):
        kind = {Taxonomy.TOP: "top", Taxonomy.BOTTOM: "bottom"}.get(index, "named")
        groups.append({"id": index, "kind": kind,
                       "members": [iri.value for iri in members]})
    links = [{"child": child, "parent": parent} for child, parent in taxonomy.edges]
    return {"groups": groups, "links": links}


def _tree_lines(taxonomy: Taxonomy) -> list[str]:
    lines: list[str] = ["⊤"]

    def label(group: int) -> str:
        members = taxonomy.members(group)
        text = " ≡ ".join(iri.fragment for iri in members)
        parents = [p for p in taxonomy.parents_of(group)]
        named_parents = sorted(
            iri.fragment for p in parents for iri in taxonomy.members(p)
        )
        if len(named_parents) > 1:
            text += f" [parents: {', '.join(named_parents)}]"
        return text

    def walk(group: int, depth: int) -> None:
        for child in taxonomy.children_of(group):
            if child == Taxonomy.BOTTOM and not taxonomy.members(child):
                continue
            text = label(child) if taxonomy.members(child) else "⊥"
            lines.append("  " * depth + text)
            walk(child, depth + 1)

    walk(Taxonomy.TOP, 1)
    bottom = taxonomy.members(Taxonomy.BOTTOM)
    if bottom:
        lines.append("unsatisfiable: " + ", ".join(iri.fragment for iri in bottom))
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    ontology = _load(args)
    consistent = is_consistent(ontology, _limits(args))
    _emit(args, [f"consistent: {'true' if consistent else 'false'}"],
          {"consistent": consistent})
    return EXIT_OK if consistent else EXIT_FINDING


def _cmd_classify(args) -> int:
    ontology = _load(args)
    taxonomy = classify(ontology, _limits(args))
    _emit(args, _tree_lines(taxonomy), {"taxonomy": _taxonomy_payload(taxonomy)})
    return EXIT_FINDING if taxonomy.members(Taxonomy.BOTTOM) else EXIT_OK


def _cmd_diff(args) -> int:
    ontology = _load(args)
    inferred = classify(ontology, _limits(args))
    asserted = asserted_taxonomy(ontology)
    diff = diff_taxonomies(asserted, inferred)
    lines = []
    for child, parent in diff.added_parent_links:
        lines.append(f"added-parent: {child.fragment} -> {parent.fragment}")
    for child, parent in diff.removed_parent_links:
        lines.append(f"removed-parent: {child.fragment} -> {parent.fragment}")
    for left, right in diff.new_equivalences:
        lines.append(f"new-equivalence: {left.fragment} == {right.fragment}")
    if not lines:
        lines = ["no differences"]
    payload = {
        "addedParentLinks": [{"child": c.value, "parent": p.value}
                             for c, p in diff.added_parent_links],
        "removedParentLinks": [{"child": c.value, "parent": p.value}
                               for c, p in diff.removed_parent_links],
        "newEquivalences": [{"first": a.value, "second": b.value}
                            for a, b in diff.new_equivalences],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_probe(args) -> int:
    ontology = _load(args)
    if not os.path.exists(args.probes):
        raise FileNotFoundError(args.probes)
    with open(args.probes, encoding="utf-8") as handle:
        probes = parse_probe_file(handle.read())
    results = run_probes(ontology, probes, _limits(args))
    lines = []
    for result in results:
        verdict = "SATISFIABLE" if result.satisfiable else "UNSATISFIABLE"
        supers = ", ".join(result.probe.supers)
        lines.append(f"{result.probe.name} ({supers}): {verdict}")
    payload = {
        "probes": [
            {"name": r.probe.name, "superclasses": list(r.probe.supers),
             "satisfiable": r.satisfiable}
            for r in results
        ]
    }
    _emit(args, lines, payload)
    any_unsat = any(not r.satisfiable for r in results)
    if args.expect_unsat:
        return EXIT_OK if all(not r.satisfiable for r in results) else EXIT_FINDING
    return EXIT_FINDING if any_unsat else EXIT_OK


def _cmd_stats(args) -> int:
    ontology = _load(args)
    counts = compute_counts(ontology)
    fields = [
        ("concepts", counts.concepts),
        ("concepts-including-top", counts.concepts_including_top),
        ("object-roles", counts.object_roles),
        ("data-roles", counts.data_roles),
        ("annotation-roles", counts.annotation_roles),
        ("individuals", counts.individuals),
        ("datatypes", counts.datatypes),
    ]
    lines = [f"{name}: {value}" for name, value in fields]
    payload: dict = {
        "counts": {
            "concepts": counts.concepts,
            "conceptsIncludingTop": counts.concepts_including_top,
            "objectRoles": counts.object_roles,
            "dataRoles": counts.data_roles,
            "annotationRoles": counts.annotation_roles,
            "individuals": counts.individuals,
            "datatypes": counts.datatypes,
        },
        "deviations": [],
    }
    reference = published_reference().get(ontology.iri.value)
    if reference:
        actual = {
            "concepts_including_top": counts.concepts_including_top,
            "object_roles": counts.object_roles,
            "data_roles": counts.data_roles,
            "annotation_roles": counts.annotation_roles,
            "individuals": counts.individuals,
            "datatypes": counts.datatypes,
        }
        for key in sorted(reference):
            if actual.get(key) != reference[key]:
                lines.append(
                    f"deviation: {key.replace('_', '-')} {actual.get(key)} != "
                    f"published {reference[key]}")
                payload["deviations"].append({
                    "field": key,
                    "actual": actual.get(key),
                    "published": reference[key],
                })
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_query(args) -> int:
    ontology = _load(args)
    kind = QueryKind(args.kind)
    subject = _resolve_iri(ontology, args.subject)
    role: Optional[Iri] = None
    if kind is QueryKind.FILLERS_OF:
        if not args.role:
            raise _UsageError("--role is required for FillersOf")
        role = _resolve_iri(ontology, args.role)
    elif args.role:
        raise _UsageError("--role is only valid for FillersOf")
    query = CompetencyQuery(kind=kind, subject=subject, role=role)
    results = answer_competency_query(query, ontology, _limits(args))
    lines = [iri.fragment for iri in results] or ["(no results)"]
    payload = {
        "kind": kind.value,
        "subject": subject.value,
        "role": role.value if role else None,
        "results": [iri.value for iri in results],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_site(args) -> int:
    ontology = _load(args)
    limits = _limits(args)
    inferred = classify(ontology, limits)
    try:
        realization = entailed_types(ontology, limits)
    except InconsistentOntologyError:
        realization = {}
    documents = generate_site(ontology, inferred, inferred, realization)
    os.makedirs(args.out, exist_ok=True)
    for doc in documents:
        with open(os.path.join(args.out, doc.relative_path), "w",
                  encoding="utf-8") as handle:
            handle.write(doc.body)
    report = verify_links(documents)
    lines = [
        f"wrote {len(documents)} documents to {args.out}",
        f"links: {report.total_links} total, {report.broken_links} broken",
    ]
    for source, target in report.broken_list:
        lines.append(f"broken: {source} -> {target}")
    payload = {
        "documents": len(documents),
        "outputDir": args.out,
        "links": report.total_links,
        "brokenLinks": report.broken_links,
        "broken": [{"source": s, "target": t} for s, t in report.broken_list],
    }
    _emit(args, lines, payload)
    return EXIT_OK if report.broken_links == 0 else EXIT_FINDING


_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "diff": _cmd_diff,
    "probe": _cmd_probe,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "site": _cmd_site,
}


def run(argv: list[str]) -> int:
    """Run the CLI; every outcome maps to exactly one exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"ontokit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"ontokit: error: no such file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"ontokit: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UndeclaredEntityError, UnknownEntityError, ProbeNameCollisionError,
            TaxonomyMismatchError, ValueError) as exc:
        print(f"ontokit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentOntologyError as exc:
        print(f"ontokit: error: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except ResourceLimitExceeded as exc:
        print(f"ontokit: resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
