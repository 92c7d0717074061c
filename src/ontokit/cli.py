"""Command-line interface.

Subcommands: check, classify, diff, probe, stats, query, site. Exit codes:
0 success, 1 semantic finding (inconsistency, unsatisfiable concept, broken
link, unsatisfiable probe), 2 parse, usage or file error, 3 resource limit
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
from .model import (
    Iri,
    Ontology,
    UndeclaredEntityError,
    compute_counts,
    published_reference,
    signature,
)
from .parser import ParseError, parse_file
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
    return parse_file(args.input, strict=args.strict)


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
    match = min((e.iri for e in signature(ontology) if e.iri.fragment == name), default=None)
    if match is None:
        raise UnknownEntityError(f"unknown entity name: {name}")
    return match


def _taxonomy_payload(taxonomy: Taxonomy) -> dict:
    groups = []
    for index, members in enumerate(taxonomy.groups):
        kind = {Taxonomy.TOP: "top", Taxonomy.BOTTOM: "bottom"}.get(index, "named")
        groups.append({"id": index, "kind": kind,
                       "members": list(members)})
    links = [{"child": child, "parent": parent} for child, parent in taxonomy.edges]
    return {"groups": groups, "links": links}


def _tree_lines(taxonomy: Taxonomy) -> list[str]:
    lines: list[str] = []
    for depth, group in taxonomy.tree():
        if group == Taxonomy.TOP:
            lines.append("⊤")
            continue
        text = " ≡ ".join(iri.fragment for iri in taxonomy.members(group))
        named_parents = sorted(iri.fragment for p in taxonomy.parents_of(group)
                               for iri in taxonomy.members(p))
        if len(named_parents) > 1:
            text += f" [parents: {', '.join(named_parents)}]"
        lines.append("  " * depth + text)
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
        "addedParentLinks": [{"child": c, "parent": p}
                             for c, p in diff.added_parent_links],
        "removedParentLinks": [{"child": c, "parent": p}
                               for c, p in diff.removed_parent_links],
        "newEquivalences": [{"first": a, "second": b}
                            for a, b in diff.new_equivalences],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_probe(args) -> int:
    ontology = _load(args)
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
    # (text name, JSON key, published-reference key, value)
    rows = [
        ("concepts", "concepts", None, counts.concepts),
        ("concepts-including-top", "conceptsIncludingTop", "concepts_including_top",
         counts.concepts_including_top),
        ("object-roles", "objectRoles", "object_roles", counts.object_roles),
        ("data-roles", "dataRoles", "data_roles", counts.data_roles),
        ("annotation-roles", "annotationRoles", "annotation_roles", counts.annotation_roles),
        ("individuals", "individuals", "individuals", counts.individuals),
        ("datatypes", "datatypes", "datatypes", counts.datatypes),
    ]
    lines = [f"{name}: {value}" for name, _, _, value in rows]
    payload: dict = {"counts": {key: value for _, key, _, value in rows}, "deviations": []}
    reference = published_reference().get(ontology.iri)
    if reference:
        actual = {key: value for _, _, key, value in rows if key is not None}
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
        "subject": subject,
        "role": role,
        "results": results,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_site(args) -> int:
    ontology = _load(args)
    limits = _limits(args)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before any reasoning
    inferred = classify(ontology, limits)
    try:
        realization = entailed_types(ontology, limits)
    except InconsistentOntologyError:
        realization = {}
    documents = generate_site(ontology, inferred, inferred, realization)
    # Each page is written over its old bytes and then cut to length, rather
    # than opened with "w": truncating a page to zero before rewriting it is
    # ext4's replace-via-truncate pattern, which allocates and starts
    # writeback at close, and re-publishing into the same directory is the
    # usual call. The bytes and the mode (0o666 minus the umask) are those
    # "w" would give; a publish cut short is mended by running it again.
    for doc in documents:
        fd = os.open(os.path.join(args.out, doc.relative_path),
                     os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as handle:
            handle.write(doc.body.encode("utf-8"))
            handle.truncate()
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
    except OSError as exc:  # a path that is missing, a directory, or a file
        print(f"ontokit: error: {exc}", file=sys.stderr)
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
