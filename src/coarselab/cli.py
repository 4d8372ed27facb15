"""Command-line entry point.

Subcommands: check (axiom suites), asdim (dimension reports), near
(near-collection queries), bunch (non-extension certificates), map
(structure-map verification), mine (counterexample search).

Exit codes: 0 all checks pass / all queries decided; 1 a property
failed, with a witness in the report; 2 schema error; 3 a resource cap
was exceeded; 4 verdicts dominated by Unknown (budget exhausted).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode

from . import __version__
from .backends import NearnessQuery, nearness_of, sampled_line_axiom_report
from .dimension import asdim_explicit, asdim_topo_line_report, is_uniformly_bounded
from .documents import (
    InstanceDocument,
    SchemaError,
    _family,
    as_object,
    build_asr,
    build_backend,
    build_coarse,
    build_cover,
    build_line_sets,
    build_map,
    build_nearness,
    build_proximity,
    load_document,
    objects,
)
from .maps import is_lsr_map, is_ls_equivalence
from .mining import mine_nearness_product_failures, mine_non_ls_regular
from .nearness_lab import ObstructionBudgetExhausted, ObstructionRejected, bunch_obstruction
from .setcore import CapExceeded
from .structures import (
    check_asr_axioms,
    check_coarse,
    check_lsr_axioms,
    check_nearness_axioms,
    check_proximity_axioms,
    is_ls_regular,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_UNKNOWN = 4

_INF = float("inf")
_CONTAINERS = (list, tuple, dict)


@dataclass
class Report:
    command: str
    lines: list[str] = field(default_factory=list)
    payload: list[dict] = field(default_factory=list)
    failed: bool = False
    unknown: bool = False

    def add(self, text: str, **data) -> None:
        self.lines.append(text)
        if data:
            self.payload.append(data)

    def record(self, verdict_outcome: str) -> None:
        if verdict_outcome == "no":
            self.failed = True
        elif verdict_outcome == "unknown":
            self.unknown = True

    def exit_code(self) -> int:
        if self.failed:
            return EXIT_FAIL
        if self.unknown:
            return EXIT_UNKNOWN
        return EXIT_OK

    def render(self, as_json: bool) -> str:
        if as_json:
            return json_text(
                {
                    "version": __version__,
                    "command": self.command,
                    "lines": self.lines,
                    "details": self.payload,
                    "exit": self.exit_code(),
                }
            )
        return "\n".join([f"coarselab {__version__} :: {self.command}"] + self.lines)


def json_text(value) -> str:
    """The text ``json.dumps`` writes with ``sort_keys=True`` and
    ``indent=2``, byte for byte.

    Before Python 3.13 any ``indent`` makes ``json`` drop its C encoder
    for a generator-based Python one; this writer appends to one list
    and joins it once.  Like ``json.dumps`` it writes tuples as lists,
    and it raises ``TypeError`` on a value or key of a type that
    ``json`` does not write.
    """
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(container, newline: str, out: list[str]) -> None:
    """Append the text of a list, tuple or dict whose closing bracket
    follows ``newline``; its items go one indent further in."""
    if not container:
        out.append("{}" if isinstance(container, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(container, dict):
        head, close = "{" + inner, newline + "}"
        for key, item in sorted(container.items()):
            head += _encode(key if isinstance(key, str) else _scalar(key)) + ": "
            if type(item) is int:
                out.append(head + int.__repr__(item))
            elif isinstance(item, _CONTAINERS):
                out.append(head)
                _write(item, inner, out)
            else:
                out.append(head + _scalar(item))
            head = "," + inner
    else:
        head, close = "[" + inner, newline + "]"
        for item in container:
            if type(item) is int:
                out.append(head + int.__repr__(item))
            elif isinstance(item, _CONTAINERS):
                out.append(head)
                _write(item, inner, out)
            else:
                out.append(head + _scalar(item))
            head = "," + inner
    out.append(close)


def _scalar(value) -> str:
    """The JSON text of a str, None, bool, int or float, as ``json`` writes it."""
    if isinstance(value, str):
        return _encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load(args) -> InstanceDocument:
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = load_document(fh.read())
    if getattr(args, "scale", None) is not None:
        doc.budgets["scale"] = args.scale
    if getattr(args, "window", None) is not None:
        doc.budgets["window"] = args.window
    return doc


def _report_check(report: Report, name: str, check) -> None:
    for result in check.results:
        report.add(f"  {name}: {result}")
        if not result.passed:
            report.failed = True
            report.payload.append({"structure": name, "axiom": result.axiom, "witness": dict(result.witness)})


def cmd_check(args) -> int:
    doc = _load(args)
    report = Report("check")
    for desc in doc.structures:
        name = desc.get("name", desc["type"])
        kind = desc["type"]
        if kind in ("lsr-explicit", "partition", "from-asr"):
            backend = build_backend(doc, desc)
            lsr = backend.to_explicit()
            _report_check(report, name, check_lsr_axioms(lsr))
            regular, witness = is_ls_regular(lsr)
            report.add(f"  {name}: LS-regular: {str(regular).lower()}")
            if not regular:
                report.payload.append({"structure": name, "ls_regular_witness": witness})
            if kind == "from-asr":
                _report_check(report, name, check_asr_axioms(build_asr(doc, desc)))
        elif kind in ("metric-line", "topo-trace"):
            backend = build_backend(doc, desc)
            _report_check(
                report, name, sampled_line_axiom_report(backend, seed=args.seed)
            )
        elif kind == "nearness-explicit":
            _report_check(report, name, check_nearness_axioms(build_nearness(doc, desc)))
        elif kind == "proximity":
            _report_check(report, name, check_proximity_axioms(build_proximity(doc, desc)))
        elif kind == "coarse":
            _, rep = check_coarse(build_coarse(doc, desc))
            _report_check(report, name, rep)
        else:
            raise SchemaError(f"unknown structure type {kind!r}")
    report.add("all-pass" if not report.failed else "FAILURES FOUND")
    print(report.render(args.json))
    return report.exit_code()


def cmd_asdim(args) -> int:
    doc = _load(args)
    report = Report("asdim")
    for desc in doc.structures:
        name = desc.get("name", desc["type"])
        kind = desc["type"]
        if kind in ("lsr-explicit", "partition", "from-asr"):
            backend = build_backend(doc, desc)
            res = asdim_explicit(backend)
            report.add(
                f"  {name}: asdim = {res.value} "
                f"({res.uniformly_bounded_covers} uniformly bounded covers)"
            )
            report.payload.append({"structure": name, **res.to_json()})
        elif kind == "topo-trace":
            rep = asdim_topo_line_report(doc.asdim_windows)
            for row in rep.rows:
                report.add(
                    f"  {name}: window {row.window}: intervals {row.interval_count}, "
                    f"multiplicity {row.multiplicity}, uniformly bounded "
                    f"{str(row.uniformly_bounded).lower()}, forced mult-1 member size "
                    f"{row.mult1_forced_member_size}"
                )
            report.add(f"  {name}: {rep.conclusion()}")
            report.payload.append({"structure": name, **rep.to_json()})
            if not rep.certified:
                report.failed = True
        else:
            report.add(f"  {name}: no dimension procedure for {kind}")
    for i, cdesc in enumerate(objects(doc.covers, "covers")):
        cover = build_cover(doc, cdesc)
        cname = cdesc.get("name", f"cover-{i}")
        for desc in doc.structures:
            backend = build_backend(doc, desc)
            try:
                verdict = is_uniformly_bounded(cover, backend)
            except ValueError:
                continue
            sname = desc.get("name", desc["type"])
            report.add(f"  {cname} on {sname}: uniformly bounded: {verdict}")
            report.payload.append(
                {"cover": cname, "structure": sname, "uniformly_bounded": verdict.to_json()}
            )
    print(report.render(args.json))
    return report.exit_code()


def cmd_near(args) -> int:
    doc = _load(args)
    report = Report("near")
    queries = doc.queries.get("near", [])
    if not queries:
        raise SchemaError("document has no near queries")
    for i, q in enumerate(objects(queries, "queries.near")):
        if "sets" in q:
            backend = _line_backend(doc, q)
            sets = build_line_sets(q["sets"])
            verdict = nearness_of(
                NearnessQuery(
                    backend, sets, scale_budget=doc.scale_budget, window=doc.window
                )
            )
        else:
            missing = [key for key in ("structure", "family") if key not in q]
            if missing:
                raise SchemaError(f"near query {i} has no {missing[0]!r}")
            desc = doc.structure(q["structure"])
            backend = build_backend(doc, desc)
            verdict = nearness_of(NearnessQuery(backend, _family(doc.universe(), q["family"])))
        report.add(f"  query {i}: {verdict}")
        report.payload.append({"query": i, **verdict.to_json()})
        report.record(verdict.outcome)
    print(report.render(args.json))
    code = report.exit_code()
    return EXIT_OK if code == EXIT_FAIL else code  # a decided No answers the query


def _line_backend(doc: InstanceDocument, query: dict):
    wanted = query.get("structure")
    for desc in doc.structures:
        if desc["type"] in ("metric-line", "topo-trace") and (
            wanted is None or desc.get("name") == wanted
        ):
            return build_backend(doc, desc)
    from .backends import MetricLineBackend

    return MetricLineBackend(scale_budget=doc.scale_budget, window=doc.window)


def cmd_bunch(args) -> int:
    doc = _load(args)
    report = Report("bunch")
    queries = doc.queries.get("bunch", [])
    if not queries:
        raise SchemaError("document has no bunch queries")
    for i, q in enumerate(objects(queries, "queries.bunch")):
        if "sets" not in q:
            raise SchemaError(f"bunch query {i} has no 'sets'")
        sets = build_line_sets(q["sets"])
        try:
            cert = bunch_obstruction(
                sets, scale_budget=doc.scale_budget, window=doc.window
            )
        except ObstructionBudgetExhausted as e:
            report.add(f"  query {i}: unknown: {e}")
            report.payload.append({"query": i, "unknown": str(e)})
            report.unknown = True
            continue
        except ObstructionRejected as e:
            report.add(f"  query {i}: rejected: {e}")
            report.payload.append({"query": i, "rejected": str(e)})
            report.failed = True
            continue
        report.add(
            f"  query {i}: obstruction complete at scales 0..{cert.scale_budget}, "
            f"window {cert.window}"
        )
        report.payload.append({"query": i, "certificate": cert.to_json()})
    print(report.render(args.json))
    return report.exit_code()


def cmd_map(args) -> int:
    doc = _load(args)
    report = Report("map")
    if not doc.maps:
        raise SchemaError("document has no maps")
    for i, desc in enumerate(objects(doc.maps, "maps")):
        f = build_map(doc, desc)
        verdict = is_lsr_map(f)
        report.add(f"  map {i}: structure map: {verdict}")
        report.payload.append({"map": i, "structure_map": verdict.to_json()})
        report.record(verdict.outcome)
        if "inverse" in desc:
            inverse = as_object(desc["inverse"], f"maps[{i}].inverse")
            g = build_map(doc, {**inverse, "domain": desc.get("codomain"), "codomain": desc.get("domain")})
            ev = is_ls_equivalence(f, g)
            report.add(f"  map {i}: equivalence with inverse: {ev}")
            report.payload.append({"map": i, "equivalence": ev.to_json()})
            report.record(ev.outcome)
    print(report.render(args.json))
    return report.exit_code()


def cmd_mine(args) -> int:
    report = Report("mine")
    if args.target == "non-ls-regular":
        findings = mine_non_ls_regular(max_size=args.max_size, seed=args.seed)
    elif args.target == "nearness-product-failure":
        findings = mine_nearness_product_failures(max_size=args.max_size)
    else:
        raise SchemaError(f"unknown mining target {args.target!r}")
    for f in findings:
        report.add(f"  {f.target}: {f.description}")
        report.payload.append(f.to_json())
    report.add(f"findings: {len(findings)}")
    print(report.render(args.json))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="coarselab",
        description="verified computations on large-scale set-family structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("asdim", cmd_asdim),
        ("near", cmd_near),
        ("bunch", cmd_bunch),
        ("map", cmd_map),
    ):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--scale", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
    pm = sub.add_parser("mine")
    pm.add_argument(
        "--target",
        required=True,
        choices=["non-ls-regular", "nearness-product-failure"],
    )
    pm.add_argument("--max-size", type=int, default=3)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(fn=cmd_mine)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except FileNotFoundError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
