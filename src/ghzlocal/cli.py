"""Command-line front end.

Subcommands: states, verify, probs, combinations, search, reproduce, export.
Exit codes: 0 success, 1 verification failed, 2 usage error, 3 I/O or parse
error.  Output is a human table by default; --format json (and, for
combinations, csv) switches to the machine schemas.  export writes only JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, TextIO, Union

from . import BUILTIN_SELECTORS
from .state_space import XY_SITES, _Value, _state_classes, partition_classes

if TYPE_CHECKING:
    from fractions import Fraction

    from .models import Model
    from .search import ExpectedCounts, SearchSpec

# each command imports the modules it runs, so a process compiles no others (tests/test_imports.py)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class CommandOutcome(_Value):
    _fields = ("exit_code", "payload")

    # payload: the whole output, or its lines, each written and flushed as it is produced
    def __init__(self, exit_code: int, payload: Union[str, Iterable[str]] = "") -> None:
        self._set(exit_code, payload)


def _read_json(path: str, what: str) -> Any:
    from .serialize import document_from_text
    try:
        return document_from_text(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a too long integer, too deep nesting
        raise InputError(f"invalid JSON in {path!r}: {exc}") from exc


def _load_model(source: str) -> Model:
    if source in BUILTIN_SELECTORS:
        if os.path.exists(source):
            raise UsageError(
                f"{source!r} is both a built-in model selector and a file;"
                f" write ./{source} for the file"
            )
        from .builtin import builtin_model
        return builtin_model(source)
    data = _read_json(source, "model")
    from .serialize import FormatError, model_from_json
    try:
        return model_from_json(data)
    except FormatError as exc:
        raise InputError(f"invalid model file {source!r}: {exc}") from exc


def _ascii_int(text: str) -> int:
    """A non-negative integer written in ASCII digits only: no sign, space or '_'."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)  # ValueError past Python's limit on an int string's digits
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects an integer in ASCII digits, got {text!r}")


# --------------------------------------------------------------------------- states


def cmd_states(args: argparse.Namespace) -> CommandOutcome:
    states = _state_classes()
    classes = partition_classes()
    if args.format == "json":
        from .serialize import SCHEMA_VERSION, document_to_text, microstate_to_json
        document = {
            "schema_version": SCHEMA_VERSION,
            "count": len(states),
            "states": [
                {"values": microstate_to_json(s), "element": el.value} for s, el in states
            ],
        }
        return CommandOutcome(EXIT_OK, document_to_text(document))
    lines = []
    if args.partition:
        for el, members in classes.items():
            lines.append(f"{el.value} ({len(members)} states)")
            lines.extend(f"  {s.label}" for s in members)
    else:
        lines.extend(f"{i:4d}  {s.label}  {el.value}" for i, (s, el) in enumerate(states, 1))
    # the classes are equal in size (tests/test_acceptance.py, criterion 1)
    lines.append(
        f"{len(states)} states in {len(classes)} partition elements"
        f" of {len(states) // len(classes)} states each"
    )
    return CommandOutcome(EXIT_OK, "\n".join(lines))


# --------------------------------------------------------------------------- verify


def _parse_expected_counts(text: str) -> ExpectedCounts:
    from .search import ExpectedCounts
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise UsageError(
            f"--counts expects 'MSPECS,COMBOS[,DDISTS]', got {text!r}"
        )
    try:
        numbers = [_ascii_int(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--counts {exc}") from exc
    return ExpectedCounts(
        m_specifications=numbers[0],
        combinations=numbers[1],
        d_distributions=numbers[2] if len(numbers) == 3 else None,
    )


def cmd_verify(args: argparse.Namespace) -> CommandOutcome:
    from .models import verify_ac, verify_dm
    model = _load_model(args.model)
    run_all = not (args.ac or args.dm or args.counts is not None)
    reports = []
    if args.ac or run_all:
        reports.append(verify_ac(model))
    if args.dm or run_all:
        reports.append(verify_dm(model))
    if args.counts is not None:
        from .search import verify_counts
        reports.append(verify_counts(model, _parse_expected_counts(args.counts)))
    ok = all(r.passed for r in reports)
    if args.format == "json":
        from .serialize import SCHEMA_VERSION, document_to_text, verification_report_to_json
        document = {
            "schema_version": SCHEMA_VERSION,
            "model": model.name,
            "pass": ok,
            "reports": [verification_report_to_json(r) for r in reports],
        }
        return CommandOutcome(EXIT_OK if ok else EXIT_VERIFICATION_FAILED, document_to_text(document))
    lines = [f"model: {model.name}"]
    for report in reports:
        status = "pass" if report.passed else f"FAIL ({len(report.failures)} failures)"
        extra = f", {len(report.skipped)} contexts skipped" if report.skipped else ""
        lines.append(f"{report.check}: {status}{extra}")
        for failure in report.failures[:10]:
            from .serialize import _failure_to_json  # a passing table loads no serialize
            lines.append(f"  {_failure_to_json(failure)}")
        if len(report.failures) > 10:
            lines.append(f"  ... and {len(report.failures) - 10} more")
    return CommandOutcome(EXIT_OK if ok else EXIT_VERIFICATION_FAILED, "\n".join(lines))


# --------------------------------------------------------------------------- probs


def cmd_probs(args: argparse.Namespace) -> CommandOutcome:
    from .models import UndefinedConditionalError, conditional_probability
    from .models import detection_probability, total_probability
    from .qm import OutcomeAssignment, outcome_assignments, qm_probability
    from .serialize import SCHEMA_VERSION, document_to_text, fraction_to_str
    from .serialize import parse_context_arg, parse_outcomes_arg
    model = _load_model(args.model)
    try:
        context = parse_context_arg(args.context)
    except ValueError as exc:
        raise UsageError(f"bad context {args.context!r}: {exc}") from exc
    if args.outcomes is not None:
        try:
            outcomes = parse_outcomes_arg(args.outcomes, context)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        assignments = [OutcomeAssignment(context, outcomes)]
    else:
        assignments = outcome_assignments(context)
    detection = detection_probability(model, context)
    rows = []
    for assign in assignments:
        try:
            conditional: Optional[Fraction] = conditional_probability(model, assign)
        except UndefinedConditionalError:
            conditional = None
        total = total_probability(model, assign)
        rows.append((assign, conditional, total, qm_probability(assign)))
    if args.format == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "model": model.name,
            "context": context.label,
            "detection": fraction_to_str(detection),
            "rows": [
                {
                    "outcomes": list(assign.outcomes),
                    "conditional": fraction_to_str(c) if c is not None else None,
                    "total": fraction_to_str(t),
                    "qm": fraction_to_str(q),
                }
                for assign, c, t, q in rows
            ],
        }
        return CommandOutcome(EXIT_OK, document_to_text(document))
    lines = [
        f"model: {model.name}  context: {context.label}",
        f"detection probability: {detection}",
        f"{'outcomes':<12} {'conditional':<12} {'total':<8} qm",
    ]
    for assign, conditional, total, qm_value in rows:
        outs = ",".join(f"{v:+d}" for v in assign.outcomes)
        cond = str(conditional) if conditional is not None else "-"
        lines.append(f"{outs:<12} {cond:<12} {str(total):<8} {qm_value}")
    return CommandOutcome(EXIT_OK, "\n".join(lines))


# --------------------------------------------------------------------------- combinations


def cmd_combinations(args: argparse.Namespace) -> CommandOutcome:
    from .models import combination_distribution
    from .serialize import combinations_to_csv, combinations_to_json, document_to_text
    model = _load_model(args.model)
    dist = combination_distribution(model)
    if args.format == "json":
        return CommandOutcome(EXIT_OK, document_to_text(combinations_to_json(model.name, dist)))
    if args.format == "csv":
        return CommandOutcome(EXIT_OK, combinations_to_csv(dist).rstrip("\n"))
    lines = [" ".join(f"{s.label:<3}" for s in XY_SITES) + f" {'probability':<12} triads"]
    for combo, mass in dist.rows():
        slots = " ".join(f"{s:<3}" for s in combo.slots)
        lines.append(f"{slots} {str(mass):<12} {combo.surviving_triads}")
    if dist.undetected:
        slots = " ".join(f"{'U':<3}" for _ in range(6))
        lines.append(f"{slots} {str(dist.undetected):<12} 0")
    lines.append(
        f"{len(dist.masses)} combinations, total mass {dist.total_mass}"
    )
    return CommandOutcome(EXIT_OK, "\n".join(lines))


# --------------------------------------------------------------------------- search


def cmd_search(args: argparse.Namespace) -> CommandOutcome:
    from .search import SearchSpec, UnboundedSearchError
    from .serialize import FormatError, search_spec_from_json
    data = _read_json(args.spec, "spec")
    try:
        spec = search_spec_from_json(data)
    except FormatError as exc:
        raise InputError(f"invalid search spec {args.spec!r}: {exc}") from exc
    if args.limit is not None:
        spec = SearchSpec(**dict(zip(spec._fields, spec._astuple()), limit=args.limit))
    try:
        spec.validate()
    except (UnboundedSearchError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return CommandOutcome(EXIT_OK, _search_lines(spec, args.format == "json"))


def _search_lines(spec: SearchSpec, as_json: bool) -> Iterator[str]:
    """One line per model as the search yields it, then the count."""
    from .models import census
    from .search import search_models
    from .serialize import SCHEMA_VERSION, document_to_text, model_to_json
    found = 0
    for found, model in enumerate(search_models(spec), start=1):
        if as_json:
            yield document_to_text(model_to_json(model), line=True)
        else:
            counts = census(model)
            yield (
                f"{model.name}: d-distributions={counts.d_distributions}"
                f" m-specifications={counts.m_specifications}"
                f" combinations={counts.combinations}"
            )
    if as_json:
        yield document_to_text({"schema_version": SCHEMA_VERSION, "models_found": found}, line=True)
    else:
        yield f"models found: {found}"


# --------------------------------------------------------------------------- reproduce


def cmd_reproduce(args: argparse.Namespace) -> CommandOutcome:
    if args.selector not in BUILTIN_SELECTORS:
        raise UsageError(
            f"unknown model selector {args.selector!r}; use one of {', '.join(BUILTIN_SELECTORS)}"
        )
    from .builtin import reproduce_section4
    report = reproduce_section4(args.selector)
    if args.format == "json":
        from .serialize import document_to_text, repro_report_to_json
        return CommandOutcome(
            EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED,
            document_to_text(repro_report_to_json(report)),
        )
    lines = [f"reproduction report: {report.model}"]
    lines.extend(check.line for check in report.checks)
    n_ok = sum(1 for c in report.checks if c.passed)
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'} ({n_ok}/{len(report.checks)} checks)")
    return CommandOutcome(EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED, "\n".join(lines))


# --------------------------------------------------------------------------- export


def cmd_export(args: argparse.Namespace) -> CommandOutcome:
    from .serialize import document_to_text, model_to_json
    model = _load_model(args.model)
    return CommandOutcome(EXIT_OK, document_to_text(model_to_json(model)))


# --------------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzlocal",
        description="Exact probability engine for finite local detection models of the GHZ experiment.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write output to a file")
    # a command's --format offers only the formats it writes
    table_json = argparse.ArgumentParser(add_help=False, parents=[common])
    table_json.add_argument("--format", choices=("table", "json"), default="table")
    with_csv = argparse.ArgumentParser(add_help=False, parents=[common])
    with_csv.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", parents=[table_json], help="list the 128 GHZ-compatible states")
    p.add_argument("--partition", action="store_true", help="group states by partition element")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("verify", parents=[table_json], help="verify a model (builtin name or JSON file)")
    p.add_argument("model")
    p.add_argument("--ac", action="store_true", help="check the adequacy condition")
    p.add_argument("--dm", action="store_true", help="check the detection-masking condition")
    p.add_argument("--counts", metavar="MSPECS,COMBOS[,DDISTS]", help="check census counts")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probs", parents=[table_json], help="detection/conditional/total probabilities")
    p.add_argument("model")
    p.add_argument("context", help="comma-separated sites, e.g. x1,y2,y3")
    p.add_argument("--outcomes", help="comma-separated signs, e.g. +1,-1,+1")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("combinations", parents=[with_csv], help="export the combination distribution")
    p.add_argument("model")
    p.set_defaults(func=cmd_combinations)

    p = sub.add_parser("search", parents=[table_json], help="search for models matching a spec file")
    p.add_argument("spec", help="path to a search-spec JSON document")
    p.add_argument("--limit", type=_ascii_int, help="emit at most this many models")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", parents=[table_json], help="recompute all published values for a builtin model")
    p.add_argument("selector", help="M3, M1 or M2")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("export", parents=[common], help="write a model as JSON")
    p.add_argument("model")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        outcome = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if outcome.payload:  # an iterable of lines is always written
        to_stdout = args.output is None  # an empty path is a path, and fails to open
        try:
            if to_stdout:
                _write(outcome.payload, sys.stdout)
            else:
                with open(args.output, "w", encoding="utf-8") as handle:
                    _write(outcome.payload, handle)
        except OSError as exc:
            if to_stdout:  # point stdout at /dev/null so that the flush at exit cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not to_stdout or not isinstance(exc, BrokenPipeError):  # a reader may stop early: `search ... | head`
                where = "to stdout" if to_stdout else repr(args.output)
                print(f"error: cannot write {where}: {exc}", file=sys.stderr)
            return EXIT_IO
    return outcome.exit_code


def _write(payload: Union[str, Iterable[str]], stream: TextIO) -> None:
    for line in [payload] if isinstance(payload, str) else payload:
        print(line, file=stream, flush=True)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
