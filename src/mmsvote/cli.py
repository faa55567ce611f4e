"""Command-line front end.

Six subcommands mirror the library surface: ``shares`` (share values of
an instance file), ``run`` (execute a rule and audit the outcome),
``verify`` (audit an outcome or validate a violation certificate),
``attack`` (the scripted adaptive adversary), ``gen`` (instance
generators), and ``search`` (exhaustive or sampled counterexample
search).

Output is line-oriented with fixed prefixes so the acceptance suite can
scrape it; ``--json`` switches to the canonical JSON schemas. Rationals
print as ``p/q``, integers without a denominator. Exit codes: 0 for
success (including a clean "none" from search), 1 when something was
found (counterexample, exhausted attack, invalid certificate), 2 for
usage and validation errors, 3 when the exact search ran out of budget.
The parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .adversary import (
    CertificateError,
    ViolationCertificate,
    adaptive_attack,
    all_consensus,
    all_opposed,
    gen_ambiguity_instances,
    gen_mnw_gap,
    gen_named_examples,
)
from .model import PreferenceMatrix, parse_matrix, parse_outcome
from .rules import RULE_NAMES, run_rule
from .shares import SearchBudgetExceeded, share_report
from .verify import AuditReport, _ratio_text, audit, check_certificate, exhaustive_check

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """A flag combination the parser alone cannot reject."""


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


def _read_matrix(path: str) -> PreferenceMatrix:
    return parse_matrix(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _print_audit(report: AuditReport) -> None:
    print(f"utilities: {_ints(report.utilities)}")
    print(f"mms_adapt: {_ints(report.mms_adapt)}")
    print(f"alpha_adapt: {_ratio_text(report.alpha_adapt)}")
    print(f"alpha_egal: {_ratio_text(report.alpha_egal)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_shares(args: argparse.Namespace) -> int:
    report = share_report(_read_matrix(args.input))
    if args.json:
        print(report.to_json())
        return EXIT_OK
    print(f"mms_adapt: {_ints(report.mms_adapt)}")
    print(f"mms_egal: {report.mms_egal}")
    print(f"rds: {' '.join(_ratio_text(r) for r in report.rds)}")
    print(f"uniform_bound: {_ints(report.uniform_bound)}")
    if report.n3 is not None:
        print(f"n3_fine: {_ints(report.n3.fine)}")
        print(f"n3_coarse: {report.n3.coarse}")
        print(f"n3_min_bound: {report.n3.min_bound}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.input)
    transcript = run_rule(args.rule, matrix)
    report = audit(matrix, transcript.outcome)
    if args.transcript:
        Path(args.transcript).write_text(transcript.to_json(indent=2) + "\n")
    outcome = "".join(map(str, transcript.outcome))
    if args.json:
        blob = {
            "rule": transcript.rule,
            "outcome": outcome,
            "utilities": list(transcript.utilities),
            "alpha_adapt": _ratio_text(report.alpha_adapt),
            "alpha_egal": _ratio_text(report.alpha_egal),
        }
        print(json.dumps(blob))
        return EXIT_OK
    print(f"outcome: {outcome}")
    _print_audit(report)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.certificate is not None:
        if args.input is not None or args.outcome is not None:
            raise UsageError("--certificate excludes --input/--outcome")
        cert = ViolationCertificate.from_json(Path(args.certificate).read_text())
        ok = check_certificate(cert)
        if args.json:
            print(json.dumps({"valid": ok}))
        else:
            print("valid" if ok else "invalid")
        return EXIT_OK if ok else EXIT_FOUND
    if args.input is None or args.outcome is None:
        raise UsageError("need --input and --outcome, or --certificate")
    matrix = _read_matrix(args.input)
    outcome = parse_outcome(args.outcome, matrix.m)
    report = audit(matrix, outcome)
    if args.json:
        print(report.to_json())
    else:
        _print_audit(report)
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    result = adaptive_attack(args.rule, args.agents)
    found = isinstance(result, ViolationCertificate)
    _emit(json.dumps(result.to_dict(), indent=2), args.out)
    return EXIT_OK if found else EXIT_FOUND


_FIXED_INSTANCES = ("jr_vs_mms", "mms_vs_rds", "mnw_vs_mms")
_AMBIGUITY_INSTANCES = ("ambiguous-triple", "alpha2-heavy", "final-45")
GEN_NAMES = _FIXED_INSTANCES + _AMBIGUITY_INSTANCES + (
    "mnw-gap",
    "all-consensus",
    "all-opposed",
)


def _generate(args: argparse.Namespace) -> PreferenceMatrix:
    which = args.which
    if which in _FIXED_INSTANCES:
        return gen_named_examples()[which]
    if which in _AMBIGUITY_INSTANCES:
        return next(
            inst.matrix for inst in gen_ambiguity_instances() if inst.name == which
        )
    if which == "mnw-gap":
        if args.agents is None:
            raise UsageError("gen mnw-gap needs --agents")
        return gen_mnw_gap(args.agents)
    if args.agents is None or args.decisions is None:
        raise UsageError(f"gen {which} needs --agents and --decisions")
    if which == "all-consensus":
        return all_consensus(args.agents, args.decisions)
    return all_opposed(args.agents, args.decisions)


def _cmd_gen(args: argparse.Namespace) -> int:
    Path(args.out).write_text(_generate(args).to_text())
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--threshold takes a ratio like 3/4, not {args.threshold!r}") from None
    found = exhaustive_check(
        args.rule,
        args.agents,
        args.max_decisions,
        args.share,
        threshold=threshold,
        sample=args.sample,
        seed=args.seed,
    )
    if found is None:
        print("null" if args.json else "none")
        return EXIT_OK
    if args.json:
        print(found.to_json(indent=None))
    else:
        print(found.instance.to_text(), end="")
        print(f"outcome: {''.join(map(str, found.outcome))}")
        print(f"alpha: {_ratio_text(found.alpha)}")
    return EXIT_FOUND


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsvote",
        description="Share computation, voting rules, and fairness verification "
        "for sequences of binary decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shares = sub.add_parser("shares", help="share values of an instance file")
    shares.add_argument("--input", required=True, help="instance file")
    shares.add_argument("--json", action="store_true")
    shares.set_defaults(func=_cmd_shares)

    run = sub.add_parser("run", help="run a rule and audit its outcome")
    run.add_argument("--rule", required=True, help=f"one of: {', '.join(RULE_NAMES)}")
    run.add_argument("--input", required=True, help="instance file")
    run.add_argument("--transcript", help="write the full transcript JSON here")
    run.add_argument("--json", action="store_true")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="audit an outcome or check a certificate")
    verify.add_argument("--input", help="instance file")
    verify.add_argument("--outcome", help="outcome bit string")
    verify.add_argument("--certificate", help="violation certificate JSON file")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    attack = sub.add_parser("attack", help="run the adaptive adversary on a rule")
    attack.add_argument("--rule", required=True)
    attack.add_argument("--agents", type=int, required=True)
    attack.add_argument("--out", help="write the certificate here instead of stdout")
    attack.set_defaults(func=_cmd_attack)

    gen = sub.add_parser("gen", help="write a generated instance file")
    gen.add_argument("--which", required=True, choices=GEN_NAMES)
    gen.add_argument("--agents", type=int)
    gen.add_argument("--decisions", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    search = sub.add_parser("search", help="look for share-guarantee counterexamples")
    search.add_argument("--rule", required=True)
    search.add_argument("--agents", type=int, required=True)
    search.add_argument("--max-decisions", type=int, required=True)
    search.add_argument("--share", choices=("adapt", "egal"), default="adapt")
    search.add_argument("--threshold", default="1", help="target ratio, e.g. 3/4")
    search.add_argument("--sample", type=int, help="sample this many random instances")
    search.add_argument("--seed", type=int, help="RNG seed; needs --sample, and --sample needs it")
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
