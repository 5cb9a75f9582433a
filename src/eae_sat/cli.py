"""Command-line front end.

Each subcommand takes a sentence FILE and -o/--output PATH, plus only
the flags it reads; any other flag is a usage error:

  check    --json --timings --method --arity-cap
  model    --depth
  diff     --json --max-size --max-structures --arity-cap
  parse    --json
  brute    --json --max-size --max-structures
  certify  --cert

Exit codes: 10 = SAT, 20 = UNSAT, 0 = success for the non-verdict
commands (and diff agreement), 1 = usage error, 2 = parse or fragment
error, 3 = internal invariant breach or construction conflict, 4 =
certificate rejection or hard method disagreement.  When the oracle's
budget runs out, diff still prints its verdicts, then exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize, solver, structures, syntax
from .onetypes import ArityCapExceeded, DEFAULT_ARITY_CAP, render_one_type
from .solver import InternalInvariantError, check_certificate
from .structures import (
    ConstructionConflict, ModelTooLarge, OracleBudgetExceeded)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_DISAGREE = 4
EXIT_SAT = 10
EXIT_UNSAT = 20


class UsageError(Exception):
    pass


class _Help(Exception):
    """-h/--help was given; carries the help text for main's stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _validate_config(args):
    for name in ("max_structures", "arity_cap"):
        if getattr(args, name, 1) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be positive")
    if getattr(args, "depth", 0) < 0:
        raise UsageError("--depth must be nonnegative")
    if getattr(args, "max_size", 1) < 1:
        raise UsageError("--max-size must be at least 1")


class _Out:
    def __init__(self, path):
        self.path = path
        self.lines = []
        self.error = None  # raised by main once the report is written

    def write(self, text):
        self.lines.append(text)

    def flush(self, stdout):
        text = "".join(self.lines)
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            stdout.write(text)


def _verdict_line(outcome, sentence):
    sig = sentence.signature
    if outcome.verdict == "SAT":
        return (f"SAT (method={outcome.method}, "
                f"pi0={render_one_type(outcome.pi0, sig)})")
    return f"UNSAT (method={outcome.method})"


def cmd_check(sentence, args, out):
    outcome = solver.solve(sentence, args.method, args.arity_cap)
    if outcome.certificate is not None:
        bad = check_certificate(sentence, outcome.certificate)
        if bad:
            raise InternalInvariantError(
                "emitted certificate failed its self-check: " + "; ".join(bad))
    if args.json:
        out.write(serialize.dumps(
            serialize.outcome_to_json(outcome, sentence,
                                      with_timings=args.timings)))
    else:
        out.write(_verdict_line(outcome, sentence) + "\n")
    return EXIT_SAT if outcome.verdict == "SAT" else EXIT_UNSAT


def cmd_model(sentence, args, out):
    outcome = solver.gfp_solve(sentence)
    if outcome.verdict == "UNSAT":
        out.write("UNSAT: no model to build\n")
        return EXIT_UNSAT
    try:
        stages, glue = structures.build_model_sequence(
            sentence, outcome.certificate, args.depth)
    except ConstructionConflict as e:
        out.write(serialize.dumps(e.args[0]))
        return EXIT_INTERNAL
    out.write(serialize.dumps(serialize.staged_to_json(stages, glue, sentence)))
    return EXIT_OK


def cmd_diff(sentence, args, out):
    # one memo: game, and extended's plain eliminations and certificate,
    # reuse gfp's searches
    memo = solver.Memo(sentence)
    verdicts = {m: solver.solve(sentence, m, args.arity_cap, memo).verdict
                for m in solver.METHODS}
    try:
        model = structures.brute_force_search(
            sentence, args.max_size, budget=args.max_structures)
        oracle = (f"model of size {model.size}" if model is not None
                  else f"no model up to size {args.max_size}")
    except OracleBudgetExceeded as e:
        # the verdicts stand without the oracle; main exits 1 after them
        model, out.error = None, e
        oracle = f"budget exceeded after {e.count} structures"

    # gfp and game run one fixpoint through one memo, so they never
    # disagree; extended accepts a pi0 only after that elimination did,
    # so its SAT implies gfp's
    hard = []
    if model is not None:
        for method in solver.METHODS:
            if verdicts[method] == "UNSAT":
                hard.append(f"oracle found a model but {method} says UNSAT")

    exhausted = model is None and out.error is None  # no model in the bound
    divergence = (verdicts["extended"] == "UNSAT"
                  and verdicts["gfp"] == "SAT" and exhausted)
    inconclusive = exhausted and all(v == "SAT" for v in verdicts.values())

    if args.json:
        out.write(serialize.dumps({
            "verdicts": verdicts,
            "oracle": serialize.structure_to_json(model) if model else None,
            "oracle_bound": args.max_size,
            "oracle_error": oracle if out.error else None,
            "hard_disagreements": hard,
            "divergence": divergence,
        }))
    else:
        for method in solver.METHODS:
            out.write(f"{method:<9} {verdicts[method]}\n")
        out.write(f"oracle    {oracle}\n")
        for h in hard:
            out.write(f"DISAGREEMENT: {h}\n")
        if divergence:
            out.write("warning: extended departs from gfp/game; no oracle "
                      "model contradicts it within the bound\n")
        elif inconclusive:
            out.write("note: SAT verdicts unconfirmed by the oracle within "
                      "the bound\n")
    return EXIT_DISAGREE if hard else EXIT_OK


def cmd_parse(sentence, args, out):
    if args.json:
        out.write(serialize.dumps({
            "canonical": syntax.format_sentence(sentence),
            "z": sentence.z,
            "z_synthesized": sentence.z_synthesized,
            "x": sentence.x,
            "ys": list(sentence.ys),
            "signature": {n: a for n, a in sentence.signature},
        }))
    else:
        out.write(syntax.format_sentence(sentence) + "\n")
        sig = ", ".join(f"{n}/{a}" for n, a in sentence.signature)
        out.write(f"signature: {{{sig}}}\n")
        out.write(syntax.dump_matrix(sentence.matrix))
    return EXIT_OK


def cmd_brute(sentence, args, out):
    model = structures.brute_force_search(
        sentence, args.max_size, budget=args.max_structures)
    if model is None:
        out.write(f"no model up to size {args.max_size} "
                  "(larger models not ruled out)\n")
        return EXIT_UNSAT
    if args.json:
        out.write(serialize.dumps(serialize.structure_to_json(model)))
    else:
        out.write(f"model of size {model.size} found\n")
        out.write(serialize.dumps(serialize.structure_to_json(model)))
    return EXIT_SAT


def cmd_certify(sentence, args, out):
    try:
        with open(args.cert, encoding="utf-8-sig") as fh:
            cert = serialize.certificate_from_json(json.load(fh), sentence)
    except (KeyError, ValueError, TypeError, RecursionError) as e:
        out.write(f"malformed certificate: {e}\n")
        return EXIT_DISAGREE
    bad = check_certificate(sentence, cert)
    if bad:
        for v in bad:
            out.write(f"violation: {v}\n")
        return EXIT_DISAGREE
    out.write("certificate ok\n")
    return EXIT_OK


_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--timings": dict(action="store_true",
                      help="include wall-clock timings in JSON output"),
    "--method": dict(choices=solver.METHODS, default="gfp"),
    "--depth": dict(type=int, default=2, metavar="M"),
    "--max-size": dict(type=int, default=3, metavar="K"),
    "--max-structures": dict(type=int, default=10**7),
    "--arity-cap": dict(type=int, default=DEFAULT_ARITY_CAP),
    "--cert": dict(required=True, metavar="FILE"),
}

# name -> (function, help, the flags it reads besides FILE and -o)
_COMMANDS = {
    "check": (cmd_check, "decide satisfiability",
              ("--json", "--timings", "--method", "--arity-cap")),
    "model": (cmd_model, "build a staged model from a certificate",
              ("--depth",)),
    "diff": (cmd_diff, "run all methods plus the brute-force oracle",
             ("--json", "--max-size", "--max-structures", "--arity-cap")),
    "parse": (cmd_parse, "parse and dump the sentence", ("--json",)),
    "brute": (cmd_brute, "brute-force model search only",
              ("--json", "--max-size", "--max-structures")),
    "certify": (cmd_certify, "check a certificate file", ("--cert",)),
}


def _build_parser():
    p = _Parser(prog="eae-sat", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")
    for name, (_, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", help="sentence file (UTF-8, # comments)")
        sp.add_argument("-o", "--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


# built once per process: argparse.parse_args leaves the parser unchanged
_PARSER = _build_parser()


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        _validate_config(args)
    except _Help as e:
        stdout.write(str(e))
        return EXIT_OK
    except UsageError as e:
        stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE

    out = _Out(args.output)
    try:
        sentence = syntax.load_sentence(args.input)
        code = _COMMANDS[args.command][0](sentence, args, out)
        out.flush(stdout)
        if out.error:
            raise out.error
    except OSError as e:
        stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except (syntax.ParseError, syntax.FragmentError, UnicodeDecodeError) as e:
        stderr.write(f"error: {e}\n")
        return EXIT_PARSE
    except (ArityCapExceeded, ModelTooLarge, OracleBudgetExceeded) as e:
        stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except RecursionError:
        # the parser, evaluator and printer recurse on the matrix
        stderr.write("error: matrix nested too deeply\n")
        return EXIT_USAGE
    except (InternalInvariantError, structures.MissingStrategyEntry) as e:
        stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
