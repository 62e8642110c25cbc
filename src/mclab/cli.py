"""Command-line interface: thin subcommand wrappers over ``run``.

Every subcommand loads a document, builds the one directive it stands for,
and executes it through the same path the ``run { ... }`` blocks use, so the
CLI cannot drift from the language.  Reports go to stdout — human-readable
by default, machine format under ``--json``.  Exit codes: 0 all verdicts
hold, 1 a checked property is false, 2 input/usage error, 3 a required
construction does not exist, 4 an internal cross-check failed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ParseError
from .parser import Directive, load
from .report import to_machine, to_text
from .run import BAD_INPUT, run_directives


class _Exit(Exception):
    """Abort the command with a code; main() turns this into a return."""

    def __init__(self, code):
        self.code = code


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read %s: %s" % (path, exc), file=sys.stderr)
        raise _Exit(BAD_INPUT)
    try:
        return load(text)
    except ParseError as exc:
        print("%s: %s" % (path, exc), file=sys.stderr)
        raise _Exit(BAD_INPUT)


def _emit(outcome, as_json):
    trees = outcome.trees
    if as_json:
        payload = trees if len(trees) != 1 else trees[0]
        sys.stdout.write(to_machine(payload))
    else:
        for i, tree in enumerate(trees):
            if i:
                sys.stdout.write("\n")
            sys.stdout.write(to_text(tree))
    return outcome.code


def _single(args, kind, extra):
    env = _load(args.file)
    directive = Directive(kind, extra, 0, 0)
    return _emit(run_directives(env, [directive]), args.json)


def _split_list(text):
    return [x for x in (piece.strip() for piece in text.split(",")) if x]


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every call."""
    ap = argparse.ArgumentParser(
        prog="mclab",
        description="Exhaustive checks for marked finite categories: "
        "factorization systems, premodels, weak models, localizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="document to load")
        p.add_argument("--json", action="store_true", help="machine report format")
        return p

    p = cmd("validate", help="validate a category, premodel, adjunction, or cylinder")
    p.add_argument("name", nargs="?", help="defaults to every category in the document")

    p = sub.add_parser("check", help="check wfs / premodel / weakmodel on a premodel")
    p.add_argument("what", choices=["wfs", "premodel", "weakmodel"])
    p.add_argument("file", help="document to load")
    p.add_argument("name")
    p.add_argument("--json", action="store_true", help="machine report format")

    p = cmd("saturate", help="saturate a premodel")
    p.add_argument("name")
    p.add_argument("--mode", choices=["L", "Lc", "R", "Rc"], required=True)

    p = sub.add_parser("localize", help="Bousfield localization")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("file", help="document to load")
    p.add_argument("name")
    p.add_argument("--at", help="comma-separated arrows (left)")
    p.add_argument("--by", help="adjunction name (right)")
    p.add_argument("--into", help="target premodel (right)")
    p.add_argument("--mode", choices=["L", "Lc", "R", "Rc"], required=True)
    p.add_argument("--json", action="store_true", help="machine report format")

    p = cmd("hocat", help="homotopy category of a premodel")
    p.add_argument("name")

    p = cmd("equiv", help="is an arrow a weak equivalence?")
    p.add_argument("name")
    p.add_argument("arrow")

    p = cmd("classify", help="full recognition ladder")
    p.add_argument("name")

    p = cmd("dualize", help="opposite premodel with swapped classes")
    p.add_argument("name")

    p = cmd("olschok", help="generate a model structure from a cylinder")
    p.add_argument("name")
    p.add_argument("--cylinder", required=True)
    p.add_argument("--seeds", help="comma-separated localizer arrows")

    cmd("run", help="execute the document's run block")
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _Exit as stop:
        return stop.code


def _dispatch(args):
    if args.command == "run":
        env = _load(args.file)
        return _emit(run_directives(env, env.directives), args.json)
    if args.command == "validate":
        env = _load(args.file)
        if args.name:
            names = [args.name]
        else:
            names = list(env.categories)
            if not names:
                print("document has no categories to validate", file=sys.stderr)
                return BAD_INPUT
        directives = [Directive("validate", {"target": n}, 0, 0) for n in names]
        return _emit(run_directives(env, directives), args.json)
    if args.command == "check":
        return _single(args, "check", {"what": args.what, "target": args.name})
    if args.command == "saturate":
        return _single(args, "saturate", {"target": args.name, "mode": args.mode})
    if args.command == "localize":
        extra = {"side": args.side, "target": args.name, "mode": args.mode}
        if args.side == "left":
            if not args.at:
                print("localize left needs --at", file=sys.stderr)
                return BAD_INPUT
            extra["arrows"] = _split_list(args.at)
        else:
            if not args.by or not args.into:
                print("localize right needs --by and --into", file=sys.stderr)
                return BAD_INPUT
            extra["adjunction"] = args.by
            extra["into"] = args.into
        return _single(args, "localize", extra)
    if args.command == "hocat":
        return _single(args, "hocat", {"target": args.name})
    if args.command == "equiv":
        return _single(args, "equiv", {"target": args.name, "arrow": args.arrow})
    if args.command == "classify":
        return _single(args, "classify", {"target": args.name})
    if args.command == "dualize":
        return _single(args, "dualize", {"target": args.name})
    if args.command == "olschok":
        extra = {"target": args.name, "cylinder": args.cylinder}
        if args.seeds:
            extra["seeds"] = _split_list(args.seeds)
        return _single(args, "olschok", extra)
    raise AssertionError("unhandled command %r" % args.command)


if __name__ == "__main__":
    raise SystemExit(main())
