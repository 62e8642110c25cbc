"""Command-line interface: thin subcommand wrappers over ``run``.

Every subcommand loads a document, builds the one directive it stands for
from its arguments, which are named after the directive's keys, and executes
it through the same path the ``run { ... }`` blocks use, so the CLI cannot
drift from the language.  Reports go to stdout — human-readable
by default, machine format under ``--json``.  Exit codes: 0 all verdicts
hold, 1 a checked property is false, 2 input/usage error, 3 a required
construction does not exist, 4 an internal cross-check failed.
"""

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


def _split_list(text):
    return [x for x in (piece.strip() for piece in text.split(",")) if x]


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every call.

    Each argument's dest is the directive key it fills in; ``metavar`` keeps
    the name the help text shows.
    """
    ap = argparse.ArgumentParser(
        prog="mclab",
        description="Exhaustive checks for marked finite categories: "
        "factorization systems, premodels, weak models, localizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, help, target=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="document to load")
        if target:
            p.add_argument("target", metavar="name")
        p.add_argument("--json", action="store_true", help="machine report format")
        return p

    p = cmd("validate", "validate a category, premodel, adjunction, or cylinder", target=False)
    p.add_argument(
        "target", metavar="name", nargs="?", help="defaults to every category in the document"
    )

    p = sub.add_parser("check", help="check wfs / premodel / weakmodel on a premodel")
    p.add_argument("what", choices=["wfs", "premodel", "weakmodel"])
    p.add_argument("file", help="document to load")
    p.add_argument("target", metavar="name")
    p.add_argument("--json", action="store_true", help="machine report format")

    cmd("saturate", "saturate a premodel").add_argument(
        "--mode", choices=["L", "Lc", "R", "Rc"], required=True
    )

    p = sub.add_parser("localize", help="Bousfield localization")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("file", help="document to load")
    p.add_argument("target", metavar="name")
    p.add_argument("--at", dest="arrows", metavar="AT", help="comma-separated arrows (left)")
    p.add_argument("--by", dest="adjunction", metavar="BY", help="adjunction name (right)")
    p.add_argument("--into", help="target premodel (right)")
    p.add_argument("--mode", choices=["L", "Lc", "R", "Rc"], required=True)
    p.add_argument("--json", action="store_true", help="machine report format")

    cmd("hocat", "homotopy category of a premodel")
    cmd("equiv", "is an arrow a weak equivalence?").add_argument("arrow")
    cmd("classify", "full recognition ladder")
    cmd("dualize", "opposite premodel with swapped classes")

    p = cmd("olschok", "generate a model structure from a cylinder")
    p.add_argument("--cylinder", required=True)
    p.add_argument("--seeds", help="comma-separated localizer arrows")

    cmd("run", "execute the document's run block", target=False)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _Exit as stop:
        return stop.code


_NOT_KEYS = ("command", "file", "json")
_LISTS = ("arrows", "seeds")   # comma-separated on the command line


def _dispatch(args):
    if args.command == "localize" and args.side == "left" and not _split_list(args.arrows or ""):
        print("localize left needs --at", file=sys.stderr)
        return BAD_INPUT
    if args.command == "localize" and args.side == "right" and not (args.adjunction and args.into):
        print("localize right needs --by and --into", file=sys.stderr)
        return BAD_INPUT
    if args.command == "localize" and args.side == "left" and (args.adjunction, args.into) != (None, None):
        print("localize left takes no --by or --into", file=sys.stderr)
        return BAD_INPUT
    if args.command == "localize" and args.side == "right" and args.arrows is not None:
        print("localize right takes no --at", file=sys.stderr)
        return BAD_INPUT
    env = _load(args.file)
    if args.command == "run":
        directives = env.directives
    elif args.command == "validate" and not args.target:
        if not env.categories:
            print("document has no categories to validate", file=sys.stderr)
            return BAD_INPUT
        directives = [Directive("validate", {"target": n}) for n in env.categories]
    else:
        keys = {
            k: _split_list(v) if k in _LISTS else v
            for k, v in vars(args).items()
            if k not in _NOT_KEYS and v is not None
        }
        directives = [Directive(args.command, keys)]
    return _emit(run_directives(env, directives), args.json)


if __name__ == "__main__":
    raise SystemExit(main())
