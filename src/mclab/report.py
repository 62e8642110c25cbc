"""Report trees and their two renderings.

Every directive produces a *report tree*: nested dicts with insertion-ordered
keys, lists, and scalar leaves (strings, booleans, integers, None).  The
machine rendering is JSON and round-trips exactly (``from_machine(to_machine(t))
== t``); the human rendering is an indented key/value text.  Field names in
the trees are part of the package's interface and are documented in the
README — tests golden-file against them.
"""

import json

_SCALARS = (str, bool, int, float, type(None))


def check_tree(tree, path="report"):
    """Trees must stay within the round-trippable vocabulary.  The path to a
    bad node is spelled out only once one is found."""
    if (bad := _misfit(tree)) is not None:
        raise TypeError("%s%s: %s" % (path, "".join(reversed(bad[0])), bad[1]))


def _misfit(tree):
    """``(steps, text)`` for the first node outside the vocabulary, its path
    steps leaf first; None when the whole tree fits."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            if not isinstance(k, str):
                return [], "non-string key %r" % (k,)
            if (bad := _misfit(v)) is not None:
                bad[0].append("." + k)
                return bad
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            if (bad := _misfit(v)) is not None:
                bad[0].append("[%d]" % i)
                return bad
    elif not isinstance(tree, _SCALARS):
        return [], "unserializable value %r" % (tree,)
    return None


def to_machine(tree):
    check_tree(tree)
    return json.dumps(tree, indent=2, ensure_ascii=False) + "\n"


def from_machine(text):
    return json.loads(text)


def _fmt_scalar(v):
    if v is True:
        return "yes"
    if v is False:
        return "no"
    if v is None:
        return "-"
    return str(v)


def to_text(tree, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(tree, dict):
        for k, v in tree.items():
            if isinstance(v, dict):
                lines.append("%s%s:" % (pad, k))
                lines.extend(to_text(v, indent + 1).splitlines())
            elif isinstance(v, list):
                if all(isinstance(x, _SCALARS) for x in v):
                    lines.append(
                        "%s%s: [%s]" % (pad, k, ", ".join(_fmt_scalar(x) for x in v))
                    )
                else:
                    lines.append("%s%s:" % (pad, k))
                    for x in v:
                        sub = to_text(x, indent + 2).splitlines()
                        if sub:
                            first = sub[0].lstrip()
                            lines.append("%s  - %s" % (pad, first))
                            lines.extend(sub[1:])
            else:
                lines.append("%s%s: %s" % (pad, k, _fmt_scalar(v)))
    else:
        lines.append("%s%s" % (pad, _fmt_scalar(tree)))
    return "\n".join(lines) + ("\n" if indent == 0 else "")
