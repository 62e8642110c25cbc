"""Directive execution: dispatch parsed pipeline steps to the engine.

Each directive yields a report tree (see ``report``).  The pseudo-name
``result`` always refers to the structure produced by the most recent
structure-producing directive (saturate, localize, dualize, olschok for
premodels; hocat for a category), so pipelines can chain:

    localize left P0 at {ac} mode Lc;
    classify result;

Exit-code conventions live here as small integers on the outcome:
0 all verdicts hold, 1 some checked property is false (the report carries
the witnesses), 2 bad input (also ``saturate``, ``localize``, ``hocat``,
``equiv`` and ``check weakmodel`` on a structure that fails ``check
premodel``), 3 a required construction does not exist,
4 an internal cross-check failed (a ``VerificationError``: the input broke
an unchecked precondition, or the engine has a bug).
"""

from typing import NamedTuple

from .errors import ConstructionError, InputError, VerificationError
from .fincat import check_adjunction, validate_category
from .homotopy import homotopy_category, is_equivalence, verify_weak_model
from .lifting import verify_wfs
from .localize import left_bousfield, right_bousfield
from .olschok import _structural_cylinder_check, olschok_model, verify_quillen_cylinder
from .premodel import dualize, same_classes, saturation_flags, verify_premodel
from .saturate import saturate
from .classify import classify_full


OK, CHECK_FAILED, BAD_INPUT, NO_CONSTRUCTION, INTERNAL = 0, 1, 2, 3, 4


class Outcome(NamedTuple):
    trees: list
    code: int


class Session:
    """Named engine objects from a document plus the rolling ``result``."""

    def __init__(self, env):
        self.env = env
        self.tables = {
            "premodel": env.premodels,
            "category": env.categories,
            "adjunction": env.adjunctions,
            "cylinder": env.cylinders,
        }
        # declared names are unique across kinds (``parser.resolve``)
        self.kind_of = {name: kind for kind, table in self.tables.items() for name in table}
        self.results = {}  # kind -> the latest premodel or category produced
        self.latest = None  # the kind of the latest one

    def keep(self, kind, found):
        self.results[kind] = found
        self.latest = kind

    def lookup(self, kind, name):
        """The premodel, category, adjunction or cylinder called ``name``; for
        a premodel or a category, ``result`` is the latest one produced."""
        rolling = name == "result" and kind in ("premodel", "category")
        found = self.results.get(kind) if rolling else self.tables[kind].get(name)
        if found is None:
            if rolling:
                raise InputError("'result' does not hold a %s yet" % kind)
            raise InputError("unknown %s %r" % (kind, name))
        return found


def _classes_tree(p):
    return {name: p.cat.sort_morphisms(members) for name, members in p.classes().items()}


def _kept(session, tree, q):
    """Make the produced premodel q the ``result`` and report its classes and flags."""
    session.keep("premodel", q)
    tree["classes"] = _classes_tree(q)
    tree["saturation"] = saturation_flags(q).as_dict()


def _fields(r, skip=()):
    """A report's fields in declaration order, less ``skip``; None for no
    report, and a tuple of texts as a list."""
    if r is None:
        return None
    return {k: list(v) if isinstance(v, tuple) else v for k, v in r._asdict().items() if k not in skip}


def _semi_tree(r):
    tree = _fields(r, skip=("failures",))
    if tree is not None:
        tree.update(fresse=r.fresse, spitzweck=r.spitzweck, failures=list(r.failures))
    return tree


def _category_tree(cat):
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m, "source": cat.source[m], "target": cat.target[m]}
            for m in cat.morphisms
        ],
        "composition": [
            [g, f, h] for (g, f), h in sorted(
                cat.compose_table.items(),
                key=lambda kv: (cat.morphism_index(kv[0][0]), cat.morphism_index(kv[0][1])),
            )
        ],
    }


def _describe(d):
    args = d.args
    if d.kind == "check":
        return "check %s %s" % (args["what"], args["target"])
    if d.kind == "saturate":
        return "saturate %s mode %s" % (args["target"], args["mode"])
    if d.kind == "localize" and args["side"] == "left":
        return "localize left %s at {%s} mode %s" % (
            args["target"], ", ".join(args["arrows"]), args["mode"]
        )
    if d.kind == "localize":
        return "localize right %s by %s into %s mode %s" % (
            args["target"], args["adjunction"], args["into"], args["mode"]
        )
    if d.kind == "equiv":
        return "equiv %s %s" % (args["target"], args["arrow"])
    if d.kind == "olschok":
        text = "olschok %s cylinder %s" % (args["target"], args["cylinder"])
        if args.get("seeds"):
            text += " seeds {%s}" % ", ".join(args["seeds"])
        return text
    return "%s %s" % (d.kind, args.get("target", "")) if args.get("target") else d.kind


def execute(session, directive):
    """Run one directive; returns (tree, ok)."""
    kind = directive.kind
    args = directive.args
    tree = {"directive": _describe(directive)}

    if kind == "validate":
        return _do_validate(session, args["target"], tree)
    if kind == "check":
        return _do_check(session, args["what"], args["target"], tree)
    if kind == "saturate":
        p = _verified_premodel(session, args["target"])
        out = saturate(p, args["mode"])
        tree.update(mode=args["mode"], changed=not same_classes(p, out))
        _kept(session, tree, out)
        return tree, True
    if kind == "localize":
        return _do_localize(session, args, tree)
    if kind == "hocat":
        p = _verified_premodel(session, args["target"])
        h = homotopy_category(p)
        session.keep("category", h.category)
        tree["homotopy_category"] = _category_tree(h.category)
        tree["classes"] = {
            rep: list(members)
            for rep, members in sorted(
                h.classes.items(), key=lambda kv: h.category.morphism_index(kv[0])
            )
        }
        return tree, True
    if kind == "equiv":
        p = _verified_premodel(session, args["target"])
        verdict = is_equivalence(p, args["arrow"])
        tree["arrow"] = args["arrow"]
        tree["equivalence"] = verdict
        return tree, verdict
    if kind == "classify":
        p = session.lookup("premodel", args["target"])
        return _do_classify(session, p, args["target"], tree)
    if kind == "dualize":
        p = session.lookup("premodel", args["target"])
        _kept(session, tree, dualize(p))
        return tree, True
    if kind == "olschok":
        return _do_olschok(session, args, tree)
    raise InputError("unknown directive %r" % kind)


def _verified_premodel(session, name):
    """The premodel ``name``; InputError naming its first failed check if it is not one."""
    p = session.lookup("premodel", name)
    rep = verify_premodel(p)
    if not rep.ok:
        raise InputError("%s is not a premodel: %s" % (name, rep.violations[0]))
    return p


def _do_validate(session, name, tree):
    tree["target"] = name
    kind = session.latest if name == "result" else session.kind_of.get(name)
    if kind is None:
        raise InputError("unknown name %r" % name)
    check = {
        "premodel": verify_premodel,
        "category": validate_category,
        "adjunction": check_adjunction,
        "cylinder": lambda cyl: _structural_cylinder_check(cyl, cyl.pair.source),
    }[kind]
    verdict = check(session.lookup(kind, name))
    tree.update(kind=kind, ok=verdict.ok, violations=list(verdict.violations))
    return tree, verdict.ok


def _do_check(session, what, name, tree):
    p = session.lookup("premodel", name)
    tree["target"] = name
    if what == "wfs":
        cof = verify_wfs(p.cat, p.cofibrations, p.anodyne_fibrations)
        fib = verify_wfs(p.cat, p.anodyne_cofibrations, p.fibrations)
        tree["cofibration_system"] = {"ok": cof.ok, "failures": list(cof.violations)}
        tree["fibration_system"] = {"ok": fib.ok, "failures": list(fib.violations)}
        ok = cof.ok and fib.ok
        tree["ok"] = ok
        return tree, ok
    if what == "premodel":
        rep = verify_premodel(p)
        tree["ok"] = rep.ok
        tree["failures"] = list(rep.violations)
        if rep.ok:
            tree["saturation"] = saturation_flags(p).as_dict()
        derived = session.env.derived_classes.get(name)
        if derived:
            tree["derived_classes"] = list(derived)
        return tree, rep.ok
    rep = verify_weak_model(_verified_premodel(session, name))
    tree.update(_fields(rep))
    return tree, rep.ok


def _do_localize(session, args, tree):
    p = _verified_premodel(session, args["target"])
    if args["side"] == "left":
        loc = left_bousfield(p, args["arrows"], mode=args["mode"])
        tree["representatives"] = {
            s: loc.representatives[s] for s in p.cat.sort_morphisms(loc.representatives)
        }
        tree["anodyne_closure"] = p.cat.sort_morphisms(loc.nabla_closure)
    else:
        adj = session.lookup("adjunction", args["adjunction"])
        target_p = _verified_premodel(session, args["into"])
        loc = right_bousfield(p, adj, target_p, mode=args["mode"])
        tree["localizer"] = p.cat.sort_morphisms(loc.localizer)
    tree["mode"] = args["mode"]
    tree["changed"] = not same_classes(p, loc.structure)
    _kept(session, tree, loc.structure)
    return tree, True


def _do_classify(session, p, name, tree):
    rep = classify_full(p)
    tree["target"] = name
    tree["summary"] = rep.summary
    tree["premodel"] = {"ok": rep.premodel.ok, "failures": list(rep.premodel.violations)}
    derived = session.env.derived_classes.get(name)
    if derived:
        tree["derived_classes"] = list(derived)
    tree["saturation"] = rep.flags.as_dict() if rep.flags else None
    tree["weak_model"] = _fields(rep.weak_model)
    tree["left_semi"] = _semi_tree(rep.left_semi)
    tree["right_semi"] = _semi_tree(rep.right_semi)
    two = rep.two_sided
    tree["two_sided"] = None if two is None else {"ok": two.ok, **_fields(two)}
    tree["quillen"] = _fields(rep.quillen)
    for key, arrows in (("equivalences", rep.equivalences), ("wl", rep.wl), ("wr", rep.wr)):
        tree[key] = None if arrows is None else p.cat.sort_morphisms(arrows)
    return tree, rep.premodel.ok


def _do_olschok(session, args, tree):
    p = session.lookup("premodel", args["target"])
    cyl = session.lookup("cylinder", args["cylinder"])
    rep = olschok_model(p, cyl, seeds=args.get("seeds", []))
    cat = p.cat
    tree["lambda"] = cat.sort_morphisms(rep.lambda_set)
    tree["lambda_without_second"] = cat.sort_morphisms(rep.lambda_without_second)
    tree["second_corner_matters"] = rep.lambda_set != rep.lambda_without_second
    tree["generated_classes"] = _classes_tree(rep.premodel)
    _kept(session, tree, rep.saturated)
    tree["all_cofibrant"] = rep.all_cofibrant
    tree["quillen_asserted"] = rep.quillen_asserted
    tree["left_semi_asserted"] = rep.left_semi_asserted
    tree["cylinder_on_result"] = verify_quillen_cylinder(cyl, rep.saturated).ok
    tree["summary"] = rep.classification.summary
    return tree, True


def run_directives(env, directives):
    """Run a pipeline; stops at the first input, construction or internal error."""
    session = Session(env)
    trees = []
    code = OK
    for d in directives:
        try:
            tree, ok = execute(session, d)
        except InputError as exc:
            trees.append({"directive": _describe(d), "error": {"kind": "input", "message": str(exc)}})
            return Outcome(trees, BAD_INPUT)
        except ConstructionError as exc:
            err = {"kind": "construction", "message": str(exc)}
            if exc.witness is not None:
                err["witness"] = exc.witness
            trees.append({"directive": _describe(d), "error": err})
            return Outcome(trees, NO_CONSTRUCTION)
        except VerificationError as exc:
            trees.append({"directive": _describe(d), "error": {"kind": "internal", "message": str(exc)}})
            return Outcome(trees, INTERNAL)
        trees.append(tree)
        if not ok:
            code = CHECK_FAILED
    return Outcome(trees, code)
