"""Directive execution: dispatch parsed pipeline steps to the engine.

Each directive yields a report tree (see ``report``).  The pseudo-name
``result`` always refers to the structure produced by the most recent
structure-producing directive (saturate, localize, dualize, olschok for
premodels; hocat for a category), so pipelines can chain:

    localize left P0 at {ac} mode Lc;
    classify result;

Exit-code conventions live here as small integers on the outcome:
0 all verdicts hold, 1 some checked property is false (the report carries
the witnesses), 2 bad input (also ``hocat``/``equiv`` on a structure that
fails ``check premodel``), 3 a required construction does not exist,
4 an internal cross-check failed (a ``VerificationError``: the input broke
an unchecked precondition, or the engine has a bug).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


@dataclass
class Outcome:
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
        self.result_premodel = None
        self.result_category = None

    def lookup(self, kind, name):
        """The premodel, category, adjunction or cylinder called ``name``; for
        a premodel or a category, ``result`` is the latest one produced."""
        rolling = name == "result" and kind in ("premodel", "category")
        found = getattr(self, "result_" + kind) if rolling else self.tables[kind].get(name)
        if found is None:
            if rolling:
                raise InputError("'result' does not hold a %s yet" % kind)
            raise InputError("unknown %s %r" % (kind, name))
        return found

    def arrows_of(self, p, names):
        for n in names:
            if not p.cat.has_morphism(n):
                raise InputError("unknown arrow %r in %s" % (n, p.cat.name))
        return list(names)


def _classes_tree(p):
    cat = p.cat
    return {
        "cofibrations": cat.sort_morphisms(p.cofibrations),
        "anodyne_fibrations": cat.sort_morphisms(p.anodyne_fibrations),
        "anodyne_cofibrations": cat.sort_morphisms(p.anodyne_cofibrations),
        "fibrations": cat.sort_morphisms(p.fibrations),
    }


def _flags_tree(p):
    return saturation_flags(p).as_dict()


def _weak_model_tree(r):
    return {
        "ok": r.ok,
        "cylinder_axiom": r.cylinder_axiom,
        "path_axiom": r.path_axiom,
        "alt_criterion": r.alt_criterion,
        "dual_alt_criterion": r.dual_alt_criterion,
        "failures": list(r.cylinder_failures + r.path_failures),
    }


def _fields(r, skip=()):
    """A report's dataclass fields in declaration order, less ``skip``."""
    return {f.name: getattr(r, f.name) for f in fields(r) if f.name not in skip}


def _semi_tree(r):
    if r is None:
        return None
    tree = _fields(r, skip=("failures",))
    tree.update(fresse=r.fresse, spitzweck=r.spitzweck, failures=list(r.failures))
    return tree


def _quillen_tree(q):
    return None if q is None else _fields(q, skip=("wl", "wr"))


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
        p = session.lookup("premodel", args["target"])
        out = saturate(p, args["mode"])
        session.result_premodel = out
        tree.update(
            mode=args["mode"],
            changed=not same_classes(p, out),
            classes=_classes_tree(out),
            saturation=_flags_tree(out),
        )
        return tree, True
    if kind == "localize":
        return _do_localize(session, args, tree)
    if kind == "hocat":
        p = _verified_premodel(session, args["target"])
        h = homotopy_category(p)
        session.result_category = h.category
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
        out = dualize(p)
        session.result_premodel = out
        tree["classes"] = _classes_tree(out)
        tree["saturation"] = _flags_tree(out)
        return tree, True
    if kind == "olschok":
        return _do_olschok(session, args, tree)
    raise InputError("unknown directive %r" % kind)


def _verified_premodel(session, name):
    """The premodel ``name``; InputError naming its first failed check if it is not one."""
    p = session.lookup("premodel", name)
    rep = verify_premodel(p)
    if not rep.ok:
        raise InputError("%s is not a premodel: %s" % (name, rep.failures[0]))
    return p


def _do_validate(session, name, tree):
    tree["target"] = name
    env = session.env
    if name in env.categories or (name == "result" and session.result_category):
        verdict = validate_category(session.lookup("category", name))
        kind, ok, violations = "category", verdict.ok, verdict.violations
    elif name in env.premodels or (name == "result" and session.result_premodel):
        rep = verify_premodel(session.lookup("premodel", name))
        kind, ok, violations = "premodel", rep.ok, rep.failures
    elif name in env.adjunctions:
        verdict = check_adjunction(env.adjunctions[name])
        kind, ok, violations = "adjunction", verdict.ok, verdict.violations
    elif name in env.cylinders:
        cyl = env.cylinders[name]
        violations = _structural_cylinder_check(cyl, cyl.pair.source)
        kind, ok = "cylinder", not violations
    else:
        raise InputError("unknown name %r" % name)
    tree.update(kind=kind, ok=ok, violations=list(violations))
    return tree, ok


def _do_check(session, what, name, tree):
    p = session.lookup("premodel", name)
    tree["target"] = name
    if what == "wfs":
        cof = verify_wfs(p.cof_system)
        fib = verify_wfs(p.fib_system)
        tree["cofibration_system"] = {"ok": cof.ok, "failures": list(cof.failures)}
        tree["fibration_system"] = {"ok": fib.ok, "failures": list(fib.failures)}
        ok = cof.ok and fib.ok
        tree["ok"] = ok
        return tree, ok
    if what == "premodel":
        rep = verify_premodel(p)
        tree["ok"] = rep.ok
        tree["failures"] = list(rep.failures)
        if rep.ok:
            tree["saturation"] = _flags_tree(p)
        derived = session.env.derived_classes.get(name)
        if derived:
            tree["derived_classes"] = list(derived)
        return tree, rep.ok
    rep = verify_weak_model(p)
    tree.update(_weak_model_tree(rep))
    return tree, rep.ok


def _do_localize(session, args, tree):
    p = session.lookup("premodel", args["target"])
    if args["side"] == "left":
        arrows = session.arrows_of(p, args["arrows"])
        loc = left_bousfield(p, arrows, mode=args["mode"])
        session.result_premodel = loc.structure
        tree["representatives"] = {
            s: loc.representatives[s] for s in p.cat.sort_morphisms(loc.representatives)
        }
        tree["anodyne_closure"] = p.cat.sort_morphisms(loc.nabla_closure)
    else:
        adj = session.lookup("adjunction", args["adjunction"])
        target_p = session.lookup("premodel", args["into"])
        loc = right_bousfield(p, adj, target_p, mode=args["mode"])
        session.result_premodel = loc.structure
        tree["localizer"] = p.cat.sort_morphisms(loc.localizer)
    tree["mode"] = args["mode"]
    tree["changed"] = not same_classes(p, loc.structure)
    tree["classes"] = _classes_tree(loc.structure)
    tree["saturation"] = _flags_tree(loc.structure)
    return tree, True


def _do_classify(session, p, name, tree):
    rep = classify_full(p)
    cat = p.cat
    tree["target"] = name
    tree["summary"] = rep.summary
    tree["premodel"] = {"ok": rep.premodel.ok, "failures": list(rep.premodel.failures)}
    derived = session.env.derived_classes.get(name)
    if derived:
        tree["derived_classes"] = list(derived)
    tree["saturation"] = rep.flags.as_dict() if rep.flags else None
    tree["weak_model"] = _weak_model_tree(rep.weak_model) if rep.weak_model else None
    tree["left_semi"] = _semi_tree(rep.left_semi)
    tree["right_semi"] = _semi_tree(rep.right_semi)
    two = rep.two_sided
    tree["two_sided"] = None if two is None else {"ok": two.ok, **_fields(two)}
    tree["quillen"] = _quillen_tree(rep.quillen)
    tree["equivalences"] = cat.sort_morphisms(rep.equivalences) if rep.equivalences is not None else None
    tree["wl"] = cat.sort_morphisms(rep.wl) if rep.wl is not None else None
    tree["wr"] = cat.sort_morphisms(rep.wr) if rep.wr is not None else None
    return tree, rep.premodel.ok


def _do_olschok(session, args, tree):
    p = session.lookup("premodel", args["target"])
    cyl = session.lookup("cylinder", args["cylinder"])
    seeds = session.arrows_of(p, args.get("seeds", []))
    rep = olschok_model(p, cyl, seeds=seeds)
    session.result_premodel = rep.saturated
    cat = p.cat
    tree["lambda"] = cat.sort_morphisms(rep.lambda_set)
    tree["lambda_without_second"] = cat.sort_morphisms(rep.lambda_without_second)
    tree["second_corner_matters"] = rep.second_corner_matters
    tree["generated_classes"] = _classes_tree(rep.premodel)
    tree["classes"] = _classes_tree(rep.saturated)
    tree["saturation"] = _flags_tree(rep.saturated)
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
