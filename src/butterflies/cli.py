"""Command-line surface: validate, compute and compare constructions on
JSON-described inputs.

Each COMMANDS entry names the kind of each document its command reads
(validate takes any).  main reads them all, in order, refusing one of the
wrong kind (exit 2), then refuses (exit 1) on the first axiom violation of a
butterfly they hold, and only then runs the handler on the parsed objects.

Exit codes: 0 success, 1 mathematical refusal (axiom or precondition
violated), 2 I/O, usage or schema error (including an unwritable --out
path, an unknown selftest criterion and a selftest --scale that is not a
finite number above 0), 3 internal error (a failed invariant of this
library or any other unexpected exception, never bad input; one line, no
traceback).
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from .fgab import random_group
from .twocomplex import homology, random_complex
from .butterfly import (
    validate, compose, two_morphism_find, homology_action, is_invertible,
    classify, pip, copip, kernel_b, cokernel_b, image_b, coimage_b,
    random_butterfly,
)
from .derived import biext_groups
from .exactness import les, random_exact_seq
from . import jsonio
from .intlinalg import InvariantError
from .jsonio import SchemaError, RefusalError


def _read_doc(path: str, kind) -> tuple:
    """(kind, object) of the document at path, which must be of kind unless
    kind is None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    got, obj = jsonio.parse_document(text)
    if kind not in (None, got):
        raise SchemaError(f"{path}: expected a {kind} document, got {got}")
    return got, obj


def _first_violation(docs) -> str:
    """The first axiom violation of the butterflies the (kind, object) docs
    hold, in order and a sequence's after "Y: " or "Z: ", or ''.  A
    sequence's witness conditions were checked while parsing."""
    for kind, obj in docs:
        named = ([("", obj)] if kind == "butterfly" else
                 [("Y: ", obj.y), ("Z: ", obj.z)] if kind == "sequence" else [])
        for prefix, bf in named:
            bad = validate(bf)
            if bad:
                return prefix + bad[0]
    return ""


def _write_or_print(doc: dict, out_path, verdict: str = ""):
    """doc to out_path, or to stdout after the verdict; the verdict goes to
    stdout only once out_path is written, so a failed write prints nothing."""
    text = jsonio.emit(doc)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out_path}: {exc}")
        text = ""
    sys.stdout.write(verdict + text)


def cmd_validate(args, doc) -> int:
    print("ok")
    return 0


def cmd_compose(args, y, z) -> int:
    if y.dst != z.src:
        print("endpoint mismatch: first.dst != second.src", file=sys.stderr)
        return 1
    w = compose(z, y)
    _write_or_print(jsonio.document("butterfly", jsonio.butterfly_to_json(w)), args.out)
    return 0


def cmd_iso2(args, a, b) -> int:
    if (a.src, a.dst) != (b.src, b.dst):
        print("endpoint mismatch: butterflies are not parallel", file=sys.stderr)
        return 1
    tm = two_morphism_find(a, b)
    if tm is None:
        print("none")
        return 0
    _write_or_print({"matrix": jsonio.matrix_to_json(tm.m.matrix)}, args.out, "isomorphic\n")
    return 0


def cmd_report(args, y) -> int:
    hm1, h0 = homology_action(y)
    flags = classify(y)
    kcx, _ = kernel_b(y)
    ccx, _ = cokernel_b(y)
    icx, _ = image_b(y)
    ocx, _ = coimage_b(y)

    def cx_inv(cx):
        h = homology(cx)
        return {"deg-1": jsonio.invariants_to_json(cx.deg_m1),
                "deg0": jsonio.invariants_to_json(cx.deg_0),
                "h-1": jsonio.invariants_to_json(h.hm1),
                "h0": jsonio.invariants_to_json(h.h0)}

    doc = {
        "homology_action": {"h-1": jsonio.matrix_to_json(hm1.matrix),
                            "h0": jsonio.matrix_to_json(h0.matrix)},
        "invertible": is_invertible(y),
        "mono": flags.mono, "epi": flags.epi,
        "faithful": flags.faithful, "cofaithful": flags.cofaithful,
        "pip": jsonio.invariants_to_json(pip(y)),
        "copip": jsonio.invariants_to_json(copip(y)),
        "kernel": cx_inv(kcx), "cokernel": cx_inv(ccx),
        "image": cx_inv(icx), "coimage": cx_inv(ocx),
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_les(args, s) -> int:
    l = les(s)
    if l is None:
        print("sequence is not two-sided exact; refusing", file=sys.stderr)
        return 1
    doc = {
        "groups": [jsonio.invariants_to_json(g) for g in l.groups],
        "maps": [jsonio.matrix_to_json(m.matrix) for m in l.maps],
        "exact": list(l.verdicts),
        "all_exact": l.all_exact,
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_biext(args) -> int:
    a = jsonio.parse_group_shorthand(args.a)
    b = jsonio.parse_group_shorthand(args.b)
    c = jsonio.parse_group_shorthand(args.c)
    bg = biext_groups(a, b, c)
    doc = {"pi1": jsonio.invariants_to_json(bg.pi1),
           "pi0": jsonio.invariants_to_json(bg.pi0)}
    _write_or_print(doc, args.out)
    return 0


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "group":
        doc = jsonio.document("group", jsonio.group_to_json(random_group(rng)))
    elif args.kind == "complex":
        doc = jsonio.document("complex", jsonio.complex_to_json(random_complex(rng)))
    elif args.kind == "butterfly":
        e = random_complex(rng, max_rank=1, max_order=8)
        f = random_complex(rng, max_rank=1, max_order=8)
        doc = jsonio.document("butterfly",
                              jsonio.butterfly_to_json(random_butterfly(e, f, rng)))
    else:
        doc = jsonio.document("sequence",
                              jsonio.sequence_to_json(random_exact_seq(rng)))
    _write_or_print(doc, args.out)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # and oracle and fixtures: loaded by this command alone
    return 0 if selftest.run(scale=args.scale, only=args.suite or None) else 1


def _scale(text: str) -> float:
    """--scale: a finite number above 0 (selftest.scale_ok)."""
    from . import selftest
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not selftest.scale_ok(x):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return x


def _suite(text: str) -> str:
    """--suite: a criterion number (selftest.criterion_numbers)."""
    from . import selftest
    if text not in selftest.criterion_numbers():
        choices = ", ".join(map(repr, selftest.criterion_numbers()))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


OUT = ("--out", {})
TWO_BUTTERFLIES = {"first": "butterfly", "second": "butterfly"}

# name: (handler, help, (argument, kwargs) specs, {document argument: its kind,
# None for any}, the sys stream for an axiom refusal: validate's is its output),
# in the order --help lists them; the handler takes args, then the documents
COMMANDS = {
    "validate": (cmd_validate, "check a document against the axioms", [("path", {})],
                 {"path": None}, "stdout"),
    "compose": (cmd_compose, "compose two butterflies (second after first)",
                [("first", {}), ("second", {}), OUT], TWO_BUTTERFLIES, "stderr"),
    "iso2": (cmd_iso2, "search for a 2-morphism between parallel butterflies",
             [("first", {}), ("second", {}), OUT], TWO_BUTTERFLIES, "stderr"),
    "report": (cmd_report, "full invariant report for one butterfly", [("path", {}), OUT],
               {"path": "butterfly"}, "stderr"),
    "les": (cmd_les, "six-term homology sequence of an exact sequence", [("path", {}), OUT],
            {"path": "sequence"}, "stderr"),
    "biext": (cmd_biext, "Biext groups pi1, pi0 for shorthand groups (e.g. Z/2+Z)",
              [("a", {}), ("b", {}), ("c", {}), OUT], {}, None),
    "gen": (cmd_gen, "generate a random fixture, deterministic per seed",
            [("kind", {"choices": ["group", "complex", "butterfly", "sequence"]}),
             ("--seed", {"type": int, "default": 0}), OUT], {}, None),
    "selftest": (cmd_selftest, "run the acceptance suites",
                 [("--scale", {"type": _scale, "default": 1.0}),
                  ("--suite", {"nargs": "*", "type": _suite, "metavar": "N",
                               "help": "criterion numbers to run, e.g. 1 6 9"})], {}, None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="butterflies",
        description="2-term complexes of f.g. abelian groups with butterflies as morphisms")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, specs, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in specs:
            p.add_argument(arg, **kwargs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, _, documents, refusals = COMMANDS[args.command]
    try:
        # read (and kind-check) every document, then refuse, then compute
        docs = [_read_doc(getattr(args, arg), kind) for arg, kind in documents.items()]
        bad = _first_violation(docs)
        if bad:
            print(bad, file=getattr(sys, refusals))
            return 1
        return handler(args, *(obj for _, obj in docs))
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a defect of this library, not of the input: same code, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
