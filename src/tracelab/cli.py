"""Command-line entry point: deterministic JSON (or text) reports.

Every report echoes the command, a content fingerprint of its inputs, the
tool version, and a result payload.  JSON is canonical: sorted keys, exact
rationals as "p/q" strings, value sets as {"below_conductor": [...],
"conductor": c}.  Exit codes: 0 success (even when a predicate is false),
1 only for `verify` runs that find a counterexample, 2 for input errors,
usage errors included, for a `verify` worker that died (BrokenProcessPool),
for a report that cannot be written and for an interrupt (Ctrl-C), each with
a JSON {"error", "message"} on stderr, except a closed pipe, which ends quietly.

One table, `_COMMANDS`, drives the CLI.  Each command names its payload
builder, its help text and the inputs it reads after its --ring algebra:
the module (--module, else the ring file's [module] section, else R), the
ideal (--ideal) and the verdict options (--seed, --cap-enum).
`build_parser` adds exactly those flags, and `_load` reads, checks and
fingerprints the inputs in one fixed order, ring file, module file, ideal,
seed, so a command's first error and its fingerprint follow that order.
`semigroup-report`, `semigroup-good` and `verify` read their own flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .artin import (
    build_algebra,
    ideal_from_elements,
    ideal_times_module,
    module_from_presentation,
    regular_module,
    socle,
    torsion_submodule,
)
from .errors import ParseError, TraceLabError
from .homological import (
    annihilator,
    coexcellence_verdict,
    cotrace,
    excellence_verdict,
    ext1,
    is_good_ideal,
    is_ideal_coexcellent,
    is_ideal_excellent,
    is_quasi_frobenius,
    matlis_dual,
    tor1,
    trace,
)
from .semigroup import (
    ideal as value_ideal,
    inverse,
    is_good,
    make,
    matlis_report,
    self_colon_eq_inverse,
    trace_value,
)
from .textio import (
    module_rows_from_section,
    parse_int_list,
    parse_sections,
    presentation_from_section,
)
from .verifier import default_catalog, run_suites, subspace_json


_encode_str = json.encoder.encode_basestring  # the C encoder of ensure_ascii=False strings
_SCALARS = {True: "true", False: "false", None: "null"}


def _emit(obj, nl, out):
    """Append the indented JSON of obj to out; nl is the newline plus the
    indent of the line obj starts on.  TypeError: a value of another shape."""
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError
            out.append(sep + _encode_str(key) + ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        types = set(map(type, obj))
        if types == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
        elif types == {str}:
            out.append("[" + inner + ("," + inner).join(map(_encode_str, obj)) + nl + "]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _emit(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif t is bool or obj is None:
        out.append(_SCALARS[obj])
    else:
        raise TypeError


def _json_pieces(obj):
    """canonical_json(obj) as a list of strings, to write or join."""
    out = []
    try:
        _emit(obj, "\n", out)
    except (TypeError, RecursionError):  # sorted() on mixed keys raises TypeError too
        return [json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False), "\n"]
    out.append("\n")
    return out


def canonical_json(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) plus a newline, which every report and JSON error
    keeps.  Dicts with str keys, lists, tuples (written as lists), strs,
    ints, bools and None are emitted here, each all-int or all-str list
    joined in one pass.  Any other value (a float, a non-str key, a
    subclass), a cycle or nesting past the recursion limit hands the whole
    document to json.dumps, so its bytes or its error are json.dumps's."""
    return "".join(_json_pieces(obj))


def _fingerprint(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _read(path, parts):
    """The UTF-8 text of a file, appended to the fingerprint parts."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (%s)" % (path, exc)) from None
    parts.append("file:%s" % text)
    return text


def _load(args, reads, parts):
    """The --ring algebra, then each input in `reads`: read, checked and
    appended to the fingerprint parts in the order ring file, module file,
    ideal, seed, whatever the order of `reads`."""
    sections = parse_sections(_read(args.ring, parts), source=args.ring)
    if "algebra" not in sections:
        raise TraceLabError("%s: no [algebra] section" % args.ring)
    pres = presentation_from_section(sections["algebra"], source=args.ring)
    if args.cap_dim is not None:
        if args.cap_dim < 0:
            raise ParseError("--cap-dim must be nonnegative, got %d" % args.cap_dim)
        pres.dim_cap = args.cap_dim
    algebra = build_algebra(pres)
    loaded = [algebra]
    if "module" in reads:
        # The --module file, else the ring file's [module] section, else R.
        source = args.ring
        if args.module:
            source = args.module
            sections = parse_sections(_read(source, parts), source=source)
            if "module" not in sections:
                raise TraceLabError("%s: no [module] section" % source)
        if "module" in sections:
            rows, n_gens = module_rows_from_section(sections["module"], source=source)
            loaded.append(module_from_presentation(algebra, rows, n_gens=n_gens))
        else:
            loaded.append(regular_module(algebra))
    if "ideal" in reads:
        gens = [g.strip() for g in args.ideal.split(",") if g.strip()]
        parts.append("ideal:%s" % ";".join(gens))
        loaded.append(ideal_from_elements(algebra, gens))
    if "verdict" in reads:
        # The keyword arguments of an all-ideals verdict.
        verdict = {} if algebra.field.is_finite else {"seed": args.seed}
        if args.cap_enum is not None:
            if args.cap_enum < 0:
                raise ParseError("--cap-enum must be nonnegative, got %d" % args.cap_enum)
            verdict["cap"] = args.cap_enum
        parts.append("seed:%s" % args.seed)
        loaded.append(verdict)
    return loaded


def _subspace(sub):
    return subspace_json(sub.carrier)


def _verdict_json(v):
    out = {"value": v.holds, "evidence": v.evidence, "ideals_tested": v.tested}
    if v.witness is not None:
        out["witness"] = _subspace(v.witness)
    return out


# -- payload builders -----------------------------------------------------------


def cmd_algebra_info(algebra):
    reg = regular_module(algebra)
    return {
        "field": algebra.field.name,
        "variables": list(algebra.variables),
        "relations": list(algebra.presentation.relations),
        "dimension": algebra.dim,
        "basis": list(algebra.basis_labels),
        "maximal_ideal_dim": algebra.dim - 1,
        "socle_dim": socle(reg).dim,
        "nilpotency_index": algebra.nilpotency_index,
        "quasi_frobenius": is_quasi_frobenius(algebra),
    }


def cmd_trace(algebra, module, ideal_sub):
    return {
        "module_dim": module.dim,
        "ideal": _subspace(ideal_sub),
        "trace": _subspace(trace(ideal_sub, module)),
        "ideal_times_module": _subspace(ideal_times_module(ideal_sub, module)),
        "annihilator_torsion": _subspace(
            torsion_submodule(module, annihilator(ideal_sub.as_module()))
        ),
        "excellent_for_ideal": is_ideal_excellent(ideal_sub, module),
    }


def cmd_cotrace(algebra, module, ideal_sub):
    return {
        "module_dim": module.dim,
        "ideal": _subspace(ideal_sub),
        "cotrace": _subspace(cotrace(ideal_sub, module)),
        "annihilator_times_module": _subspace(
            ideal_times_module(annihilator(ideal_sub.as_module()), module)
        ),
        "torsion": _subspace(torsion_submodule(module, ideal_sub)),
        "coexcellent_for_ideal": is_ideal_coexcellent(ideal_sub, module),
    }


def cmd_ext1(algebra, module, ideal_sub):
    return {
        "module_dim": module.dim,
        "ideal_dim": ideal_sub.dim,
        "ext1_dim": ext1(ideal_sub, module).dim,
    }


def cmd_tor1(algebra, module, ideal_sub):
    return {
        "module_dim": module.dim,
        "ideal_dim": ideal_sub.dim,
        "tor1_dim": tor1(module, ideal_sub).dim,
    }


def cmd_dual(algebra, module):
    dual = matlis_dual(module)
    double = matlis_dual(dual.rep)
    return {
        "module_dim": module.dim,
        "dual_dim": dual.rep.dim,
        "socle_dim_of_dual": socle(dual.rep).dim,
        "double_dual_matches": double.rep.actions == module.actions,
    }


def cmd_excellent(algebra, module, verdict):
    return {
        "excellent": _verdict_json(excellence_verdict(module, **verdict)),
        "coexcellent": _verdict_json(coexcellence_verdict(module, **verdict)),
    }


def cmd_good(algebra, ideal_sub):
    tr = trace(ideal_sub, regular_module(algebra))
    return {
        "ideal": _subspace(ideal_sub),
        "trace": _subspace(tr),
        "good": {"value": is_good_ideal(ideal_sub), "evidence": "formula"},
    }


def cmd_qf(algebra, verdict):
    reg = regular_module(algebra)
    return {
        "quasi_frobenius": {"value": is_quasi_frobenius(algebra), "evidence": "formula"},
        "socle_dim": socle(reg).dim,
        "excellent": _verdict_json(excellence_verdict(reg, **verdict)),
    }


def cmd_semigroup_report(args, parts):
    parts += ["gens:%s" % args.gens, "max_power:%s" % args.max_power]
    return matlis_report(make(parse_int_list(args.gens)), args.max_power).to_json()


def cmd_semigroup_good(args, parts):
    parts += ["gens:%s" % args.gens, "ideal:%s" % args.ideal]
    s = make(parse_int_list(args.gens))
    e = value_ideal(parse_int_list(args.ideal), s)
    return {
        "ideal": e.to_json(),
        "inverse": inverse(e, s).to_json(),
        "trace": trace_value(e, s).to_json(),
        "good": {"value": is_good(e, s), "evidence": "formula"},
        "self_colon_equals_inverse": self_colon_eq_inverse(e, s),
    }


def cmd_verify(args, parts):
    spec = default_catalog(seed=args.seed)
    parts += ["seed:%s" % args.seed, "spec:%s" % json.dumps(spec.to_json(), sort_keys=True)]
    names = ("section1", "section2", "section3") if args.suite == "all" else ("section" + args.suite,)
    results = run_suites(spec, suites=names)
    return {
        "catalog": spec.to_json(),
        "suites": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


# name -> (payload builder, help, the inputs it reads after its --ring
# algebra), in the order `tracelab --help` lists them.  A builder that reads
# inputs takes the algebra and then the loaded inputs in the order module,
# ideal, verdict; one with None reads its own flags from the namespace.
_COMMANDS = {
    "algebra-info": (cmd_algebra_info, "Dimensions and structure of a presented algebra", ()),
    "trace": (cmd_trace, "Trace of an ideal in a module, with the sandwich bounds", ("module", "ideal")),
    "cotrace": (cmd_cotrace, "Cotrace of an ideal in a module, with its bounds", ("module", "ideal")),
    "ext1": (cmd_ext1, "Dimension of Ext1(R/I, M)", ("module", "ideal")),
    "tor1": (cmd_tor1, "Dimension of Tor1(M, R/I)", ("module", "ideal")),
    "dual": (cmd_dual, "Matlis dual of a module", ("module",)),
    "excellent": (cmd_excellent, "Excellence and coexcellence verdicts for a module", ("module", "verdict")),
    "good": (cmd_good, "Whether an ideal equals its trace in R", ("ideal",)),
    "qf": (cmd_qf, "Quasi-Frobenius test plus the excellence verdict of R", ("verdict",)),
    "semigroup-report": (cmd_semigroup_report, "Stable-trace report for a numerical semigroup", None),
    "semigroup-good": (cmd_semigroup_good, "Goodness of a monomial fractional ideal", None),
    "verify": (cmd_verify, "Run the theorem suites over the built-in catalog", None),
}
# The flags of the commands that read a --ring algebra, by the input they
# belong to, in the order argparse adds them (its "the following arguments
# are required" message lists them in that order).
_RING_FLAGS = (
    ("ring", "--ring", dict(required=True, help="algebra file with an [algebra] section")),
    ("module", "--module", dict(help="module file ([module] section)")),
    ("ideal", "--ideal", dict(default="", help="ideal generators, e.g. 'x, y^2'")),
    ("verdict", "--seed", dict(type=int, default=20260810, help="seed of the sampled ideals over Q")),
    ("verdict", "--cap-enum", dict(type=int, help="bound on p^dim, the ring elements an exhaustive verdict "
                                   "scans, not on the number of ideals (default 10^6); unused over Q, "
                                   "where verdicts are sampled")),
    ("ring", "--cap-dim", dict(type=int, help="bound on dim R, and on n * dim R for a module with n "
                               "generators (default: the ring file's dim_cap, else 512)")),
)
_PARSER = None  # main's parser, built on its first call


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are the CLI's JSON error, exit 2."""

    def error(self, message):
        self.exit(2, canonical_json({"error": "UsageError", "message": message}))


def build_parser():
    """A new CLI parser.  `main` builds one on its first call and reuses it, so
    it must keep no state between calls: `parse_args` returns a fresh
    Namespace, usage errors and `--version` leave through SystemExit, and
    nothing changes the parser once it is built."""
    parser = _Parser(
        prog="tracelab",
        description="Exact trace/cotrace computations over Artinian local algebras "
        "and numerical semigroup rings.",
    )
    parser.add_argument("--version", action="version", version="tracelab %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_text, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="json", help="JSON, or key = value lines")
        if reads is not None:
            for part, flag, options in _RING_FLAGS:
                if part == "ring" or part in reads:
                    p.add_argument(flag, **options)
        elif name == "verify":
            p.add_argument("--suite", choices=("all", "1", "2", "3"), default="all")
            p.add_argument("--seed", type=int, default=20260810, help="seed of the catalog's random checks")
        else:
            p.add_argument("--gens", required=True, help="semigroup generators, e.g. 3,4")
            if name == "semigroup-report":
                p.add_argument("--max-power", type=int, help="highest power of m reported (default nu + 4)")
            else:
                p.add_argument("--ideal", required=True, help="ideal values, e.g. -3,5")
    return parser


def _render_text(report, out):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk("%s%s." % (prefix, key), obj[key])
        elif isinstance(obj, list):
            out.write("%s = %s\n" % (prefix[:-1], json.dumps(obj, sort_keys=True)))
        else:
            out.write("%s = %s\n" % (prefix[:-1], obj))

    walk("", report)


def main(argv=None):
    """One CLI request and its exit code; it may be called repeatedly in one
    process, and builds its parser only on the first call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    fn, _, reads = _COMMANDS[args.command]
    parts, out = [], None
    try:
        payload = fn(args, parts) if reads is None else fn(*_load(args, reads, parts))
        report = {
            "command": args.command,
            "fingerprint": _fingerprint(parts),
            "version": __version__,
            "result": payload,
        }
        out = sys.stdout
        if args.format == "json":
            out.writelines(_json_pieces(report))  # in pieces: no second copy of a large report
        else:
            _render_text(report, out)
        out.flush()  # a small report's write fails here, not in the interpreter's flush at exit
    except TraceLabError as exc:
        sys.stderr.write(
            canonical_json({"error": type(exc).__name__, "message": str(exc)})
        )
        return 2
    except OSError as exc:
        if out is not None:  # the report's unwritten rest goes to os.devnull, so the exit flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed pipe: the reader wanted no more
            sys.stderr.write(canonical_json({"error": "OSError", "message": str(exc)}))
        return 2
    except KeyboardInterrupt:  # run_suites has killed and reaped its workers by now
        sys.stderr.write(canonical_json({"error": "Interrupted", "message": "interrupted"}))
        return 2
    # A verify worker died.  Looked up only when an error gets here: cli never imports concurrent.futures.
    except getattr(sys.modules.get("concurrent.futures.process"), "BrokenProcessPool", ()) as exc:
        sys.stderr.write(canonical_json({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
