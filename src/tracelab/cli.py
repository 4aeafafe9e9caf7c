"""Command-line entry point: deterministic JSON (or text) reports.

Every report echoes the command, a content fingerprint of its inputs, the
tool version, and a result payload.  JSON is canonical: sorted keys, exact
rationals as "p/q" strings, value sets as {"below_conductor": [...],
"conductor": c}.  Exit codes: 0 success (even when a predicate is false),
1 only for `verify` runs that find a counterexample, 2 for input errors,
usage errors included, each with a JSON {"error", "message"} on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _fingerprint(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class _Inputs:
    """Collects raw input texts so the report can fingerprint them."""

    def __init__(self):
        self.parts = []

    def read_file(self, path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text (%s)" % (path, exc)) from None
        self.parts.append("file:%s" % text)
        return text

    def inline(self, label, value):
        self.parts.append("%s:%s" % (label, value))

    def fingerprint(self):
        return _fingerprint(self.parts)


def _load_algebra(args, inputs):
    text = inputs.read_file(args.ring)
    sections = parse_sections(text, source=args.ring)
    if "algebra" not in sections:
        raise TraceLabError("%s: no [algebra] section" % args.ring)
    pres = presentation_from_section(sections["algebra"], source=args.ring)
    if args.cap_dim is not None:
        if args.cap_dim < 0:
            raise ParseError("--cap-dim must be nonnegative, got %d" % args.cap_dim)
        pres.dim_cap = args.cap_dim
    return build_algebra(pres), sections


def _load_module(args, algebra, inputs, sections_of_ring):
    """The module to operate on: --module file, else the regular module."""
    source, sections = args.ring, sections_of_ring
    if getattr(args, "module", None):
        source = args.module
        sections = parse_sections(inputs.read_file(source), source=source)
        if "module" not in sections:
            raise TraceLabError("%s: no [module] section" % source)
    if "module" not in sections:
        return regular_module(algebra)
    rows, n_gens = module_rows_from_section(sections["module"], source=source)
    return module_from_presentation(algebra, rows, n_gens=n_gens)


def _load_ideal(args, algebra, inputs):
    gens = [g.strip() for g in args.ideal.split(",")] if args.ideal else []
    gens = [g for g in gens if g]
    inputs.inline("ideal", ";".join(gens))
    return ideal_from_elements(algebra, gens)


def _subspace(sub):
    return subspace_json(sub.carrier)


def _verdict_json(v):
    out = {"value": v.holds, "evidence": v.evidence, "ideals_tested": v.tested}
    if v.witness is not None:
        out["witness"] = _subspace(v.witness)
    return out


# -- payload builders -----------------------------------------------------------


def cmd_algebra_info(args, inputs):
    algebra, _ = _load_algebra(args, inputs)
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


def cmd_trace(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    ideal_sub = _load_ideal(args, algebra, inputs)
    ideal_rep = ideal_sub.as_module()
    tr = trace(ideal_sub, module)
    return {
        "module_dim": module.dim,
        "ideal": _subspace(ideal_sub),
        "trace": _subspace(tr),
        "ideal_times_module": _subspace(ideal_times_module(ideal_sub, module)),
        "annihilator_torsion": _subspace(
            torsion_submodule(module, annihilator(ideal_rep))
        ),
        "excellent_for_ideal": is_ideal_excellent(ideal_sub, module),
    }


def cmd_cotrace(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    ideal_sub = _load_ideal(args, algebra, inputs)
    ideal_rep = ideal_sub.as_module()
    co = cotrace(ideal_sub, module)
    return {
        "module_dim": module.dim,
        "ideal": _subspace(ideal_sub),
        "cotrace": _subspace(co),
        "annihilator_times_module": _subspace(
            ideal_times_module(annihilator(ideal_rep), module)
        ),
        "torsion": _subspace(torsion_submodule(module, ideal_sub)),
        "coexcellent_for_ideal": is_ideal_coexcellent(ideal_sub, module),
    }


def cmd_ext1(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    ideal_sub = _load_ideal(args, algebra, inputs)
    return {
        "module_dim": module.dim,
        "ideal_dim": ideal_sub.dim,
        "ext1_dim": ext1(ideal_sub, module).dim,
    }


def cmd_tor1(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    ideal_sub = _load_ideal(args, algebra, inputs)
    return {
        "module_dim": module.dim,
        "ideal_dim": ideal_sub.dim,
        "tor1_dim": tor1(module, ideal_sub).dim,
    }


def cmd_dual(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    dual = matlis_dual(module)
    double = matlis_dual(dual.rep)
    return {
        "module_dim": module.dim,
        "dual_dim": dual.rep.dim,
        "socle_dim_of_dual": socle(dual.rep).dim,
        "double_dual_matches": double.rep.actions == module.actions,
    }


def _verdict_kwargs(args, algebra, inputs):
    """The seed (over Q) and the --cap-enum cap of an all-ideals verdict."""
    kwargs = {} if algebra.field.is_finite else {"seed": args.seed}
    if args.cap_enum is not None:
        if args.cap_enum < 0:
            raise ParseError("--cap-enum must be nonnegative, got %d" % args.cap_enum)
        kwargs["cap"] = args.cap_enum
    inputs.inline("seed", str(args.seed))
    return kwargs


def cmd_excellent(args, inputs):
    algebra, ring_sections = _load_algebra(args, inputs)
    module = _load_module(args, algebra, inputs, ring_sections)
    kwargs = _verdict_kwargs(args, algebra, inputs)
    return {
        "excellent": _verdict_json(excellence_verdict(module, **kwargs)),
        "coexcellent": _verdict_json(coexcellence_verdict(module, **kwargs)),
    }


def cmd_good(args, inputs):
    algebra, _ = _load_algebra(args, inputs)
    ideal_sub = _load_ideal(args, algebra, inputs)
    tr = trace(ideal_sub, regular_module(algebra))
    return {
        "ideal": _subspace(ideal_sub),
        "trace": _subspace(tr),
        "good": {"value": is_good_ideal(ideal_sub), "evidence": "formula"},
    }


def cmd_qf(args, inputs):
    algebra, _ = _load_algebra(args, inputs)
    reg = regular_module(algebra)
    kwargs = _verdict_kwargs(args, algebra, inputs)
    return {
        "quasi_frobenius": {"value": is_quasi_frobenius(algebra), "evidence": "formula"},
        "socle_dim": socle(reg).dim,
        "excellent": _verdict_json(excellence_verdict(reg, **kwargs)),
    }


def cmd_semigroup_report(args, inputs):
    gens = parse_int_list(args.gens)
    inputs.inline("gens", args.gens)
    inputs.inline("max_power", str(args.max_power))
    s = make(gens)
    report = matlis_report(s, args.max_power)
    return report.to_json()


def cmd_semigroup_good(args, inputs):
    gens = parse_int_list(args.gens)
    inputs.inline("gens", args.gens)
    s = make(gens)
    vals = parse_int_list(args.ideal)
    inputs.inline("ideal", args.ideal)
    e = value_ideal(vals, s)
    return {
        "ideal": e.to_json(),
        "inverse": inverse(e, s).to_json(),
        "trace": trace_value(e, s).to_json(),
        "good": {"value": is_good(e, s), "evidence": "formula"},
        "self_colon_equals_inverse": self_colon_eq_inverse(e, s),
    }


def cmd_verify(args, inputs):
    spec = default_catalog(seed=args.seed)
    inputs.inline("seed", str(args.seed))
    inputs.inline("spec", json.dumps(spec.to_json(), sort_keys=True))
    names = {
        "all": ("section1", "section2", "section3"),
        "1": ("section1",),
        "2": ("section2",),
        "3": ("section3",),
    }[args.suite]
    results = run_suites(spec, suites=names)
    return {
        "catalog": spec.to_json(),
        "suites": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


_COMMANDS = {
    "algebra-info": (cmd_algebra_info, "Dimensions and structure of a presented algebra"),
    "trace": (cmd_trace, "Trace of an ideal in a module, with the sandwich bounds"),
    "cotrace": (cmd_cotrace, "Cotrace of an ideal in a module, with its bounds"),
    "ext1": (cmd_ext1, "Dimension of Ext1(R/I, M)"),
    "tor1": (cmd_tor1, "Dimension of Tor1(M, R/I)"),
    "dual": (cmd_dual, "Matlis dual of a module"),
    "excellent": (cmd_excellent, "Excellence and coexcellence verdicts for a module"),
    "good": (cmd_good, "Whether an ideal equals its trace in R"),
    "qf": (cmd_qf, "Quasi-Frobenius test plus the excellence verdict of R"),
    "semigroup-report": (cmd_semigroup_report, "Stable-trace report for a numerical semigroup"),
    "semigroup-good": (cmd_semigroup_good, "Goodness of a monomial fractional ideal"),
    "verify": (cmd_verify, "Run the theorem suites over the built-in catalog"),
}
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
    for name, (_fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name in ("semigroup-report", "semigroup-good"):
            p.add_argument("--gens", required=True, help="semigroup generators, e.g. 3,4")
            if name == "semigroup-report":
                p.add_argument("--max-power", type=int, default=None)
            else:
                p.add_argument("--ideal", required=True, help="ideal values, e.g. -3,5")
        elif name == "verify":
            p.add_argument("--suite", choices=("all", "1", "2", "3"), default="all")
            p.add_argument("--seed", type=int, default=20260810)
        else:
            p.add_argument("--ring", required=True, help="algebra file with an [algebra] section")
            if name in ("trace", "cotrace", "ext1", "tor1", "dual", "excellent"):
                p.add_argument("--module", default=None, help="module file ([module] section)")
            if name in ("trace", "cotrace", "ext1", "tor1", "good"):
                p.add_argument("--ideal", default="", help="ideal generators, e.g. 'x, y^2'")
            if name in ("excellent", "qf"):
                p.add_argument("--seed", type=int, default=20260810)
                p.add_argument("--cap-enum", type=int, default=None)
            p.add_argument("--cap-dim", type=int, default=None)
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
    fn, _ = _COMMANDS[args.command]
    inputs = _Inputs()
    try:
        payload = fn(args, inputs)
    except TraceLabError as exc:
        sys.stderr.write(
            canonical_json({"error": type(exc).__name__, "message": str(exc)})
        )
        return 2
    except OSError as exc:
        sys.stderr.write(canonical_json({"error": "OSError", "message": str(exc)}))
        return 2
    report = {
        "command": args.command,
        "fingerprint": inputs.fingerprint(),
        "version": __version__,
        "result": payload,
    }
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        _render_text(report, sys.stdout)
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
