"""Flat key/value input files with [algebra] and [module] sections.

UTF-8, '#' starts a comment, blank lines ignored.  Unknown sections or keys
are errors, not warnings.

    [algebra]
    field = Q                      # Q | F2 | F3 | F5
    variables = x, y
    relations = x^2, x*y, y^2

    [module]
    generators = 2
    presentation = x, y ; 0, x^2   # rows separated by ';', entries by ','
"""

from __future__ import annotations

from .artin import PolynomialPresentation
from .errors import ParseError

_ALGEBRA_KEYS = {"field", "variables", "relations", "dim_cap"}
_MODULE_KEYS = {"generators", "presentation"}


def parse_sections(text, source="<input>"):
    """Parse section -> {key: value}; duplicate sections or keys are errors."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("algebra", "module"):
                raise ParseError("%s:%d: unknown section [%s]" % (source, lineno, name))
            if name in sections:
                raise ParseError("%s:%d: duplicate section [%s]" % (source, lineno, name))
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("%s:%d: expected 'key = value', got %r" % (source, lineno, line))
        if current is None:
            raise ParseError("%s:%d: key/value outside any section" % (source, lineno))
        key, value = line.split("=", 1)
        key = key.strip()
        allowed = _ALGEBRA_KEYS if current == "algebra" else _MODULE_KEYS
        if key not in allowed:
            raise ParseError(
                "%s:%d: unknown key %r in [%s] (allowed: %s)"
                % (source, lineno, key, current, sorted(allowed))
            )
        if key in sections[current]:
            raise ParseError("%s:%d: duplicate key %r" % (source, lineno, key))
        sections[current][key] = value.strip()
    return sections


def _split_list(value):
    return [part.strip() for part in value.split(",") if part.strip()]


def presentation_from_section(section, source="<input>"):
    """PolynomialPresentation from an [algebra] section dict."""
    for needed in ("field", "variables", "relations"):
        if needed not in section:
            raise ParseError("%s: [algebra] section is missing %r" % (source, needed))
    kwargs = {}
    if "dim_cap" in section:
        try:
            kwargs["dim_cap"] = int(section["dim_cap"])
        except ValueError:
            raise ParseError("%s: dim_cap must be an integer" % source) from None
        if kwargs["dim_cap"] < 0:
            raise ParseError("%s: dim_cap must be nonnegative" % source)
    return PolynomialPresentation(
        section["field"],
        _split_list(section["variables"]),
        _split_list(section["relations"]),
        **kwargs,
    )


def module_rows_from_section(section, source="<input>"):
    """(rows, n_gens) from a [module] section dict."""
    if "generators" not in section:
        raise ParseError("%s: [module] section is missing 'generators'" % source)
    try:
        n_gens = int(section["generators"])
    except ValueError:
        raise ParseError("%s: generators must be an integer" % source) from None
    if n_gens < 0:
        raise ParseError("%s: generators must be nonnegative" % source)
    raw = section.get("presentation", "").strip()
    if not raw:
        return [], n_gens
    rows = [[entry.strip() for entry in row.split(",")] for row in raw.split(";")]
    if len(rows) != n_gens:
        raise ParseError(
            "%s: presentation has %d rows but generators = %d" % (source, len(rows), n_gens)
        )
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ParseError("%s: ragged presentation matrix" % source)
        for entry in row:
            if not entry:
                raise ParseError("%s: empty presentation entry" % source)
    return rows, n_gens


def parse_int_list(text):
    """Comma-separated integers, e.g. a --gens or value-ideal argument."""
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParseError("expected comma-separated integers, got %r" % text) from None
