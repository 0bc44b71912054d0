"""JSON structure files and the inline text syntax for forms and sections.

Structure file schema (all polynomial entries use the text syntax of
courantkit.exact, variables x1..xn):

    {
      "ring":    {"type": "point"} | {"type": "polynomial", "vars": n},
      "rank":    r,
      "gram":    [[poly, ...], ...],             r x r, symmetric
      "anchor":  [[poly, ...], ...],             r x n, optional
      "bracket": {"i,j": [poly x r], ...},       0-based, missing pairs = 0
      "twist":   [{"indices": [i,j,k,l], "coeff": poly}, ...],  optional
      "kind":    "almost" | "strongly-anchored" | "courant" | "h-twisted"
    }

Wedge indices are 0-based and strictly increasing.  An absent "twist" means
no twist; an empty list is the zero 4-form (kept distinct so twisted suites
can run on explicitly-zero twists).

Inline form syntax (CLI): terms joined by +/-, each term an optional
polynomial coefficient followed by a ^-joined chain of basis names, e.g.
"e1^e2^e3" or "x1*dx2^dx3^dx4".  Basis names are 1-based: e<i> is the i-th
basis section; dx<i> is shorthand for basis slot n+i on rank-2n split
layouts.  For base forms on the underlying ring, dx<i> is the i-th
coordinate one-form.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from courantkit.exact import Matrix, ParseError, Scalar, ZERO, _split_signed_terms, parse_scalar
from courantkit.kerforms import KerForm, _form_coeffs, _sort_wedge
from courantkit.structure import AlgebroidSpec, Section, SpecInvariantError
from courantkit.twist import BaseForm, base_form


class StructureFileError(ValueError):
    """Malformed structure file; the message carries a JSON-path location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{message} (at {location})")
        self.location = location


def _parse_poly(text, location: str) -> Scalar:
    if not isinstance(text, str):
        raise StructureFileError(f"expected a polynomial string, got {text!r}",
                                 location)
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise StructureFileError(f"bad polynomial: {exc}", location) from exc


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_matrix(rows, location: str) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise StructureFileError("expected a list of rows", location)
    if any(len(r) != len(rows[0]) for r in rows):
        raise StructureFileError("rows differ in length", location)
    return Matrix([[_parse_poly(e, f"{location}[{i}][{j}]")
                    for j, e in enumerate(row)] for i, row in enumerate(rows)])


def spec_from_dict(doc: dict) -> AlgebroidSpec:
    if not isinstance(doc, dict):
        raise StructureFileError("structure file must be a JSON object")
    ring = doc.get("ring")
    if not isinstance(ring, dict) or ring.get("type") not in ("point", "polynomial"):
        raise StructureFileError('ring must be {"type":"point"} or '
                                 '{"type":"polynomial","vars":n}', "$.ring")
    if ring["type"] == "polynomial":
        nvars = ring.get("vars")
        if not _is_int(nvars) or nvars < 1:
            raise StructureFileError("polynomial ring needs vars >= 1", "$.ring.vars")
    else:
        nvars = 0
    rank = doc.get("rank")
    if not _is_int(rank) or rank < 1:
        raise StructureFileError("rank must be a positive integer", "$.rank")
    if "gram" not in doc:
        raise StructureFileError("missing gram matrix", "$.gram")
    gram = _parse_matrix(doc["gram"], "$.gram")
    anchor = None
    if doc.get("anchor") is not None:
        anchor = _parse_matrix(doc["anchor"], "$.anchor")
    table = {}
    bracket_doc = doc.get("bracket", {})
    if not isinstance(bracket_doc, dict):
        raise StructureFileError("bracket must be an object", "$.bracket")
    for key, entry in bracket_doc.items():
        m = re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", key)
        if not m:
            raise StructureFileError(f'bracket key {key!r} is not "i,j"',
                                     f"$.bracket[{key!r}]")
        i, j = int(m.group(1)), int(m.group(2))
        if not isinstance(entry, list) or len(entry) != rank:
            raise StructureFileError(f"bracket entry must list {rank} polynomials",
                                     f"$.bracket[{key!r}]")
        table[(i, j)] = Section(tuple(
            _parse_poly(e, f"$.bracket[{key!r}][{c}]")
            for c, e in enumerate(entry)))
    twist = doc.get("twist")
    if twist is not None:
        twist = _entry_coeffs(twist, 4, "$.twist", rank, nvars)[1]
    return AlgebroidSpec(ring["type"], nvars, rank, gram, anchor, table,
                         twist, doc.get("kind", "courant"))


def form_from_entries(spec: AlgebroidSpec, entries, degree: int | None = None,
                      location: str = "$") -> KerForm:
    """Form literal: list of {"indices": [...], "coeff": poly}; degree inferred."""
    return KerForm(spec, *_entry_coeffs(entries, degree, location,
                                        spec.rank, spec.nvars))


def _entry_coeffs(entries, degree, location, rank, nvars) -> tuple[int, dict]:
    """A form literal's degree and coefficients, checked by _form_coeffs."""
    if not isinstance(entries, list):
        raise StructureFileError("form literal must be a list", location)
    coeffs = {}
    inferred = degree
    for t, item in enumerate(entries):
        loc = f"{location}[{t}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise StructureFileError('form term needs "indices" and "coeff"', loc)
        idx = item["indices"]
        if (not isinstance(idx, list)
                or any(not _is_int(i) for i in idx)
                or any(a >= b for a, b in zip(idx, idx[1:]))):
            raise StructureFileError(
                "indices must be a strictly increasing integer list", loc)
        if inferred is None:
            inferred = len(idx)
        if len(idx) != inferred:
            raise StructureFileError(
                f"term degree {len(idx)} does not match {inferred}", loc)
        key = tuple(idx)
        value = _parse_poly(item["coeff"], f"{loc}.coeff")
        coeffs[key] = coeffs.get(key, ZERO) + value
    if inferred is None:
        raise StructureFileError("cannot infer the degree of an empty form "
                                 "literal; pass an explicit degree", location)
    try:
        return inferred, _form_coeffs(coeffs, inferred, rank, nvars)
    except ValueError as exc:
        raise StructureFileError(str(exc), location) from exc


def spec_to_dict(spec: AlgebroidSpec) -> dict:
    doc = {
        "ring": ({"type": "point"} if spec.is_point()
                 else {"type": "polynomial", "vars": spec.nvars}),
        "rank": spec.rank,
        "gram": [[e.to_text() for e in row] for row in spec.gram.entries],
        "kind": spec.kind,
    }
    if spec.anchor is not None:
        doc["anchor"] = [[e.to_text() for e in row] for row in spec.anchor.entries]
    doc["bracket"] = {f"{i},{j}": spec.bracket_table[(i, j)].to_text()
                      for (i, j) in sorted(spec.bracket_table)}
    if spec.twist is not None:
        doc["twist"] = spec.twist.to_entries()
    return doc


def dumps_canonical(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline-terminated."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a repeated key is a StructureFileError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise StructureFileError(f"duplicate key {key!r}")
    return doc


def parse_json(text: str):
    """The document in a JSON text; malformed text is a StructureFileError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} col {exc.colno}")


def read_json(path: str):
    """The document in a UTF-8 JSON file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StructureFileError(f"file is not UTF-8 text: {exc.reason}",
                                 f"byte {exc.start}")
    return parse_json(text)


def load_spec(path: str) -> AlgebroidSpec:
    return spec_from_dict(read_json(path))


def save_spec(spec: AlgebroidSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(spec_to_dict(spec)))


# -- inline text forms ------------------------------------------------------------

_BASIS_NAME = re.compile(r"^(e|dx)(\d+)$")


def _basis_index(spec: AlgebroidSpec, name: str, text: str, at: int) -> int:
    m = _BASIS_NAME.match(name)
    if not m:
        raise ParseError(f"bad basis name {name!r}", text, at)
    i = int(m.group(2))
    if i < 1:
        raise ParseError("basis names are 1-based", text, at)
    if m.group(1) == "e":
        idx = i - 1
    else:
        if spec.rank != 2 * spec.nvars or spec.nvars == 0:
            raise ParseError("dx<i> names need the rank-2n split layout", text, at)
        idx = spec.nvars + i - 1
    if idx >= spec.rank:
        raise ParseError(f"basis index {name} out of range", text, at)
    return idx


def _split_term(term: str, text: str,
                offset: int) -> tuple[Scalar, list[tuple[str, int]]]:
    """Split one inline term, which starts at ``offset`` in ``text``, into
    its polynomial coefficient and its basis-name chain, each name paired
    with its own offset in ``text``."""
    coeff = Scalar.rational(1)
    names: list[tuple[str, int]] = []
    for raw in term.split("*"):
        factor = raw.strip()
        at = offset + len(raw) - len(raw.lstrip())
        offset += len(raw) + 1
        if not factor:
            raise ParseError("empty factor", text, at)
        if "e" in factor or "d" in factor:
            if names:
                raise ParseError("two wedge chains in one term", text, at)
            for part in factor.split("^"):
                names.append((part.strip(), at + len(part) - len(part.lstrip())))
                at += len(part) + 1
        else:
            coeff = coeff * _inline_poly_factor(factor, text, at)
    return coeff, names


def _inline_poly_factor(factor: str, text: str, at: int) -> Scalar:
    try:
        return parse_scalar(factor)
    except ParseError as exc:
        raise ParseError(f"bad coefficient {factor!r}: {exc.message}",
                         text, at) from exc


def _inline_terms(text: str, index) -> tuple[int, dict]:
    """The terms of an inline form summed by sorted index tuple: (degree,
    {indices: coefficient}).  ``index(name, at)`` maps a basis name that
    starts at offset ``at`` to its slot."""
    coeffs: dict = {}
    degree = None
    for sign, term, start in _split_signed_terms(text):
        at = text.index(term, start)
        value, names = _split_term(term, text, at)
        indices = [index(name, name_at) for name, name_at in names]
        if degree is None:
            degree = len(indices)
        if len(indices) != degree:
            raise ParseError("mixed degrees in one form", text, at)
        key, wsign = _sort_wedge(indices)
        if wsign:
            coeffs[key] = coeffs.get(key, ZERO) + (
                value if sign * wsign > 0 else -value)
    return degree or 0, coeffs


def parse_inline_kerform(spec: AlgebroidSpec, text: str) -> KerForm:
    """Inline module form: e.g. "e1^e2^e3", "x1*dx2^dx3^dx4 - 2*e1^e2^e5"."""
    degree, coeffs = _inline_terms(
        text, lambda name, at: _basis_index(spec, name, text, at))
    try:
        return KerForm(spec, degree, coeffs)
    except SpecInvariantError as exc:
        raise ParseError(str(exc), text) from exc


def parse_inline_baseform(nvars: int, text: str) -> BaseForm:
    """Inline base form on the ring: e.g. "x1*dx2^dx3^dx4"; dx<i> is the
    i-th coordinate one-form."""

    def coordinate(name: str, at: int) -> int:
        m = _BASIS_NAME.match(name)
        if not m or m.group(1) != "dx":
            raise ParseError(f"base forms use dx<i> names, got {name!r}", text, at)
        i = int(m.group(2)) - 1
        if not (0 <= i < nvars):
            raise ParseError(f"coordinate {name} out of range", text, at)
        return i

    return base_form(_inline_terms(text, coordinate)[1])


def parse_inline_section(spec: AlgebroidSpec, text: str) -> Section:
    form = parse_inline_kerform(spec, text)
    if form.degree != 1:
        raise ParseError("a section is a degree-1 expression", text)
    return form.as_section()


def parse_subbundle_document(spec: AlgebroidSpec, doc: dict) -> list[Section]:
    if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
        raise StructureFileError('subspace file needs a "generators" list')
    gens = []
    for i, row in enumerate(doc["generators"]):
        if isinstance(row, str):
            gens.append(parse_inline_section(spec, row))
            continue
        if not isinstance(row, list) or len(row) != spec.rank:
            raise StructureFileError(
                f"generator must list {spec.rank} polynomials",
                f"$.generators[{i}]")
        gens.append(Section(tuple(
            _parse_poly(e, f"$.generators[{i}][{j}]") for j, e in enumerate(row))))
    return gens
