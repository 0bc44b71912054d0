"""Tests for structure files, form literals, and the inline text syntax."""

import json

from hypothesis import given, settings, strategies as st

import pytest

from oracles import matmul, transpose

from courantkit.exact import ParseError, Scalar, ONE, ZERO, parse_scalar
from courantkit.fileio import (
    StructureFileError,
    dumps_canonical,
    form_from_entries,
    load_spec,
    parse_inline_baseform,
    parse_inline_kerform,
    parse_inline_section,
    parse_subbundle_document,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from courantkit.kerforms import basis_wedge_form
from courantkit.structure import Section, SpecInvariantError
from courantkit.twist import base_form

x = Scalar.variable


def so3_doc():
    return {
        "ring": {"type": "point"}, "rank": 3,
        "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "bracket": {"0,1": ["0", "0", "1"], "1,0": ["0", "0", "-1"],
                    "1,2": ["1", "0", "0"], "2,1": ["-1", "0", "0"],
                    "2,0": ["0", "1", "0"], "0,2": ["0", "-1", "0"]},
        "kind": "courant",
    }


class TestLoad:
    def test_so3_document(self):
        spec = spec_from_dict(so3_doc())
        assert spec.rank == 3 and spec.is_point()

    def test_non_unit_determinant_named(self):
        doc = so3_doc()
        doc["ring"] = {"type": "polynomial", "vars": 1}
        doc["gram"][0][0] = "x1"
        with pytest.raises(SpecInvariantError, match="determinant"):
            spec_from_dict(doc)

    def test_parse_error_carries_location(self):
        doc = so3_doc()
        doc["gram"][0][1] = "x^"
        with pytest.raises(StructureFileError, match=r"\$\.gram\[0\]\[1\]"):
            spec_from_dict(doc)

    def test_bad_bracket_key(self):
        doc = so3_doc()
        doc["bracket"]["a"] = ["0", "0", "0"]
        with pytest.raises(StructureFileError, match="bracket key"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("key", ["00,1", "0,01", "٠,1"])
    def test_non_canonical_bracket_key_rejected(self, key):
        # "00,1" would load as (0, 1) and override the "0,1" entry
        doc = so3_doc()
        doc["bracket"][key] = ["0", "0", "5"]
        with pytest.raises(StructureFileError, match="bracket key"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("text, key", [
        ('{"rank": 3, "rank": 2}', "rank"),
        ('{"bracket": {"0,1": ["0", "0", "1"], "0,1": ["0", "0", "5"]}}', "0,1"),
    ])
    def test_repeated_json_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(StructureFileError, match=f"duplicate key '{key}'"):
            load_spec(str(path))

    def test_boolean_rank_rejected(self):
        doc = so3_doc()
        doc["rank"] = True
        with pytest.raises(StructureFileError, match=r"\$\.rank"):
            spec_from_dict(doc)

    def test_boolean_vars_rejected(self):
        doc = so3_doc()
        doc["ring"] = {"type": "polynomial", "vars": True}
        with pytest.raises(StructureFileError, match=r"\$\.ring\.vars"):
            spec_from_dict(doc)

    def test_boolean_twist_index_rejected(self):
        doc = so3_doc()
        doc["rank"] = 4
        doc["gram"] = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        doc["bracket"] = {}
        doc["twist"] = [{"indices": [False, 1, 2, 3], "coeff": "1"}]
        with pytest.raises(StructureFileError, match=r"\$\.twist\[0\]"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("ring, term, message", [
        ({"type": "point"}, {"indices": [0, 1, 2, 9], "coeff": "1"},
         "wedge indices (0, 1, 2, 9) out of range for rank 4 (at $.twist)"),
        ({"type": "point"}, {"indices": [-1, 0, 1, 2], "coeff": "1"},
         "wedge indices (-1, 0, 1, 2) out of range for rank 4 (at $.twist)"),
        ({"type": "polynomial", "vars": 1}, {"indices": [0, 1, 2, 3], "coeff": "x2"},
         "form coefficient uses more variables than the base ring has (at $.twist)"),
        ({"type": "point"}, {"indices": [0, 1, 2], "coeff": "1"},
         "term degree 3 does not match 4 (at $.twist[0])"),
    ])
    def test_malformed_twist_message(self, ring, term, message):
        doc = {"ring": ring, "rank": 4, "twist": [term],
               "gram": [["1" if i == j else "0" for j in range(4)] for i in range(4)]}
        with pytest.raises(StructureFileError) as info:
            spec_from_dict(doc)
        assert str(info.value) == message

    def test_standard_round_trip(self, std2, tmp_path):
        path = tmp_path / "std2.json"
        save_spec(std2, str(path))
        assert load_spec(str(path)) == std2

    def test_twisted_round_trip(self, ctwist4, tmp_path):
        path = tmp_path / "ct4.json"
        save_spec(ctwist4, str(path))
        reloaded = load_spec(str(path))
        assert reloaded == ctwist4
        assert reloaded.twist == ctwist4.twist

    def test_zero_twist_survives_round_trip(self, std2, tmp_path):
        from courantkit.kerforms import zero_form
        from courantkit.twist import twist_bracket

        spec = twist_bracket(std2, zero_form(std2, 3))
        doc = spec_to_dict(spec)
        assert doc["twist"] == []
        reloaded = spec_from_dict(json.loads(dumps_canonical(doc)))
        assert reloaded.twist is not None and reloaded.twist.is_zero()

    def test_invalid_json_located(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"ring": ')
        with pytest.raises(StructureFileError, match="line"):
            load_spec(str(path))


class TestFormLiterals:
    def test_entries_round_trip(self, ctwist4):
        entries = ctwist4.twist.to_entries()
        rebuilt = form_from_entries(ctwist4, entries)
        assert rebuilt == ctwist4.twist

    def test_decreasing_indices_rejected(self, std2):
        with pytest.raises(StructureFileError, match="increasing"):
            form_from_entries(std2, [{"indices": [2, 1], "coeff": "1"}])


class TestInline:
    def test_kerform_names(self, split4):
        form = parse_inline_kerform(split4, "e1^e2^e3")
        assert form == basis_wedge_form(split4, (0, 1, 2))

    def test_kerform_with_coefficient(self, std2):
        form = parse_inline_kerform(std2, "x1*dx1^dx2 - 2*e1^e2")
        assert form.coeffs[(2, 3)] == x(0)
        assert form.coeffs[(0, 1)] == Scalar.rational(-2)

    def test_dx_names_need_split_layout(self, so3):
        with pytest.raises(ParseError, match="split"):
            parse_inline_kerform(so3, "dx1^dx2")

    def test_baseform(self):
        c3 = parse_inline_baseform(4, "x1*dx2^dx3^dx4")
        assert c3 == base_form({(1, 2, 3): x(0)})

    def test_baseform_rejects_section_names(self):
        with pytest.raises(ParseError, match="dx"):
            parse_inline_baseform(4, "e1^e2^e3")

    def test_section(self, std2):
        s = parse_inline_section(std2, "e1 + x1*dx2")
        assert s == Section.make([ONE, ZERO, ZERO, x(0)])
        with pytest.raises(ParseError, match="degree-1"):
            parse_inline_section(std2, "e1^e2")

    @pytest.mark.parametrize("text, position, message", [
        ("x1*é*dx2^dx3^dx4", 3, "bad coefficient"),
        ("dx1^dx2^dx3 + 2 * x1 *  é*dx2^dx3^dx4", 24, "bad coefficient"),
        ("x1**dx2^dx3^dx4", 3, "empty factor"),
        ("x1*dx2^dx3^dx4*dx1^dx2^dx3", 15, "two wedge chains"),
        ("x1*dx2^dx3^dx4 - e1^e2^e3", 17, "dx<i> names"),
        ("  - x1*dx2^dx3^dx9", 15, "out of range"),
        ("dx1^dx2^dx3 + x2*dx2^dx3", 14, "mixed degrees"),
    ])
    def test_baseform_errors_name_the_offset_in_the_text(self, text, position,
                                                         message):
        with pytest.raises(ParseError, match=message) as info:
            parse_inline_baseform(4, text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position, message", [
        ("e1 + x1*é*e2", 8, "bad coefficient"),
        ("e1 + e2^e3 - dx1", 5, "mixed degrees"),
        ("e1 + 2*e9", 7, "out of range"),
        ("e1^e2^e9", 6, "out of range"),
    ])
    def test_kerform_errors_name_the_offset_in_the_text(self, std2, text,
                                                        position, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_inline_kerform(std2, text)
        assert info.value.position == position

    def test_subbundle_document(self, std2):
        doc = {"generators": ["dx1", ["0", "0", "0", "1"]]}
        gens = parse_subbundle_document(std2, doc)
        assert gens == [Section.basis(2, 4), Section.basis(3, 4)]


class TestRoundTripProperty:
    @st.composite
    @staticmethod
    def point_specs(draw):
        """Random valid point structures: congruence-transformed diagonal
        pairing (unit determinant by construction) and a skew basis table."""
        from courantkit.exact import Matrix
        from courantkit.structure import AlgebroidSpec, Section

        rank = draw(st.integers(2, 4))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(rank)]
        shear = [[draw(st.integers(-2, 2)) if i < j else (1 if i == j else 0)
                  for j in range(rank)] for i in range(rank)]
        a = Matrix([[Scalar.rational(v) for v in row] for row in shear])
        diag = Matrix([[Scalar.rational(signs[i] if i == j else 0)
                        for j in range(rank)] for i in range(rank)])
        gram = matmul(matmul(transpose(a), diag), a)
        table = {}
        for i in range(rank):
            for j in range(i + 1, rank):
                coeffs = [Scalar.rational(draw(st.fractions(
                    min_value=-2, max_value=2, max_denominator=3)))
                    for _ in range(rank)]
                sec = Section(tuple(coeffs))
                if not sec.is_zero():
                    table[(i, j)] = sec
                    table[(j, i)] = -sec
        return AlgebroidSpec("point", 0, rank, gram, None, table)

    @given(point_specs())
    @settings(max_examples=25, deadline=None)
    def test_random_point_specs_round_trip(self, spec):
        doc = json.loads(dumps_canonical(spec_to_dict(spec)))
        assert spec_from_dict(doc) == spec


class TestDeterminism:
    def test_canonical_dump_is_stable(self, ctwist4):
        a = dumps_canonical(spec_to_dict(ctwist4))
        b = dumps_canonical(spec_to_dict(ctwist4))
        assert a == b
        rebuilt = spec_from_dict(json.loads(a))
        assert dumps_canonical(spec_to_dict(rebuilt)) == a


class TestFuzz:
    """Malformed text and documents end in the package's typed errors.

    A document that parses but describes an invalid structure (a singular
    Gram matrix, say) raises SpecInvariantError, as TestLoad pins.
    """

    TYPED = (ParseError, StructureFileError)
    DOCUMENT = TYPED + (SpecInvariantError,)
    # the characters of the inline syntax, plus a few strangers
    INLINE = st.text(alphabet="ex0123456789dx^*+-/() .é", max_size=24)

    @given(INLINE)
    @settings(max_examples=150, deadline=None)
    def test_parse_scalar(self, text):
        try:
            parse_scalar(text)
        except self.TYPED:
            pass

    @given(INLINE)
    @settings(max_examples=150, deadline=None)
    def test_parse_inline_kerform(self, std2, text):
        try:
            parse_inline_kerform(std2, text)
        except self.TYPED:
            pass

    @given(INLINE)
    @settings(max_examples=150, deadline=None)
    def test_parse_inline_section(self, std2, text):
        try:
            parse_inline_section(std2, text)
        except self.TYPED:
            pass

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
        | st.sampled_from(["0", "1", "x1", "x^", "point", "polynomial", "0,1"]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(
            ["ring", "type", "vars", "rank", "gram", "anchor", "bracket",
             "twist", "kind", "indices", "coeff", "0,1"]), inner, max_size=5),
        max_leaves=12)

    @given(JSON)
    @settings(max_examples=150, deadline=None)
    def test_spec_from_dict_arbitrary(self, doc):
        try:
            spec_from_dict(doc)
        except self.DOCUMENT:
            pass

    @given(st.fixed_dictionaries({
        "ring": st.sampled_from([{"type": "point"},
                                 {"type": "polynomial", "vars": 1}]),
        "rank": st.integers(1, 3),
        "gram": JSON, "bracket": JSON, "twist": JSON, "anchor": JSON}))
    @settings(max_examples=150, deadline=None)
    def test_spec_from_dict_fields(self, doc):
        try:
            spec_from_dict(doc)
        except self.DOCUMENT:
            pass
