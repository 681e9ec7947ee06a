"""Every refusal of the file parser and of ``FilteredComplex.build``, worded exactly.

One row per check: the input, the message, and for a ParseError the line and
the column of the field at fault (1-based, counting leading whitespace). A
column points into a field only for a boundary term's target name.
"""

import pytest
from pytest import param as P

from morseminmax import grammar
from morseminmax.complexes import FilteredComplex, parse_complex, serialize, validate
from morseminmax.errors import InternalInconsistencyError, ParseError
from morseminmax.gen import single_point

HEAD = "ambient 2\npoint a 0 0\npoint b 1 1\n"  # a boundary may name a, not b
LONG = "9" * 5000
TOO_LONG = f"number {LONG[:12]}... is too long (5000 characters)"

PARSE_ERRORS = [
    # the ambient line
    P("", "missing 'ambient' line", 1, 1, id="empty"),
    P("# a comment\n\n   \n", "missing 'ambient' line", 1, 1, id="comments-only"),
    P("point a 1 0\n", "expected 'ambient <positive integer>' as the first line",
      1, 1, id="first-line-point"),
    P("\n  ambient 2 3\n", "expected 'ambient <positive integer>' as the first line",
      2, 3, id="ambient-extra-field"),
    P(f"ambient {LONG}\n", TOO_LONG, 1, 9, id="ambient-too-long"),
    P("ambient  0\n", "ambient dimension must be a positive integer, got '0'",
      1, 10, id="ambient-zero"),
    P("ambient 2\n ambient 3\n", "duplicate ambient line", 2, 2, id="ambient-twice"),
    # point lines
    P("ambient 2\npoint a 1\n", "expected 'point <name> <degree> <value>'",
      2, 1, id="point-short"),
    P("ambient 2\npoint a 1 0 0\n", "expected 'point <name> <degree> <value>'",
      2, 1, id="point-long"),
    P("ambient 2\npoint a-b 1 0\n", "bad point name 'a-b'", 2, 7, id="point-bad-name"),
    P("ambient 2\npoint n 1 1\npoint n 1 2\n", "duplicate point name 'n'", 3, 7, id="point-twice"),
    P("ambient 2\n\tpoint  a  x 0\n", "degree must be an integer, got 'x'",
      2, 12, id="degree-not-integer"),
    P(f"ambient 2\npoint a {LONG} 0\n", TOO_LONG, 2, 9, id="degree-too-long"),
    P("ambient 2\npoint a 1 zero\n", "bad critical value 'zero'", 2, 11, id="value-bad"),
    P("ambient 2\npoint a 1 1/0\n", "bad critical value '1/0'",
      2, 11, id="value-zero-denominator"),
    P(f"ambient 2\npoint a 1 -{LONG}\n", f"number -{LONG[:11]}... is too long (5001 characters)",
      2, 11, id="numerator-too-long"),
    P(f"ambient 2\npoint a 1 1/{LONG}\n", TOO_LONG, 2, 13, id="denominator-too-long"),
    # boundary lines
    P(HEAD + "boundary b 1*a\n", "expected 'boundary <name> : <c>*<name> ...'",
      4, 1, id="boundary-no-colon"),
    P(HEAD + "boundary b :\n", "expected 'boundary <name> : <c>*<name> ...'",
      4, 1, id="boundary-no-terms"),
    P(HEAD + "boundary c : 1*a\n", "unknown point name 'c'", 4, 10, id="boundary-unknown-source"),
    P(HEAD + "boundary b : 1*a\nboundary b : 1*a\n", "duplicate boundary line for 'b'",
      5, 10, id="boundary-twice"),
    P(HEAD + "boundary b : 1/2*a\n", "non-integer coefficient in '1/2*a'",
      4, 14, id="coefficient-not-integer"),
    P(HEAD + "boundary b : 1*a x\n", "bad boundary term 'x'", 4, 18, id="term-bad"),
    P(HEAD + f"boundary b : {LONG}*a\n", TOO_LONG, 4, 14, id="coefficient-too-long"),
    P(HEAD + "boundary b : -0*a\n", "zero coefficient on 'a'", 4, 14, id="coefficient-zero"),
    P("ambient 2\npoint b 1 1\nboundary b : 1*a\n", "unknown point name 'a'",
      3, 16, id="target-unknown"),
    P(HEAD + "point z 1 2\nboundary b : 1*a  -2*z\n",
      "boundary of 'b' hits 'z' of degree 1, expected 0", 5, 22, id="target-degree"),
    P(HEAD + "boundary b : 1*a 1*a\n", "duplicate boundary term for 'a'",
      4, 18, id="target-twice"),
    # the first failing check of a line is the one reported
    P(HEAD + "boundary b : 0*q 1*q\n", "zero coefficient on 'q'", 4, 14, id="first-check-zero"),
    P(HEAD + "boundary b : 1*q x\n", "unknown point name 'q'", 4, 16, id="first-check-target"),
    P(HEAD + "boundary c : x\n", "unknown point name 'c'", 4, 10, id="first-check-source"),
    # other lines
    P("ambient 2\n  foo a\n", "unknown directive 'foo'", 2, 3, id="unknown-directive"),
    P("ambient 2\npoint a 0 0 # a comment\npointa 1 1\n", "unknown directive 'pointa'",
      3, 1, id="directive-joined"),
]


@pytest.mark.parametrize("text, message, line, column", PARSE_ERRORS)
def test_parse_error_wording_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_complex(text, check=False)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{message} (line {line}, column {column})", line, column)


def test_parse_errors_take_line_ends_and_whitespace_of_str_methods():
    # \x1c ends a line for str.splitlines; \u3000 separates fields for str.split
    text = "ambient 2\x1cpoint a 0 0\u3000# c\r\npoint\u3000a 1 1\n"
    with pytest.raises(ParseError) as exc:
        parse_complex(text, check=False)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        "duplicate point name 'a' (line 3, column 7)", 3, 7)


POINTS = [("a", 0, 0), ("b", 1, 1), ("c", 1, 2)]

BUILD_ERRORS = [
    (0, POINTS, None, "ambient dimension must be a positive integer"),
    # an ambient dimension or a degree that is not integral, where int() truncates
    (2.5, POINTS, None, "ambient dimension must be a positive integer"),
    ("2/3", POINTS, None, "ambient dimension must be a positive integer"),
    (None, POINTS, None, "ambient dimension must be a positive integer"),
    (1, [("a", 0, 0), ("b", 1.5, 1)], None, "degree of point 'b' is not an integer"),
    (1, [("a", 0, 0), ("b", "one", 1)], None, "degree of point 'b' is not an integer"),
    (1, [("a", 0, 0), ("a b", 0, 1)], None, "bad point name 'a b'"),
    (1, [("a", 0, 0), ("", 0, 1)], None, "bad point name ''"),
    (1, [("a", 0, 0), ("b", 0, 1), ("a", 1, 2)], None, "duplicate point name 'a'"),
    (1, POINTS, {"x": {}}, "unknown point name 'x' in boundary"),
    (1, POINTS, {"b": {"a": 1, "x": 1}}, "unknown point name 'x' in boundary of 'b'"),
    (1, POINTS, {"b": {"x": 0}}, "unknown point name 'x' in boundary of 'b'"),
    (1, POINTS, {"b": {"c": 1}}, "boundary of 'b' (degree 1) hits 'c' of degree 1"),
    (1, POINTS, {"a": {"b": 1}}, "boundary of 'a' (degree 0) hits 'b' of degree 1"),
    # the first refusal in input order is the one raised
    (1, POINTS, {"b": {"c": 1}, "x": {}}, "boundary of 'b' (degree 1) hits 'c' of degree 1"),
    (1, POINTS, {"b": {"c": 0}, "c": {"a": 1, "b": 1}},
     "boundary of 'c' (degree 1) hits 'b' of degree 1"),
]


@pytest.mark.parametrize("ambient, points, boundaries, message", BUILD_ERRORS)
def test_build_error_wording(ambient, points, boundaries, message):
    with pytest.raises(ValueError) as exc:
        FilteredComplex.build(ambient, points, boundaries)
    assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize("ambient", [True, "3", 3.0])
def test_build_stores_an_integral_ambient_dimension_as_an_int(ambient):
    c = FilteredComplex.build(ambient, [("a", 0, 0)])
    assert type(c.ambient_dim) is int and c.ambient_dim == int(ambient)
    assert validate(c).admissible
    assert parse_complex(serialize(c)) == c


def test_build_stores_an_integral_degree_as_an_int():
    c = FilteredComplex.build(2, [("a", 0, 0), ("b", True, 1), ("c", "2", 2)])
    assert [(p.name, type(p.degree), p.degree) for p in c.all_points()] == [
        ("a", int, 0), ("b", int, 1), ("c", int, 2)]


@pytest.mark.parametrize("degree, ambient, message", [
    (1.5, 2, "degree of point 'xi' is not an integer"),
    (0, 2.5, "ambient dimension must be a positive integer"),
])
def test_single_point_refuses_what_build_refuses(degree, ambient, message):
    with pytest.raises(ValueError) as exc:
        single_point(degree, 0, ambient)
    assert str(exc.value) == message


def test_build_drops_zero_coefficients_before_checking_degrees():
    c = FilteredComplex.build(1, POINTS, {"b": {"c": 0, "a": 2}, "c": {"b": 0}})
    assert c.columns(1) == (((0, 2),), ())


def test_a_line_the_regexes_miss_but_the_field_checks_pass_is_an_internal_error(monkeypatch):
    # the field checks only word refusals; a line they pass must not be dropped
    monkeypatch.setattr(grammar, "_POINT_LINE", lambda raw: None)
    with pytest.raises(InternalInconsistencyError, match="line 2"):
        parse_complex("ambient 1\npoint a 0 0\n")
