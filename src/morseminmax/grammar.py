"""Reading the complex file format: what a line and its fields may be.

:func:`read_complex` accepts a point or boundary line when all of it
matches ``_POINT_LINE`` or ``_BOUNDARY_LINE``, and then reads it with
string methods. Any other line goes to :func:`_check_fields`, which checks
it field by field: it passes a blank line, reads the ambient line, and
words the error of every line the reader refuses. A line's fields are what
``str.split()`` makes of it before its first ``#``; the ``\\s`` of the
regexes is the same whitespace, and ``[0-9]`` the only digits.

What :func:`read_complex` returns is checked as far as
``FilteredComplex.build`` checks its input, and in the form of build's own
checked input, so ``complexes.parse_complex`` hands it to the one assembly
they share, and nothing is checked or converted twice.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction

from .errors import InternalInconsistencyError, ParseError

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_NAT_RE = re.compile(r"[0-9]+\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_VALUE_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")
_TERM_RE = re.compile(r"(-?[0-9]+)\*([A-Za-z0-9_]+)\Z")
_FIELDS = re.compile(r"\S+").finditer
# whole valid lines, comment included; neither matches a zero denominator or coefficient
_POINT_LINE = re.compile(r"\s*point\s+([A-Za-z0-9_]+)\s+(-?[0-9]+)\s+"
                         r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?\s*(?:#.*)?").fullmatch
_BOUNDARY_LINE = re.compile(r"\s*boundary\s+([A-Za-z0-9_]+)\s+:"
                            r"((?:\s+-?0*[1-9][0-9]*\*[A-Za-z0-9_]+)+)\s*(?:#.*)?").fullmatch


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"number {tok[:12]}... is too long ({len(tok)} characters)",
                         tok) from None


def parse_value(tok: str) -> Fraction:
    """A value in the file grammar: an integer or ``p/q`` with q > 0, and no
    decimals or exponents. A ValueError's args are its message and the part
    of ``tok`` at fault."""
    m = _VALUE_RE.match(tok)
    denominator = _integer(m.group(2) or "1") if m else 0
    if denominator == 0:
        raise ValueError(f"bad critical value {tok!r}", tok)
    numerator = _integer(m.group(1))
    return Fraction(numerator, denominator) if m.group(2) else Fraction(numerator)


def _check_fields(lineno, raw, ambient, declared, boundaries):
    """Check line ``lineno`` field by field against the ``declared`` degrees
    and the ``boundaries`` read so far, and raise the ParseError of the first
    check that fails, at the field at fault (at the target name, in a term).
    Return None for a blank line and, while ``ambient`` is None, the
    dimension an ambient line declares."""
    found = list(_FIELDS(raw.split("#", 1)[0]))
    fields = [m[0] for m in found]

    def need(ok, msg, i=0, at=0):  # else fail ``at`` characters into field i
        if not ok:
            raise ParseError(msg, lineno, found[i].start() + at + 1)

    def num(i, tok=None, read=_integer):  # the number of field i or of its prefix tok
        tok = tok or fields[i]
        try:
            return read(tok)
        except ValueError as exc:
            msg, part = exc.args  # its message and the part of tok at fault
            need(False, msg, i, tok.rfind(part))

    if not fields:
        return None
    head = fields[0]
    if ambient is None:
        need(head == "ambient" and len(fields) == 2,
             "expected 'ambient <positive integer>' as the first line")
        ambient = num(1) if _NAT_RE.match(fields[1]) else 0
        need(ambient > 0, f"ambient dimension must be a positive integer, got {fields[1]!r}", 1)
        return ambient
    need(head != "ambient", "duplicate ambient line")
    need(head in ("point", "boundary"), f"unknown directive {head!r}")
    if head == "point":
        need(len(fields) == 4, "expected 'point <name> <degree> <value>'")
        name, degree = fields[1:3]
        need(NAME_RE.match(name), f"bad point name {name!r}", 1)
        need(name not in declared, f"duplicate point name {name!r}", 1)
        need(_INT_RE.match(degree), f"degree must be an integer, got {degree!r}", 2)
        num(2)
        num(3, read=parse_value)
    else:
        need(len(fields) > 3 and fields[2] == ":", "expected 'boundary <name> : <c>*<name> ...'")
        name, seen = fields[1], set()
        need(name in declared, f"unknown point name {name!r}", 1)
        need(name not in boundaries, f"duplicate boundary line for {name!r}", 1)
        k = declared[name] - 1
        for i, tok in enumerate(fields[3:], start=3):
            m = _TERM_RE.match(tok)
            need(m or "*" not in tok or _INT_RE.match(tok.split("*", 1)[0]),
                 f"non-integer coefficient in {tok!r}", i)
            need(m, f"bad boundary term {tok!r}", i)
            tgt = m[2]
            need(num(i, m[1]), f"zero coefficient on {tgt!r}", i)
            need(tgt in declared, f"unknown point name {tgt!r}", i, m.start(2))
            need(declared[tgt] == k, f"boundary of {name!r} hits {tgt!r} of degree "
                 f"{declared[tgt]}, expected {k}", i, m.start(2))
            need(tgt not in seen, f"duplicate boundary term for {tgt!r}", i)
            seen.add(tgt)
    raise InternalInconsistencyError(f"line {lineno} passes every field check, yet no line regex")


def _decode(data: bytes) -> str:
    """UTF-8 text of ``data``; a bad byte is a ParseError at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a stand-in character at the bad byte takes its line and column
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"input is not UTF-8 ({exc.reason})",
                         len(lines), len(lines[-1])) from None


def read_complex(data: bytes | str):
    """The ambient dimension, points and boundaries of a complex file, checked
    and in the form ``FilteredComplex._assemble`` takes; ParseError on a line
    it refuses.

    Points are ``(floor of value, value, name, degree)`` tuples, the names
    distinct and the values Fractions. Boundaries map a point's name to its
    ``{target: coefficient}`` chain: names declared one degree lower, and
    nonzero ints. A line is accepted by one regex match, and a boundary's
    targets by one subset test against the names declared one degree lower.
    """
    text = _decode(data) if isinstance(data, (bytes, bytearray)) else data
    points, boundaries = [], {}
    declared, names = {}, defaultdict(set)  # name -> degree; degree -> names
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:  # blank lines, then the ambient line
        if ambient := _check_fields(lineno, raw, None, declared, boundaries):
            break
    else:
        raise ParseError("missing 'ambient' line", 1, 1)
    for lineno, raw in lines:
        try:
            if (m := _POINT_LINE(raw)) and m[1] not in declared:
                name, degree, num, den = m.groups()
                degree, num = int(degree), int(num)
                if den:  # the floor of num/den is num // den, reduced or not
                    den = int(den)
                    points.append((num // den, Fraction(num, den), name, degree))
                else:
                    points.append((num, Fraction(num), name, degree))
                declared[name] = degree
                names[degree].add(name)
                continue
            if (m := _BOUNDARY_LINE(raw)) and m[1] in declared and m[1] not in boundaries:
                terms = m[2].replace("*", " ").split()  # coefficient, target, ...
                chain = dict(zip(terms[1::2], map(int, terms[::2])))
                if 2 * len(chain) == len(terms) and chain.keys() <= names[declared[m[1]] - 1]:
                    boundaries[m[1]] = chain
                    continue
        except ValueError:  # a number longer than int() converts
            pass
        _check_fields(lineno, raw, ambient, declared, boundaries)
    return ambient, points, boundaries
