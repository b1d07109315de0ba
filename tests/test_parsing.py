import random
import string

import pytest

from polarmap import ParseError, Polynomial, parsing
from polarmap.parsing import (
    parse_arrangement,
    parse_expression,
    parse_polynomial,
)
from polarmap.report import ReportDocument
from gens import random_poly


def test_parse_examples():
    p = parse_polynomial("x0*x1*x2")
    assert p == Polynomial(3, {(1, 1, 1): 1})
    q = parse_polynomial("(x0+x1)^2*x2")
    assert q == Polynomial(3, {(2, 0, 1): 1, (1, 1, 1): 2, (0, 2, 1): 1})
    conic = parse_polynomial("x1^2 - x0*x2")
    assert conic == Polynomial(3, {(0, 2, 0): 1, (1, 0, 1): -1})


def test_precedence_unary_minus_below_power():
    assert parse_polynomial("-x0^2", nvars=1) == Polynomial(1, {(2,): -1})
    assert parse_polynomial("-2^2") == Polynomial.constant(1, -4)
    assert parse_polynomial("(-x0)^2", nvars=1) == Polynomial(1, {(2,): 1})
    assert parse_polynomial("--x0", nvars=1) == Polynomial(1, {(1,): 1})


def test_power_edge_cases():
    assert parse_polynomial("x0^0", nvars=1) == Polynomial.constant(1, 1)
    assert parse_polynomial("x0^1", nvars=1) == Polynomial.variable(1, 0)
    with pytest.raises(ParseError):
        parse_polynomial("x0^-2")
    with pytest.raises(ParseError):
        parse_polynomial("x0^x1")
    with pytest.raises(ParseError):
        parse_polynomial("x0^10000")


def test_syntax_errors_with_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + $")
    assert err.value.line == 1
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 +\n* x1")
    assert err.value.line == 2
    for bad in ("", "x", "(x0", "x0)", "x0 x1", "*x0", "x0**x1", "()"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_variable_index_rules():
    with pytest.raises(ParseError):
        parse_polynomial("x0*x2")          # gap at x1 under inference
    p = parse_polynomial("x0*x2", nvars=3)  # explicit count permits the gap
    assert p == Polynomial(3, {(1, 0, 1): 1})
    with pytest.raises(ParseError):
        parse_polynomial("x2", nvars=2)
    with pytest.raises(ParseError):
        parse_polynomial("x500")
    assert parse_polynomial("7") == Polynomial.constant(1, 7)


def test_require_homogeneous():
    parse_polynomial("x0^2+x1^2", require_homogeneous=True)
    with pytest.raises(ParseError):
        parse_polynomial("x0^2+x1", require_homogeneous=True)


def test_nesting_depth_guard():
    deep = "(" * 300 + "x0" + ")" * 300
    with pytest.raises(ParseError):
        parse_polynomial(deep)


def test_expansion_budget_guard():
    with pytest.raises(ParseError):
        parse_polynomial("(x0+x1+x2+x3+x4+x5)^40")


def test_power_multiplications_share_the_budget(monkeypatch):
    # (x0+x1)^k costs 2*1 + 2*2 + ... + 2*k = k(k+1) term products: at a
    # budget of 20 the 4th power fits, and the 5th is refused although each
    # of its multiplications (at most 2*5 = 10) fits alone
    monkeypatch.setattr(parsing, "_TERM_BUDGET", 20)
    assert len(parse_polynomial("(x0+x1)^4").terms) == 5
    with pytest.raises(ParseError, match="exceeds 20 terms") as err:
        parse_polynomial("x1 + (x0+x1)^5")
    assert (err.value.line, err.value.column) == (1, 13)
    # a one-term base spends one product per multiplication
    assert parse_polynomial("x0^20") == parse_polynomial("x0^10*x0^10")
    with pytest.raises(ParseError):
        parse_polynomial("x0^21")


def test_format_examples():
    assert str(parse_polynomial("x1*x2", nvars=3)) == "x1*x2"
    assert str(parse_polynomial("-x0^2 + x1*x2")) == "-x0^2 + x1*x2"
    assert str(Polynomial.zero(2)) == "0"


def test_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 4), max_degree=4, max_terms=6)
        text = str(p)
        assert parse_polynomial(text, nvars=p.nvars) == p


def test_fuzz_never_crashes():
    rng = random.Random(99)
    alphabet = "x0123456789+-*^() \n" + string.ascii_lowercase
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        try:
            parse_polynomial(text)
        except ParseError:
            pass


def test_parse_arrangement_examples():
    A = parse_arrangement("x0*x1*x2*x3")
    assert A.nvars == 4
    assert len(A.forms) == 4
    assert A.multiplicities == (1, 1, 1, 1)

    B = parse_arrangement("x0^2*x1*x2")
    assert B.forms == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert B.multiplicities == (2, 1, 1)

    C = parse_arrangement("x0*(2*x0)")
    assert C.forms == ((1, 0) if C.nvars == 2 else (1,),)
    assert C.multiplicities == (2,)

    D = parse_arrangement("(x0+x1)^3*x2")
    assert D.forms == ((1, 1, 0), (0, 0, 1))
    assert D.multiplicities == (3, 1)


def test_parse_arrangement_rejects_nonlinear_factors():
    with pytest.raises(ParseError):
        parse_arrangement("x0*(x1*x2)")
    with pytest.raises(ParseError):
        parse_arrangement("(x0^2+x1^2)*x2")
    with pytest.raises(ParseError):
        parse_arrangement("2*x0")
    with pytest.raises(ParseError):
        parse_arrangement("(x0-x0)*x1")
    with pytest.raises(ParseError):
        parse_arrangement("x0^0*x1")


def test_parse_arrangement_negated_factor():
    A = parse_arrangement("-x0*x1")
    assert A.forms == ((1, 0), (0, 1))


def test_report_roundtrip_and_stability():
    doc = ReportDocument(
        input="x0*x1*x2",
        n=2,
        field="Fp",
        p=101,
        seed=None,
        mode="exhaustive",
        fiber_histogram={1: 10000, 100: 3},
        image_size=10003,
        dominant=True,
        degree=1,
        homaloidal=True,
        certificate=[{"index": 0}],
        millis=12,
    )
    text = doc.to_json()
    again = ReportDocument.from_json(text)
    assert again == doc
    assert again.to_json() == text
    assert '"fiber_histogram"' in text
    # histogram keys serialize sorted numerically
    assert text.index('"1"') < text.index('"100"')
