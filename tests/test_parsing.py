import itertools
import random
import string

import pytest

from polarmap import LinearFormProduct, ParseError, Polynomial, parsing
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


def _evaluated_arrangement(text, nvars=None):
    """parse_arrangement with every factor evaluated as a polynomial and
    read back by _linear_row, the route that predates the integer reader."""
    node = parse_expression(text)
    nvars = parsing._resolve_nvars(node, nvars)
    factors = []
    parsing._flatten_product(node, factors)
    rows, mults = [], []
    for factor in factors:
        node, mult = factor[1:3] if factor[0] == "pow" else (factor, 1)
        poly = parsing._eval_ast(node, nvars)
        rows.append(parsing._linear_row(poly, nvars, factor[-1]))
        mults.append(mult)
    return LinearFormProduct(rows, mults, nvars)


def _census_text(forms, mults):
    """The census workload's spelling: (x0 + x1)*(x1 - x2)*(x2)*(...)^3."""
    factors = []
    for row, m in zip(forms, mults):
        text = " ".join(f"{'-' if c < 0 else '+'} x{i}"
                        for i, c in enumerate(row) if c)
        text = text[2:] if text[0] == "+" else "-" + text[2:]
        factors.append(f"({text})" + (f"^{m}" if m > 1 else ""))
    return "*".join(factors)


def test_integer_factor_reader_matches_polynomial_evaluation():
    rows = [v for v in itertools.product((-1, 0, 1), repeat=3)
            if any(v) and next(c for c in v if c) > 0]
    assert len(rows) == 13
    rng = random.Random(24)
    checked = 0
    for r in range(1, 5):
        for forms in itertools.combinations(rows, r):
            cubed = [1] * r
            cubed[rng.randrange(r)] = 3
            for mults in ([1] * r, cubed):
                text = _census_text(forms, mults)
                fast = parse_arrangement(text, nvars=3)
                slow = _evaluated_arrangement(text, nvars=3)
                assert (fast.nvars, fast.forms, fast.multiplicities) == \
                    (slow.nvars, slow.forms, slow.multiplicities), text
                assert fast.forms == forms, text
                checked += 1
    assert checked == 2 * (13 + 78 + 286 + 715)


@pytest.mark.parametrize("text, nvars, forms, mults", [
    ("x0*(2*x0)", 1, ((1,),), (2,)),
    ("(x0^1)*x1", 2, ((1, 0), (0, 1)), (1, 1)),
    ("(x0*x1 - x1*x0 + x2)*x0*x1", 3,
     ((0, 0, 1), (1, 0, 0), (0, 1, 0)), (1, 1, 1)),
    ("-(x0 - 2*x1)*x2", 3, ((1, -2, 0), (0, 0, 1)), (1, 1)),
    ("(3*x0 + -x1)^2", 2, ((3, -1),), (2,)),
    ("x0*(x1 + 2^1*x0)", 2, ((1, 0), (2, 1)), (1, 1)),
    ("(x0 + x1 - x1 + 3 - 3)^2*x1", 2, ((1, 0), (0, 1)), (2, 1)),
    ("((x0 - x1)*-2)*(0*x0 + x1)", 2, ((1, -1), (0, 1)), (1, 1)),
])
def test_integer_factor_reader_corner_texts(text, nvars, forms, mults):
    A = parse_arrangement(text)
    assert (A.nvars, A.forms, A.multiplicities) == (nvars, forms, mults)
    assert A == _evaluated_arrangement(text)


# messages, lines and columns as the polynomial route alone gave them
@pytest.mark.parametrize("text, message, line, column", [
    ("x0*(x1*x2)", "factor is not a linear form", 1, 4),
    ("(x0^2+x1^2)*x2", "factor is not a linear form", 1, 1),
    ("2*x0", "factor is not a linear form", 1, 1),
    ("(x0-x0)*x1", "factor is the zero form", 1, 1),
    ("x0^0*x1", "multiplicity must be at least 1", 1, 3),
    ("(x0 + 1)*x1", "factor is not a linear form", 1, 1),
    ("(2*(x0 - x0))*x1", "factor is the zero form", 1, 1),
    ("x1*(x0*(x1 - x1))", "factor is the zero form", 1, 4),
    ("x0*\n  (1)", "factor is not a linear form", 2, 3),
])
def test_integer_factor_reader_refuses_as_before(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_arrangement(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


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
