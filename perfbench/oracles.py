"""Independent checks on the package's outputs.

The Laurent arithmetic here is the benchmark's own: it reads polynomials
from the package's printed form (``format_laurent``), so the checks do not
rest on the package's polynomial code.  A polynomial is a dict mapping an
exponent pair of Fractions to a nonzero Fraction coefficient.
"""

from __future__ import annotations

from fractions import Fraction


def parse_laurent(text: str) -> dict:
    """Read ``3 - z1 - 2*z2^1/2 - z1^-1*z2^-1`` back into a dict."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    terms = [(1, tokens[0])] if not tokens[0].startswith("-") else [(-1, tokens[0][1:])]
    if len(tokens) % 2 != 1:
        raise ValueError(f"unreadable polynomial {text!r}")
    for k in range(1, len(tokens), 2):
        if tokens[k] not in ("+", "-"):
            raise ValueError(f"unreadable polynomial {text!r}")
        terms.append((1 if tokens[k] == "+" else -1, tokens[k + 1]))
    out: dict = {}
    for sign, body in terms:
        coeff, ex, ey = Fraction(1), Fraction(0), Fraction(0)
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            e = Fraction(power) if power else Fraction(1)
            if name == "z1":
                ex = e
            elif name == "z2":
                ey = e
            else:
                coeff = Fraction(factor)
        key = (ex, ey)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = sign * coeff
    return out


def normalized(poly: dict) -> dict:
    """Shift exponents so their componentwise minimum is (0, 0)."""
    if not poly:
        return {}
    mx = min(x for x, _ in poly)
    my = min(y for _, y in poly)
    return {(x - mx, y - my): c for (x, y), c in poly.items()}


def multiply(p: dict, q: dict) -> dict:
    acc: dict = {}
    for (ax, ay), c in p.items():
        for (bx, by), d in q.items():
            key = (ax + bx, ay + by)
            acc[key] = acc.get(key, 0) + c * d
    return {k: c for k, c in acc.items() if c != 0}


def abs_coeff_sum(poly: dict) -> Fraction:
    return sum((abs(c) for c in poly.values()), Fraction(0))


def cover_product(base: dict) -> dict:
    """prod over s in {+1,-1}^2 of P(s1 z1^(1/2), s2 z2^(1/2)), normalized.

    For the 2x2 cover this is, up to sign, the normalized partition function
    of the cover (Kenyon-Okounkov-Sheffield, "Dimers and amoebae").  The
    normalized base polynomial has integer exponents, because any two perfect
    matchings differ by a closed cycle.
    """
    base = normalized(base)
    if any(x.denominator != 1 or y.denominator != 1 for x, y in base):
        raise ValueError("normalized base polynomial has non-integer exponents")
    acc = {(Fraction(0), Fraction(0)): Fraction(1)}
    for s1 in (1, -1):
        for s2 in (1, -1):
            twisted = {
                (x, y): c * s1 ** int(x) * s2 ** int(y) for (x, y), c in base.items()
            }
            acc = multiply(acc, twisted)
    return normalized({(x / 2, y / 2): c for (x, y), c in acc.items()})


def equal_up_to_sign(p: dict, q: dict) -> bool:
    return p == q or p == {k: -c for k, c in q.items()}
