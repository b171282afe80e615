"""Seeded prepared-form fields for the benchmark.

A field is A = y + sum a_n(x) y^{n+1} with letters a_n of x-degree <= 3.
Every letter carries all its admissible monomials (x^1..x^3, or x^2..x^3
for a_0, which must have no x^1 term) with small rational coefficients,
so that the cost of a job depends on its support and hardly on the draw.

The program only ever sees the JSON files written by `write_field`; the
output checker builds its reference `SaddleNodeField` from the letters
drawn here, not from the program's parse of the file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Supports and how many fields of each one pass holds.  The composition is
# the same for every seed, so seeds stay comparable; the seed draws the
# coefficients and the job order.  Job cost spans three orders of
# magnitude by support: the triples cost 0.5-2 s, (-1, 1) about 200 ms,
# the other pairs 10-170 ms, the single letters 5-20 ms.  Percentiles are
# taken over the 32 fields of a pass, and the counts put each one inside
# a group of one support on all three workloads, away from the edges
# between cost classes: the 90th percentile among the five (-1, 1)
# fields, the median among the twelve (-1, 2) fields.  Light jobs are
# mostly interpreter overhead and vary most with load from other
# processes, so they are kept away from the median.
FULL_MIX = (
    ((-1, 0, 1), 1), ((-1, 1, 2), 1), ((-1, 0, 2), 1),
    ((-1, 1), 5),
    ((-1, 2), 12),
    ((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((-1, 0), 1),
    ((-1,), 2), ((0,), 2), ((1,), 2), ((2,), 2),
)

# A few cheap fields for the smoke test.
TINY_MIX = (((-1,), 1), ((0,), 1), ((1,), 1), ((2,), 1), ((-1, 1), 1))

MIXES = {"full": FULL_MIX, "tiny": TINY_MIX}

X_DEGREE = 3


@dataclass(frozen=True)
class FieldSpec:
    """Letters a_n as coefficient lists (index = power of x)."""

    support: tuple
    letters: dict  # n -> tuple of Fraction, length X_DEGREE + 1


def _letter(rng: random.Random, n: int) -> tuple:
    lo = 2 if n == 0 else 1
    coeffs = [Fraction(0)] * (X_DEGREE + 1)
    for m in range(lo, X_DEGREE + 1):
        coeffs[m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.choice((1, 2, 3)))
    return tuple(coeffs)


def generate(seed: int, mix: str = "full") -> list:
    """The field set of one pass, in job order."""
    rng = random.Random(seed)
    specs = []
    for support, count in MIXES[mix]:
        for _ in range(count):
            specs.append(FieldSpec(support,
                                   {n: _letter(rng, n) for n in support}))
    rng.shuffle(specs)
    return specs


def field_document(spec: FieldSpec) -> dict:
    """The field-file JSON of A = y + sum a_n y^{n+1}.

    y_order is at least 1 so that the y term survives even when the only
    letter is a_{-1} (which sits at y^0).
    """
    monomials = [{"m": 0, "n": 1, "re": [1, 1], "im": [0, 1]}]
    for n in spec.support:
        for m, c in enumerate(spec.letters[n]):
            if c:
                monomials.append({"m": m, "n": n + 1,
                                  "re": [c.numerator, c.denominator],
                                  "im": [0, 1]})
    y_order = max(1, max(n + 1 for n in spec.support))
    return {"x_order": X_DEGREE, "y_order": y_order, "monomials": monomials}


def write_field(path, spec: FieldSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_document(spec), fh)
