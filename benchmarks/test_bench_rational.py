"""RATIONAL — ns per operation of exact-time arithmetic.

Times ``+``, ``*``, ``/`` and ``<`` on :class:`~repro.core.rational.Rational`
operands against the same values as plain :class:`fractions.Fraction`.
``Rational`` normalizes each result once, so it must not be slower than
the ``Fraction`` it subclasses. The operands are media times and rates
(NTSC, PAL, 44.1 kHz audio, per-element read costs), cycled so no single
pair dominates.

Wall-clock reads are confined to this benchmark (the lint gate covers
``src/repro`` only).
"""

import operator
import time
from fractions import Fraction

from repro.core.rational import Rational

OPERANDS = [
    (30000, 1001), (1001, 30000), (25, 1), (1, 25), (44100, 1),
    (1, 44100), (3, 1_500_000), (1, 100), (17, 6), (-7, 3),
]
OPS = {"add": operator.add, "mul": operator.mul,
       "div": operator.truediv, "compare": operator.lt}
PAIRS = 2_000
ROUNDS = 7


def ns_per_op(op, values) -> float:
    """Best-of-``ROUNDS`` nanoseconds per ``op`` over ``PAIRS`` pairs."""
    count = len(values)
    pairs = [(values[i % count], values[(i * 7 + 3) % count])
             for i in range(PAIRS)]
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for left, right in pairs:
            op(left, right)
        best = min(best, time.perf_counter() - start)
    return best * 1e9 / PAIRS


def test_rational_ns_per_op(report):
    rationals = [Rational(n, d) for n, d in OPERANDS]
    fractions = [Fraction(n, d) for n, d in OPERANDS]
    rows = []
    for name, op in OPS.items():
        rational_ns = ns_per_op(op, rationals)
        fraction_ns = ns_per_op(op, fractions)
        rows.append((name, rational_ns, fraction_ns))
        report.metric("rational", f"{name}_ns_rational", rational_ns)
        report.metric("rational", f"{name}_ns_fraction", fraction_ns)
        report.metric("rational", f"{name}_fraction_over_rational",
                      fraction_ns / rational_ns)
    report.table(
        "rational",
        ("op", "Rational ns/op", "Fraction ns/op", "Fraction/Rational"),
        [(name, f"{r:.0f}", f"{f:.0f}", f"{f / r:.2f}x")
         for name, r, f in rows],
        title="RATIONAL — exact-time arithmetic, ns per operation",
    )
    for name, rational_ns, fraction_ns in rows:
        assert rational_ns < fraction_ns, (
            f"Rational {name} took {rational_ns:.0f} ns, plain Fraction "
            f"{fraction_ns:.0f} ns"
        )
