"""Reference evaluation of the modified Bessel and Struve functions.

Walks through the three evaluators (I, L, M = L - I), shows the convergence
metadata, and cross-checks the series against the elementary half-integer
closed forms and the independent quadrature oracle.
"""


from struvebounds import (
    bessel_i,
    half_integer_closed,
    quad_oracle_l,
    recurrence_check,
    struve_l,
    struve_m,
)

print("series evaluation with metadata")
for nu, x in [(0.0, 1.0), (2.5, 10.0), (0.5, 100.0)]:
    out = struve_l(nu, x)
    print(f"  L_{nu}({x}) = {out.value:.12e}   terms={out.terms_used} "
          f"est_rel_err={out.est_rel_error:.1e}")

print("\nhalf-integer closed forms agree with the series to rounding level")
for kind, nu, x in [("I", 0.5, 2.0), ("L", -0.5, 3.0), ("L", -1.5, 0.7)]:
    series = (bessel_i if kind == "I" else struve_l)(nu, x).value
    closed = half_integer_closed(kind, nu, x)
    print(f"  {kind}_{nu}({x}): series {series:.15e} vs closed {closed:.15e} "
          f"(rel dev {abs(series / closed - 1):.1e})")

print("\nindependent quadrature oracle (integral representation, tanh-sinh rule)")
for nu, x in [(0.3, 0.5), (2.5, 5.0)]:
    q = quad_oracle_l(nu, x)
    s = struve_l(nu, x)
    print(f"  L_{nu}({x}): quadrature {q.value:.15e} vs series {s.value:.15e}")

print("\nM = L - I is an exponentially small difference of e^x-sized terms;")
print("the evaluator switches to a cancellation-free route and flags it")
for x in (1.0, 30.0):
    m = struve_m(1.0, x)
    print(f"  M_1({x}) = {m.value:.6e}   cancellation flag: {m.cancellation}")

print("\nthree-term recurrence residuals (normalized) stay at rounding level")
for nu, x in [(0.5, 1.0), (2.5, 10.0), (7.0, 40.0)]:
    r1, r2 = recurrence_check(nu, x)
    print(f"  nu={nu}, x={x}: {r1:.2e}, {r2:.2e}")
