"""Bounds for L_nu(x)/L_nu(y) with 0 < x < y, and for L_nu(x) itself.

Integrating the condition-number brackets between x and y yields fully
explicit two-sided bounds; letting the arguments collapse produces pointwise
bounds whose large-x coefficient a_nu admits a closed Stirling enclosure.
"""


from struvebounds import (
    a_nu_constant,
    a_nu_stirling_bracket,
    bessel_route_coefficient,
    bracket,
    coefficient_crossover_nu,
    exact_value,
    lv_value,
    pointwise_bracket,
)

nu = 1.0
print("argument-ratio bracket (fully explicit, no function evaluations)")
for x, y in [(0.5, 1.0), (1.0, 5.0), (2.0, 30.0)]:
    exact = exact_value("arg_ratio_L", nu, x, y)
    br = bracket("eq38_lower", "eq38_upper", nu, x, y)
    print(f"  ({x}, {y}): exact {exact:.6e}  in [{br.lower:.6e}, {br.upper:.6e}]")

print("\npointwise bounds for L itself, tight at small x")
for x in (0.1, 1.0, 10.0, 100.0):
    br = pointwise_bracket(nu, x)
    v = lv_value(nu, x)
    print(f"  x={x}: L = {v:.6e}  in [{br.lower:.6e}, {br.upper:.6e}]"
          f"  (upper rel err {br.upper / v - 1:.3f})")

print("\nthe upper bound behaves like a_nu e^x / sqrt(x); a_nu sits inside")
print("its Stirling enclosure and never drops below 1/sqrt(2 pi):")
for n in (0.0, 2.5, 10.0, 100.0):
    lo, hi = a_nu_stirling_bracket(n)
    print(f"  order {n}: {lo:.6f} < a = {a_nu_constant(n).value:.6f} < {hi:.6f}")

star = coefficient_crossover_nu()
print(f"\nthe Bessel-route coefficient sqrt(2)G(nu+2)/(pi G(nu+3/2)) crosses a_nu")
print(f"at order {star:.4f}: below it the Bessel route wins for large x,")
print(f"above it the explicit bound wins "
      f"(a = {a_nu_constant(star).value:.6f}, b = {bessel_route_coefficient(star):.6f})")
