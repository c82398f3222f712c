"""Two-sided bounds for the successive-order ratio L_nu(x)/L_{nu-1}(x).

Every bound derives from the correction kernel b_nu(x) in (0, 1/2): the
Bessel-ratio sandwich, the fully algebraic square-root forms, the hyperbolic
family with its equality case at order 1/2, and one refinement step through
the three-term recurrence.
"""

import math

from struvebounds import (
    b_value,
    best_bracket,
    bound_ids,
    crossover,
    exact_value,
    ratio_refine_step,
)

nu, x = 1.0, 2.5
exact = exact_value("succ_ratio_L", nu, x)
print(f"target: ratio at nu={nu}, x={x}:  {exact:.12f}")
print(f"kernel b_nu(x) = {b_value(nu, x):.12f}  (always in (0, 1/2))\n")

best = best_bracket(nu, x)
print(f"best bracket: [{best.lower:.9f}, {best.upper:.9f}]")
print(f"  winning sides: {best.lower_id}, {best.upper_id}")
print(f"  contains exact value: {best.lower <= exact <= best.upper}\n")

print("the equality case: at order 1/2 the upper bound tanh(x/2) is exact")
print(f"  tanh({x}/2) = {math.tanh(x / 2):.15f}")
print(f"  ratio       = {exact_value('succ_ratio_L', 0.5, x):.15f}\n")

print("one refinement step maps a bracket at order nu+1 to one at order nu,")
print("swapping the roles of the two sides:")
nxt = best_bracket(nu + 1.0, x)
refined = ratio_refine_step(nu, x, nxt)
print(f"  order {nu + 1} bracket [{nxt.lower:.9f}, {nxt.upper:.9f}]")
print(f"  order {nu} bracket   [{refined.lower:.9f}, {refined.upper:.9f}]\n")

print("competing upper bounds exchange dominance once; locate the point:")
for n in (1.0, 2.5, 5.0):
    star = crossover("eq24_upper", "eq18_upper", n, (0.05, 30.0))
    approx = 2.0 * math.sqrt(n * (2.0 * n + 1.0))
    print(f"  order {n}: x* = {star:.3f}   (large-order scale 2 sqrt(nu(2nu+1)) = {approx:.2f})")

print(f"\nregistered bound ids: {', '.join(bound_ids())}")
