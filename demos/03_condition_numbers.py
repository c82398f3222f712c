"""Brackets for the condition number C(L_nu)(x) = x L'_nu(x) / L_nu(x).

C measures relative sensitivity to the argument; it runs from nu+1 at small
x to x - 1/2 + O(1/x) at large x, and every ratio bound converts into a
condition-number bound through the recurrence relations.
"""

from struvebounds import bracket, exact_value, get_bound, tightest_bracket

nu = 1.0
print(f"condition number at order {nu} across the argument range")
print(f"{'x':>8}  {'exact':>12}  {'eq29 bracket':>28}  {'eq30 bracket':>28}")
for x in (0.01, 0.5, 2.0, 10.0, 50.0):
    c = exact_value("cond_L", nu, x)
    b29 = bracket("eq29_lower", "eq29_upper", nu, x)
    b30 = bracket("eq30_lower", "eq30_upper", nu, x)
    print(f"{x:>8}  {c:>12.6f}  [{b29.lower:>12.6f}, {b29.upper:>12.6f}]"
          f"  [{b30.lower:>12.6f}, {b30.upper:>12.6f}]")

print("\nsmall-x limit is nu+1; the eq30/eq31 lower bounds are tight there")
for x in (1e-4, 1e-2):
    lo = get_bound("eq31_lower").evaluate(nu, x)
    print(f"  x={x}: eq31 lower = {lo:.10f}  (nu+1 = {nu + 1})")

print("\nat large x the Bessel-route bracket closes exponentially fast")
for x in (5.0, 20.0, 50.0):
    br = bracket("eq28_lower", "eq28_upper", nu, x)
    print(f"  x={x}: width = {br.upper - br.lower:.3e}")

print("\nprior lower bounds, selected automatically by regime:")
priors = [get_bound(i) for i in ("prior_nup1", "prior_xminus", "prior_coth")]
for x in (0.1, 2.0, 20.0):
    br = tightest_bracket([(s, s.evaluate(nu, x)) for s in priors if s.valid_at(nu)],
                          "cond_L", nu)
    print(f"  x={x}: best prior = {br.lower:.6f} ({br.lower_id})")
