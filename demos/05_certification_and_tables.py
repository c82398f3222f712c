"""Grid certification of every registered inequality and the built-in
relative-error tables.

The certification engine clips the default grid to each bound's recorded
validity half-line, compares against the series reference at every point,
and reports signed normalized slack; equality orders count as zero slack.
The sweeps need numpy, the sweeps extra: pip install "struvebounds[sweeps]".
"""

from struvebounds import certify, certify_all, monotonicity_suite
from struvebounds.verify import TABLES, relative_error_table, render_table_text

print("certifying the full registry on the default grid "
      "(14 orders x 60 arguments, pairs for the argument-ratio bounds)")
reports = certify_all()
clean = sum(r.clean for r in reports)
print(f"  {clean}/{len(reports)} bounds clean at tolerance 1e-12")
tightest = min(reports, key=lambda r: r.max_rel_gap)
print(f"  tightest overall: {tightest.bound_id} "
      f"(max rel gap {tightest.max_rel_gap:.2e})\n")

rep = certify("eq20_upper")
eq_points = sum(1 for r in rep.rows if r[4] == "equality")
print(f"equality orders are exempt from strictness: eq20_upper records "
      f"{eq_points} equality points at order 1/2\n")

print("structural property suites (monotonicity, Turan, M-domination, recurrences)")
for rep in monotonicity_suite():
    print(f"  {rep.bound_id}: {rep.points_checked} checks, "
          f"{len(rep.violations)} violations")

print("\nbuilt-in table 1 (relative error of the Bessel-route lower ratio bound):")
spec = TABLES[1]
print(render_table_text(spec, relative_error_table(spec)))
