"""Squares on random smooth curves come in an odd number of orbits.

Multistart Newton from the seeds of a quarter-million-point grid that fall in
one fundamental domain of the cyclic relabeling action, deduplicated by that
action.  The round circle is rejected on purpose: its squares form
a rotating family, not isolated points, and the count would be meaningless.
"""

from pegfinder import NonIsolatedSolutionsError, corpus, count_squares

for seed in (1, 2, 3, 4, 5):
    curve = corpus("fourier-random", degree=4, amp=0.3, seed=seed)
    report = count_squares(curve)
    print(
        f"seed {seed}: {report.orbit_count} square orbit(s), parity "
        f"{'odd' if report.parity else 'even'}, {report.total} labeled squares"
    )

try:
    count_squares(corpus("circle"))
except NonIsolatedSolutionsError as err:
    print("circle rejected as expected:", err)
