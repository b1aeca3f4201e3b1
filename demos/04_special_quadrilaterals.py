"""Special quadrilaterals: three equal edges, equal diagonals, long base.

On the circle no special quadrilateral of size 0.1 exists (the equal-diagonal
slice forces the symmetric shape, whose base dominates), the count is even,
and consistently a square does exist.  On the spiral the one-dimensional set
of special-quadrilateral shapes contains a path from a quadrilateral
collapsed to a point in the spiral middle all the way to size one, where the
first and last vertices meet again.
"""

import pathlib

import numpy as np

from pegfinder import SpecialQuadPathSystem, corpus, count_special_quads, trace_branch
from pegfinder.svg import render_svg

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

circle_report = count_special_quads(corpus("circle"), 0.1)
print("circle, size 0.1:", circle_report.total, "special quadrilateral(s);",
      "parity", circle_report.verdicts["parity"])
print("  square exists:", circle_report.verdicts.get("square_exists"))

spiral = corpus("spiral")
for eps in (0.2, 0.5, 0.8):
    rep = count_special_quads(spiral, eps, verify_square=False, nt=96, m=10)
    print(f"spiral, size {eps}: {rep.total} special quadrilateral(s)")

# trace the path of special shapes through size-space
seed_rep = count_special_quads(spiral, 0.1, verify_square=False, nt=96, m=10)
o = seed_rep.orbits[0]
path = SpecialQuadPathSystem(spiral)
z0 = np.array([o["t"], o["u1"], o["u2"], 0.1 - o["u1"] - o["u2"]])
branch = trace_branch(path, z0)
sizes = path.size(branch.points)
print(f"path of special shapes: {len(branch)} samples, sizes "
      f"{sizes.min():.4f} .. {sizes.max():.4f}, termination {branch.termination}")

quads = [path.vertex_params(z) for z in branch.points[:: max(1, len(branch) // 12)]]
svg = render_svg(spiral, polygons=quads[:6], extra_paths=[branch.points[:, 0]])
(OUT / "spiral_special_path.svg").write_text(svg)
print("wrote", OUT / "spiral_special_path.svg")
