"""Regular octahedra on a z-scaled sphere: sixteen solution circles.

On the sphere scaled by 1/2 along z, the inscribed regular octahedra form a
single rotation family up to relabeling; as labeled configurations they make
up exactly 16 disjoint circles (one third of the 48 labelings, since the
threefold axis along z identifies labelings in triples).  The 16 circles
are one orbit of the label group, so the search traces a single circle and
obtains the other 15 as its label images ("traced directly" reports 1).
"""

import pathlib

import numpy as np

from pegfinder import corpus, find_octahedra
from pegfinder.residuals import OctahedronSystem
from pegfinder.svg import render_octahedron_svg

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

sphere = corpus("scaled-sphere", lz=0.5)
components, info = find_octahedra(sphere)

print("solution circles:", info["components"])
print("traced directly  :", info["traced_directly"])
print("worst residual   :", info["max_residual"])

sys = OctahedronSystem(sphere)
q = components[0].points[0].reshape(6, 3)
L = sys.edge_lengths(components[0].points[0])
print("edge lengths of one octahedron:", np.round(L, 12))

(OUT / "octahedron_on_sphere.svg").write_text(render_octahedron_svg(sphere, q))
print("wrote", OUT / "octahedron_on_sphere.svg")
