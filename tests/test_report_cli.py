import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pegfinder import FourierCurve, corpus
from pegfinder.cli import main
from pegfinder.report import ResultDocument, dumps
from pegfinder.svg import render_svg

GOLDEN = pathlib.Path(__file__).parent / "golden"
DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms":[0-9.e+-]+', '"wall_time_ms":0', text)


def test_dumps_float_precision_roundtrip():
    vals = [0.1, 1 / 3, np.pi, 2.0, 1e-17, 123456789.123456789]
    text = dumps({"v": vals})
    back = json.loads(text)["v"]
    assert back == vals  # 17 significant digits round-trip doubles exactly


def test_dumps_sorted_keys_and_types():
    text = dumps({"b": 1, "a": True, "c": [1.5, None, "x"]})
    assert text == '{"a":true,"b":1,"c":[1.5,null,"x"]}'


def test_result_document_roundtrip():
    doc = ResultDocument(
        command=["pegfinder", "find-square"],
        subject={"kind": "circle"},
        settings={"corrector_tol": 1e-10, "seed": 0},
        result={"x": 0.25},
    )
    text = doc.to_json()
    assert json.loads(text) == doc.to_dict()


def test_render_svg_deterministic(ellipse):
    poly = np.array([0.1, 0.35, 0.6, 0.85])
    a = render_svg(ellipse, polygons=[poly])
    b = render_svg(ellipse, polygons=[poly])
    assert a == b
    assert a.startswith("<svg") and a.endswith("</svg>")


def test_render_svg_two_views_for_space_curves(trefoil):
    text = render_svg(trefoil, polygons=[np.array([0.0, 0.25, 0.5, 0.75])])
    assert "xz view" in text and "xy view" in text


@pytest.mark.parametrize(
    "argv,golden_json,golden_svg",
    [
        (
            ["find-square", "--corpus", "ellipse", "--a", "2", "--b", "1", "--json", "fs.json", "--svg", "fs.svg"],
            "find_square_ellipse.json",
            "find_square_ellipse.svg",
        ),
        (
            ["count-special", "--corpus", "circle", "--size", "0.1", "--json", "cs.json"],
            "count_special_circle.json",
            None,
        ),
        (
            ["find-rect", "--corpus", "circle", "--ratio", "2", "--json", "rect.json"],
            "find_rect_circle.json",
            None,
        ),
    ],
    ids=["find-square", "count-special", "find-rect"],
)
def test_golden_documents(tmp_path, monkeypatch, capsys, argv, golden_json, golden_svg):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    produced = (tmp_path / argv[argv.index("--json") + 1]).read_text()
    expected = (GOLDEN / golden_json).read_text()
    # byte-for-byte apart from the wall-clock measurement
    assert _strip_wall_time(produced) == _strip_wall_time(expected)
    if golden_svg:
        svg = (tmp_path / argv[argv.index("--svg") + 1]).read_text()
        assert svg == (GOLDEN / golden_svg).read_text()


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import made to fail,
    # the package and its CLI import, and the golden find-square runs
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import pegfinder, pegfinder.cli\n"
        "sys.exit(pegfinder.cli.main(sys.argv[1:]))\n"
    )
    argv = ["find-square", "--corpus", "ellipse", "--a", "2", "--b", "1", "--json", "fs.json", "--svg", "fs.svg"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    produced = (tmp_path / "fs.json").read_text()
    assert _strip_wall_time(produced) == _strip_wall_time((GOLDEN / "find_square_ellipse.json").read_text())
    assert (tmp_path / "fs.svg").read_text() == (GOLDEN / "find_square_ellipse.svg").read_text()


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # usage errors exit 2 (argparse)
    with pytest.raises(SystemExit) as exc:
        main(["find-rect", "--corpus", "circle"])  # missing --ratio
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # unreadable input, bad settings and violated preconditions exit 2 too,
    # with a one-line message instead of a traceback
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    for name, kind in (("nokind", {}), ("nullkind", {"kind": None}), ("intkind", {"kind": 5})):
        (tmp_path / f"{name}.json").write_text(json.dumps(kind))
    # json.load reads NaN and Infinity: a field built from them is refused
    (tmp_path / "nanfield.json").write_text('{"kind": "synthetic-field", "c0": NaN}')
    (tmp_path / "inffield.json").write_text('{"kind": "synthetic-field", "ps": [Infinity]}')
    for name, verts in (("collinear", [[0, 0], [1, 0], [2, 0]]), ("doubled", [[0, 0], [1, 0], [1, 1], [1, 0]])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"kind": "polyline", "vertices": verts}))
    (tmp_path / "chordsphere.json").write_text('{"kind": "chordal", "curve": {"kind": "scaled-sphere"}}')
    # curve specs, given as the second distance field
    (tmp_path / "ellipse.json").write_text(json.dumps(corpus("ellipse").spec()))
    (tmp_path / "fourier.json").write_text(json.dumps(FourierCurve([0, 0], [[1], [0]], [[0], [1]]).spec()))
    # a parameter the corpus entry does not take, and a spec without a required key
    (tmp_path / "ellipse_c.json").write_text('{"kind": "ellipse", "c": 3}')
    (tmp_path / "nocos.json").write_text('{"kind": "fourier", "const": [0, 0]}')
    # the message of each case named here, by its last argument
    messages = {
        "ellipse.json": "--field2 needs a distance field; kind 'ellipse' is not one",
        "fourier.json": "--field2 needs a distance field; kind 'fourier' is not one",
        "nope": "unknown corpus entry 'nope'; pegfinder corpus-list lists them",
        "chordsphere.json": "a chordal field needs a curve, not a EmbeddedSphere",
    }

    def refused(argv, message=""):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"pegfinder {argv[0]}: ") and err.count("\n") == 1, err
        assert message in err, err

    for argv in (
        ["find-square", "--corpus", "ellipse", "--a", "foo"],
        ["find-square", "--curve", "missing.json"],
        ["find-square", "--curve", "broken.json"],
        ["find-square", "--curve", "list.json"],
        # a spec needs a string kind
        ["find-square", "--curve", "nokind.json"],
        ["find-square", "--curve", "nullkind.json"],
        ["find-square", "--curve", "intkind.json"],
        ["triangle", "--corpus", "circle", "--field2", "intkind.json"],
        ["triangle", "--curve", "nanfield.json"],
        ["triangle", "--curve", "inffield.json"],
        ["triangle", "--corpus", "circle", "--field2", "nanfield.json"],
        ["triangle", "--corpus", "circle", "--field2", "ellipse.json"],
        ["triangle", "--corpus", "circle", "--field2", "fourier.json"],
        ["find-square", "--corpus", "nope"],
        ["triangle", "--curve", "chordsphere.json"],
        ["find-square", "--corpus", "ellipse", "--tol", "-1"],
        ["find-square", "--corpus", "ellipse", "--tol", "nan"],
        ["octahedra", "--seed", "-1"],
        ["find-rect", "--corpus", "circle", "--ratio", "-1"],
        ["find-ngon", "--corpus", "circle", "--n", "2"],
        # non-finite numbers are rejected before any search runs
        ["find-square", "--corpus", "ellipse", "--a", "inf"],
        ["find-square", "--corpus", "ellipse", "--a", "1e400"],
        ["find-ngon", "--corpus", "ellipse", "--n", "3", "--ratios", "nan,1"],
        ["find-ngon", "--corpus", "ellipse", "--n", "3", "--ratios", "inf,1"],
        ["find-ngon", "--corpus", "ellipse", "--n", "4", "--ratios", "1,,1"],
        ["find-ngon", "--corpus", "ellipse", "--n", "4", "--ratios", "x,1,1"],
        ["find-rect", "--corpus", "ellipse", "--ratio", "nan"],
        ["find-rect", "--corpus", "ellipse", "--ratio", "inf"],
        ["octahedra", "--lambda-z", "nan"],
        ["octahedra", "--lambda-z", "inf"],
        # a subject that does not suit the command
        ["knot-rhombus", "--corpus", "field-random"],
        ["find-rect", "--corpus", "field-random", "--ratio", "2"],
        ["find-square", "--corpus", "field-random"],
        ["find-square", "--corpus", "scaled-sphere"],
        ["triangle", "--corpus", "scaled-sphere"],
        # the one-field triangle search reads no tolerance, so an explicit
        # --tol (even the default value) is refused without --field2
        ["triangle", "--corpus", "field-random", "--tol", "1e-10"],
        # degenerate curves are rejected when they are built
        ["find-square", "--corpus", "ellipse", "--a", "0", "--b", "0"],
        ["find-square", "--corpus", "ellipse", "--a", "1", "--b", "0"],
        ["find-square", "--curve", "collinear.json"],
        ["find-square", "--curve", "doubled.json"],
        # fourier-random is simple only for an integral degree >= 1 and |amp| < 1
        ["find-square", "--corpus", "fourier-random", "--amp", "1.5"],
        ["find-square", "--corpus", "fourier-random", "--amp", "-1"],
        ["find-square", "--corpus", "fourier-random", "--amp", "nan"],
        ["find-square", "--corpus", "fourier-random", "--degree", "2.5"],
        ["find-square", "--corpus", "fourier-random", "--degree", "0"],
    ):
        refused(argv, messages.get(argv[-1], ""))
    for argv, message in (
        # corpus parameters are checked against the entry's builder
        (["find-square", "--corpus", "ellipse", "--bb", "3"], "corpus entry 'ellipse' takes a, b, not bb"),
        (["find-square", "--curve", "ellipse_c.json"], "corpus entry 'ellipse' takes a, b, not c"),
        (["find-square", "--corpus", "field-sin-mod", "--c0", "1"], "corpus entry 'field-sin-mod' takes no parameters, not c0"),
        (["find-square", "--curve", "nocos.json"], "a fourier spec needs const, cos, sin; this one lacks cos, sin"),
        # two subjects, or corpus parameters without a corpus entry, are refused, not dropped
        (["find-square", "--curve", "ellipse.json", "--corpus", "circle", "--a", "7"],
         "--curve and --corpus both name a subject; give one of them"),
        (["find-square", "--curve", "ellipse.json", "--a", "7"], "corpus parameters (--a) need --corpus NAME"),
        (["octahedra", "--lz", "0.6"], "corpus parameters (--lz) need --corpus NAME"),
        # a subject that does not suit the command
        (["octahedra", "--corpus", "ellipse"], "octahedra needs a scaled sphere, not a ellipse"),
        (["count-special", "--corpus", "scaled-sphere", "--size", "0.25"],
         "count-special needs a curve or a distance field, not a scaled-sphere"),
        (["find-ngon", "--corpus", "field-random", "--n", "4"], "find-ngon needs a curve, not a field-random"),
    ):
        refused(argv, message)
    # without --tol the triangle runs, and its document records the default
    assert main(["triangle", "--corpus", "field-random", "--seed", "11", "--json", "tri.json"]) == 0
    settings = json.loads((tmp_path / "tri.json").read_text())["settings"]
    assert settings == {"corrector_tol": 1e-10, "seed": 11}
    # numerical failure exits 1 with diagnostics in the JSON
    code = main(["octahedra", "--lambda-z", "1.0", "--json", "oct.json"])
    assert code == 1
    doc = json.loads((tmp_path / "oct.json").read_text())
    assert doc["status"] == "error"
    assert doc["result"]["error"] == "NonIsolatedSolutionsError"


def test_cli_curve_file_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = corpus("ellipse", a=2, b=1).spec()
    (tmp_path / "curve.json").write_text(json.dumps(spec))
    assert main(["find-square", "--curve", "curve.json", "--json", "out.json"]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    verts = sorted(doc["result"]["vertex_params"])
    t1 = np.arctan(2) / (2 * np.pi)
    assert np.allclose(verts, sorted([t1, 0.5 - t1, 0.5 + t1, 1 - t1]), atol=1e-6)


def test_cli_triangle_with_field_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "field2.json").write_text(json.dumps(corpus("field-sin-mod").spec()))
    code = main(
        ["triangle", "--corpus", "circle", "--field2", "field2.json", "--json", "tri.json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "tri.json").read_text())
    assert doc["result"]["isosceles_gap"] < 1e-8


def test_cli_find_ngon_winding(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["find-ngon", "--n", "5", "--ratios", "1,1,1,1", "--corpus", "fourier-random",
         "--seed", "7", "--json", "ngon.json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "ngon.json").read_text())
    assert abs(doc["result"]["winding_sum"]) == 1
    assert 5 in doc["result"]["isotropy_orders"]
    # --seed reaches the seeded corpus entry
    assert doc["subject"]["seed"] == 7


def test_cli_seed_skips_unseeded_entries(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["find-square", "--corpus", "ellipse", "--seed", "3", "--json", "sq.json"]) == 0
    doc = json.loads((tmp_path / "sq.json").read_text())
    assert doc["subject"]["kind"] == "ellipse" and "seed" not in doc["subject"]
    assert doc["settings"]["seed"] == 3


def test_result_documents_match_schema(tmp_path, monkeypatch, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "result_document.schema.json").read_text())
    monkeypatch.chdir(tmp_path)
    main(["find-square", "--corpus", "ellipse", "--a", "2", "--b", "1", "--json", "v.json"])
    jsonschema.validate(json.loads((tmp_path / "v.json").read_text()), schema)
    main(["octahedra", "--lambda-z", "0.5", "--json", "oct.json"])
    jsonschema.validate(json.loads((tmp_path / "oct.json").read_text()), schema)


def test_branch_documents_bit_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["find-ngon", "--n", "4", "--corpus", "fourier-random", "--seed", "7",
            "--json", "a.json"]
    assert main(argv) == 0
    assert main(argv[:-1] + ["b.json"]) == 0
    a = _strip_wall_time((tmp_path / "a.json").read_text())
    b = _strip_wall_time((tmp_path / "b.json").read_text())
    # the branch samples themselves must be reproduced bit for bit
    assert a.replace("a.json", "X") == b.replace("b.json", "X")


def test_branch_decimation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["octahedra", "--lambda-z", "0.5", "--json", "oct.json"])
    doc = json.loads((tmp_path / "oct.json").read_text())
    assert doc["counts"]["components"] == 16
    for br in doc["branches"]:
        assert len(br["points"]) <= 2001
