"""The file layer and the loaders built on it.

Property: whatever bytes a file holds, each loader returns a value or raises
a MeshgazeError, which the CLI prints as one `error:` line.  Any other
exception would reach the user as a traceback.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import load_fixations_oracle, load_ply_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgaze.cli import _read_poses, _read_weights
from meshgaze.config import MeshgazeError, load_config
from meshgaze.fdm import load_map_csv
from meshgaze.fixation import load_fixations
from meshgaze.gaze import load_recording
from meshgaze.io import read_csv, write_csv
from meshgaze.mesh import load_mesh
from meshgaze.synth import load_scenario
from meshgaze.visibility import CameraModel, load_visibility


def load_checked_scenario(path):
    """A scenario file, type-checked and then validated as synth does."""
    load_scenario(path).validate((0.0, 1.5, 0.0))


def load_poses(path):
    """A saliency --poses file, parsed as the CLI parses it."""
    return _read_poses(path, CameraModel())


# file name -> (loader, a valid file the mutations start from)
LOADERS = {
    "m.ply": (load_mesh, b"ply\nformat ascii 1.0\ncomment c\nelement vertex 4\n"
              b"property float64 x\nproperty float64 y\nproperty float64 z\n"
              b"element face 2\nproperty list uchar int vertex_indices\n"
              b"end_header\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n4 0 1 3 2\n"),
    "m.obj": (load_mesh, b"# quad\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
              b"vn 0 0 1\nf 1/1/1 2/2/1 3/3/1 4/4/1\nf 1 2 3\n"),
    "rec.csv": (load_recording, b"t,px,py,pz,ox,oy,oz,sx,sy\n"
                b"0.0,0.0,1.6,-1.5,0.0,0.0,0.0,0.01,-0.02\n"
                b"0.5,0.1,1.6,-1.5,5.0,-10.0,0.0,0.0,0.0\n"),
    "fix.csv": (load_fixations,
                b"recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
                b"s00,0,0.0,1.5,-0.3,0.0,1.6,-1.5,0.0,0.0,0.0,0.5,3\n"
                b"\"s,01\",1,0.1,1.5,-0.3,0.0,1.6,-1.5,0.0,9.0,0.0,0.25,2\n"),
    "map.csv": (load_map_csv, b"vertex_id,value\n0,0.5\n1,0.25\n\n2,1e-3\n"),
    "vis.csv": (load_visibility, b"vertex_id,visible\n0,1\n1,0\n2,1\n"),
    "scen.json": (load_checked_scenario,
                  b'{"mesh_id": "m", "targets": [3, 17], "radius": 1.5, '
                  b'"height": 1.6, "duration_s": 2.0, "rate_hz": 120.0, '
                  b'"noise_deg": 0.5, "subjects": 2, "seed": 4}'),
    "run.cfg": (load_config, b"# run\nivt_h = 0.02\nseed=3\nse_variant=minmax\n"
                b"bias_squared_distance=true\nrw_max_iter=10\n"),
    "weights.json": (_read_weights, b'{"3f2a9c1e0b7d": 4, "a1": 1}'),
    "poses.txt": (load_poses,
                  b"# p, o\n0 1.6 -1.5 0 0 0\n\n0.2,1.5,-1.4, 10,-5,0\n"),
}

TOKENS = [b"", b" ", b"\n", b"\r", b",", b'"', b"#", b"/", b"-", b"x", b"0",
          b"-1", b"3", b"nan", b"inf", b"1e999", b"99999999999999999999",
          b"\xff", b"\xc3", b"\x00", b"\xe2\x80\xa8", b"element", b"property",
          b"end_header", b"=", b"true", b"1e9", b"2.0", b"NaN", b"-Infinity",
          b"null", b"[]", b'"x"', b"28.5", b"1e300"]


@st.composite
def mangled(draw, seed: bytes) -> bytes:
    """seed with up to five spans replaced by tokens or arbitrary UTF-8."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        data[i:j] = draw(st.one_of(st.sampled_from(TOKENS),
                                   st.text(max_size=6).map(str.encode)))
    return bytes(data)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


def test_seed_files_load(scratch):
    for name, (loader, seed) in LOADERS.items():
        (scratch / name).write_bytes(seed)
        loader(scratch / name)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_returns_or_raises_meshgaze_error(scratch, name, data):
    loader, seed = LOADERS[name]
    raw = data.draw(st.one_of(mangled(seed), st.binary(max_size=64)))
    path = scratch / name
    path.write_bytes(raw)
    try:
        loader(path)
    except MeshgazeError:
        pass


@st.composite
def fixation_rows(draw) -> bytes:
    """A fixation file whose rows are the seed's rows with up to three
    fields each replaced by a token, so that the value checks are reached."""
    header, *rows = LOADERS["fix.csv"][1].decode().splitlines()
    lines = [header]
    for _ in range(draw(st.integers(1, 4))):
        fields = rows[draw(st.integers(0, len(rows) - 1))].split(",")
        for _ in range(draw(st.integers(0, 3))):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(
                st.sampled_from(TOKENS).map(lambda b: b.decode("utf-8", "replace")),
                st.sampled_from(["0", "-0.0", "1e10", "-1e9", "1000000000.0001",
                                 "9223372036854775808", "-9223372036854775807"])))
        lines.append(",".join(fields))
    return "\n".join(lines).encode() + b"\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=st.one_of(mangled(LOADERS["fix.csv"][1]), fixation_rows()))
def test_fixation_table_loader_matches_row_oracle(scratch, raw):
    """On a mangled fixation file the table loader returns the row-at-a-time
    loader's values, or raises its first error message."""
    path = scratch / "oracle.csv"
    path.write_bytes(raw)
    try:
        want = load_fixations_oracle(path)
    except MeshgazeError as exc:
        with pytest.raises(type(exc)) as got:
            load_fixations(path)
        assert str(got.value) == str(exc)
        return
    got = load_fixations(path)
    assert got.recording.tolist() == [r[0] for r in want]
    assert got.cluster.tolist() == [r[1] for r in want]
    assert got.weight.tolist() == [r[3] for r in want]
    values = np.column_stack([got.position, got.pose_p, got.pose_o,
                              got.duration])
    assert values.tolist() == [r[2] for r in want]


PLY_VERTICES = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
                ["0", "0", "1"]]
PLY_FACES = [["3", "0", "2", "1"], ["3", "0", "1", "3"], ["3", "0", "3", "2"],
             ["3", "1", "2", "3"]]
PLY_TOKENS = ["x", "nan", "1e300", "99999999999999999999", "1_0", "-1", "0",
              "2", "4", "5", "1e-309", "-0.0", "-nan", "3.0", "+3", "\0"]


@st.composite
def ply_fields(draw) -> bytes:
    """A tetrahedron PLY (its vertices optionally colored) with one to three
    single fields of its body rows replaced, removed, added or moved to the
    next row, a face count set to another count, or blank lines put between
    rows, so that the whole-block parse, its fall-back and each row check
    are reached."""
    colored = draw(st.booleans())
    vertices = [row + ["7", "8", "9"] if colored else list(row)
                for row in PLY_VERTICES]
    rows = vertices + [list(row) for row in PLY_FACES]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["replace", "replace", "count", "remove",
                                     "add", "move", "blank"]))
        if edit == "blank":
            rows.insert(k, [])
        elif edit == "count":
            face = rows[-draw(st.integers(1, len(PLY_FACES)))]
            if face:
                face[0] = draw(st.sampled_from(["0", "2", "4", "-1", "03"]))
        elif edit == "move":
            if rows[k] and k + 1 < len(rows):
                rows[k + 1].insert(0, rows[k].pop())
        elif edit == "add":
            rows[k].append(draw(st.sampled_from(PLY_TOKENS)))
        elif rows[k]:
            i = draw(st.integers(0, len(rows[k]) - 1))
            if edit == "remove":
                del rows[k][i]
            else:
                rows[k][i] = draw(st.sampled_from(PLY_TOKENS))
    header = ["ply", "format ascii 1.0", f"element vertex {len(PLY_VERTICES)}",
              "property float64 x", "property float64 y", "property float64 z"]
    if colored:
        header += ["property uchar red", "property uchar green",
                   "property uchar blue"]
    header += [f"element face {len(PLY_FACES)}",
               "property list uchar int vertex_indices", "end_header"]
    return "\n".join(header + [" ".join(row) for row in rows]).encode() + b"\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(raw=st.one_of(mangled(LOADERS["m.ply"][1]), ply_fields()))
def test_ply_block_parse_matches_row_oracle(scratch, raw):
    """On a mangled PLY file load_mesh returns the row-at-a-time parser's
    arrays bit for bit, or raises its first error message."""
    path = scratch / "oracle.ply"
    path.write_bytes(raw)
    try:
        want = load_ply_oracle(path)
    except MeshgazeError as exc:
        with pytest.raises(type(exc)) as got:
            load_mesh(path)
        assert str(got.value) == str(exc)
        return
    got = load_mesh(path)
    for a, b in ((got.vertices, want.vertices), (got.triangles, want.triangles)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


SCENARIO_FIELDS = ["mesh_id", "targets", "radius", "height", "start_angle_deg",
                   "span_deg", "noise_deg", "noise_tau_s", "duration_s",
                   "rate_hz", "dwell_s", "subjects", "seed"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fields=st.dictionaries(st.sampled_from(SCENARIO_FIELDS), JSON_VALUES,
                              max_size=4))
def test_scenario_loader_on_any_field_values(scratch, fields):
    """Any JSON value in any scenario field, NaN and infinities included:
    loading and validating returns or raises a MeshgazeError."""
    raw = {"mesh_id": "m", "targets": [3, 17]}
    raw.update(fields)
    path = scratch / "fields.json"
    path.write_text(json.dumps(raw))
    try:
        load_checked_scenario(path)
    except MeshgazeError:
        pass


def test_csv_fields_are_quoted_the_csv_way(tmp_path):
    """write_csv quotes a field with a comma or a quote; read_csv keeps the
    first row even when blank and drops every later blank row."""
    rows = [("a,b", "0.5", 3), ('say "hi"', "-1e-300", 0)]
    write_csv(tmp_path / "t.csv", ["id", "value", "n"], rows)
    assert (tmp_path / "t.csv").read_bytes() == (
        b'id,value,n\n"a,b",0.5,3\n"say ""hi""",-1e-300,0\n')
    (tmp_path / "u.csv").write_text("\nid\n\nx\n")
    assert read_csv(tmp_path / "u.csv", "test file", ValueError) == [
        [], ["id"], ["x"]]
