"""Triangle meshes: OBJ / ascii-PLY I/O, vertex normals, spatial queries.

Scene coordinates are meters in a left-handed Y-up frame.  Meshes are
indexed (shared vertices): every downstream field — density, visibility,
saliency — is per-vertex.  Vertex order is preserved from file so that
exported per-vertex CSV rows stay aligned with the source.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .bvh import TriangleBVH
from .config import MAX_COORD, MeshgazeError
from .io import read_text, write_text


class MeshError(MeshgazeError):
    """Malformed mesh file or invalid mesh structure."""


class Mesh:
    """Indexed triangle mesh with lazily derived normals and indexes."""

    __slots__ = ("vertices", "triangles", "_normals", "_bvh")

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=np.float64)
        try:
            triangles = np.asarray(triangles, dtype=np.int64)
        except OverflowError:                    # an index beyond int64
            raise MeshError("triangle index out of range") from None
        if vertices.size < 1 or triangles.size < 1:
            raise MeshError("mesh must have at least one vertex and one triangle")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be (n, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshError("triangle index out of range")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("non-finite vertex coordinate")
        if (np.abs(vertices) > MAX_COORD).any():
            raise MeshError(f"vertex coordinate beyond +-{MAX_COORD:g}")
        self.vertices = vertices
        self.triangles = triangles
        self._normals = None
        self._bvh = None

    def __len__(self):
        return len(self.vertices)

    @property
    def normals(self):
        if self._normals is None:
            self._normals = compute_vertex_normals(self.vertices,
                                                   self.triangles)
        return self._normals

    @property
    def bvh(self):
        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.triangles)
        return self._bvh

    def transformed(self, scale: float = 1.0, translate=(0.0, 0.0, 0.0)) -> "Mesh":
        translate = np.asarray(translate, dtype=np.float64)
        if not 0 < scale < math.inf:
            raise MeshError(f"scale must be positive and finite, got {scale!r}")
        if not np.isfinite(translate).all():
            raise MeshError(f"translate must be finite, got {translate.tolist()}")
        with np.errstate(over="ignore", invalid="ignore"):  # Mesh rejects inf
            v = self.vertices * float(scale) + translate
        return Mesh(v, self.triangles.copy())


def compute_vertex_normals(vertices, triangles):
    """Area-weighted vertex normals.

    Each triangle contributes its geometric normal scaled by area (the
    cross product does both at once).  Zero-area triangles contribute
    nothing.  Vertices with no usable incident area get a zero normal.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    a, b, c = vertices[triangles.T]
    cross = np.cross(b - a, c - a)  # |cross| = 2 * area
    acc = np.zeros_like(vertices)
    for col in range(3):
        np.add.at(acc, triangles[:, col], cross)
    norms = np.linalg.norm(acc, axis=1)
    out = np.zeros_like(acc)
    good = ~(norms < 1e-300)
    out[good] = acc[good] / norms[good, None]
    return out


def bounding_box_diagonal(mesh_or_vertices) -> float:
    vertices = getattr(mesh_or_vertices, "vertices", mesh_or_vertices)
    vertices = np.asarray(vertices, dtype=np.float64)
    if len(vertices) == 0:
        raise MeshError("empty vertex set")
    return float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))


_MAX_CELLS = 1 << 20         # grid cells per axis, so cell keys fit int64
BLOCK_ELEMENTS = 1 << 14     # per pair-kernel temporary: 128 KiB of float64


def radius_pair_blocks(points, r: float):
    """Every directed pair (i, j), i != j, with d2 = (dx*dx + dy*dy) + dz*dz
    <= r*r for (dx, dy, dz) = p_j - p_i, one block of sources at a time.

    Yields (lo, hi, i, j, d2): int64 i and j and float64 d2 of every pair
    whose i is in [lo, hi), sorted by (i, j) as query_ball_point sorts
    them; the blocks cover [0, n) in order, so at most about BLOCK_ELEMENTS
    candidate pairs are held at once.  d2 is the value the pair was
    filtered by, so a caller needs no distance of its own.  Points are
    binned in cells a little wider than r (wider still where an axis would
    need more than _MAX_CELLS), so each pair spans cells at most one apart
    on every axis, rounding of the cell coordinates included.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    r, n = float(r), len(points)
    if not (r > 0 and math.isfinite(r)):
        raise MeshError("radius must be positive and finite")
    if n < 2:
        none = np.zeros(0, dtype=np.int64)
        yield 0, n, none, none, np.zeros(0)
        return
    lo = points.min(axis=0)
    width = np.maximum(r * (1.0 + 1e-6), (points.max(axis=0) - lo) / _MAX_CELLS)
    cell = np.floor((points - lo) / width).astype(np.int64)
    dims = cell.max(axis=0) + 1
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    coords = points.T.copy()
    # the 3 x 3 columns of cells around a cell; each is one key range in z
    cols = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    sources = max(1, BLOCK_ELEMENTS // 9)          # (sources, 9) lookups
    for s in range(0, n, sources):
        c = cell[s:s + sources]
        xy = c[:, None, :2] + cols
        base = (xy[..., 0] * dims[1] + xy[..., 1]) * dims[2]
        first = np.searchsorted(key, base + np.maximum(c[:, 2:] - 1, 0))
        last = np.searchsorted(key, base + np.minimum(c[:, 2:] + 1, dims[2] - 1),
                               side="right")
        count = np.where(((xy >= 0) & (xy < dims[:2])).all(axis=2),
                         last - first, 0)
        step = max(1, BLOCK_ELEMENTS // int(count.sum(axis=1).max()))
        for a in range(0, len(c), step):
            f, k = first[a:a + step].ravel(), count[a:a + step].ravel()
            hi = s + a + len(k) // 9
            i = np.repeat(np.arange(s + a, hi).repeat(9), k)
            j = order[np.arange(k.sum()) + np.repeat(f - np.cumsum(k) + k, k)]
            d2 = np.zeros(len(i))
            for x in coords:
                d2 += (x[j] - x[i]) ** 2
            keep = (d2 <= r * r) & (i != j)
            i, j, d2 = i[keep], j[keep], d2[keep]
            by = np.argsort(i * n + j)
            yield s + a, hi, i[by], j[by], d2[by]


def gaussian(sigma: float, key: str, error):
    """The Gaussian weight d2 -> exp(-d2 / (2 sigma^2)) of the splat, the
    bias term and the curvature baseline.  Raises error naming key unless
    sigma > 0, 2 sigma^2 is at least the smallest normal float (at 0 a
    point's own weight is 0/0) and 2 sigma (the baseline's cutoff) is
    finite; an overflowing 2 sigma^2 weighs every finite d2 as 1."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0 and two_var >= np.finfo(np.float64).tiny
            and 2.0 * sigma < math.inf):
        raise error(f"{key} must be positive, with 2 {key}^2 a normal float, "
                    f"got {sigma!r}")

    def weight(d2):
        with np.errstate(over="ignore"):
            return np.exp(-d2 / two_var)
    return weight


# ---------------------------------------------------------------------------
# file I/O

def load_mesh(path, scale: float = 1.0, translate=(0.0, 0.0, 0.0)) -> Mesh:
    """Load an OBJ or ascii-PLY mesh, applying the configured rigid placement.

    The extension (.obj or .ply) selects the format.  Vertex order is
    preserved; polygonal faces are fan-triangulated.
    """
    path = os.fspath(path)
    parse = {".obj": _parse_obj, ".ply": _parse_ply}.get(
        os.path.splitext(path)[1].lower())
    if parse is None:
        raise MeshError(f"cannot infer mesh format from {path!r}")
    mesh = parse(read_text(path, "mesh file", MeshError))
    if scale != 1.0 or any(t != 0.0 for t in translate):
        mesh = mesh.transformed(scale, translate)
    return mesh


def _fan(indices):
    for i in range(1, len(indices) - 1):
        yield (indices[0], indices[i], indices[i + 1])


def _parse_obj(text: str) -> Mesh:
    vertices = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshError(f"line {lineno}: malformed vertex line")
            try:
                vertices.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError as exc:
                raise MeshError(f"line {lineno}: malformed vertex line") from exc
        elif tag == "f":
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise MeshError(f"line {lineno}: malformed face line") from exc
                if i < 1:
                    raise MeshError(f"line {lineno}: face index must be >= 1")
                idx.append(i - 1)
            if len(idx) < 3:
                raise MeshError(f"line {lineno}: face needs >= 3 indices")
            faces.extend(_fan(idx))
        # all other line types (vn, vt, usemtl, ...) are ignored
    return Mesh(vertices, faces)


def _parse_ply(text: str) -> Mesh:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MeshError("not a PLY file")
    counts = {}
    elements: list[str] = []
    vertex_props: list[str] = []
    vertex_list_at = None       # vertex columns before the first list
    face_first_list = None      # whether the face's first property is a list
    body_start = None
    ascii_fmt = False
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "format":
                ascii_fmt = len(parts) >= 2 and parts[1] == "ascii"
            elif parts[0] == "element":
                elements.append(parts[1])
                if parts[1] in ("vertex", "face"):
                    counts[parts[1]] = int(parts[2])
            elif parts[0] == "property":
                is_list = parts[1] == "list"
                if elements[-1:] == ["vertex"]:
                    if not is_list:
                        vertex_props.append(parts[-1])
                    elif vertex_list_at is None:
                        vertex_list_at = len(vertex_props)
                elif elements[-1:] == ["face"] and face_first_list is None:
                    face_first_list = is_list
            elif parts[0] == "end_header":
                body_start = i + 1
                break
        except (IndexError, ValueError):
            raise MeshError(f"PLY header line {i + 1}: malformed {line.strip()!r}") from None
    if not ascii_fmt:
        raise MeshError("only ascii PLY is supported")
    if body_start is None or len(counts) < 2:
        raise MeshError("incomplete PLY header")
    if elements[:2] != ["vertex", "face"]:
        raise MeshError("PLY elements must begin with vertex, then face")
    n_vertex, n_face = counts["vertex"], counts["face"]
    if min(n_vertex, n_face) < 0:
        raise MeshError("PLY element count is negative")
    try:
        ix, iy, iz = (vertex_props.index(k) for k in ("x", "y", "z"))
    except ValueError as exc:
        raise MeshError("PLY vertex element lacks x/y/z properties") from exc
    if vertex_list_at is not None and max(ix, iy, iz) >= vertex_list_at:
        raise MeshError("PLY vertex list property precedes x/y/z")
    if not face_first_list:
        raise MeshError("PLY face element must start with its index list")
    body = list(filter(str.strip, lines[body_start:]))
    if len(body) < n_vertex + n_face:
        raise MeshError("PLY body shorter than declared element counts")
    face_rows = body[n_vertex:n_vertex + n_face]
    # Each block is parsed as one array when every row has the declared
    # width and every face is a triangle.  Otherwise the per-row loops run:
    # they accept the other rows a PLY file may hold and raise the first
    # failing row's error.
    block = _ply_block(body[:n_vertex], len(vertex_props), np.float64)
    if block is not None:
        vertices = block[:, (ix, iy, iz)]
    else:
        vertices = np.empty((n_vertex, 3), dtype=np.float64)
        for k in range(n_vertex):
            parts = body[k].split()
            if len(parts) < len(vertex_props):
                raise MeshError(f"PLY vertex row {k} too short")
            try:
                vertices[k] = (float(parts[ix]), float(parts[iy]), float(parts[iz]))
            except ValueError:
                raise MeshError(f"PLY vertex row {k}: non-numeric coordinate "
                                f"in {body[k]!r}") from None
    block = _ply_block(face_rows, 4, np.int64)
    if block is not None and (block[:, 0] == 3).all():
        return Mesh(vertices, block[:, 1:].copy())
    faces = []
    for k, line in enumerate(face_rows):
        parts = line.split()
        try:
            cnt = int(parts[0])
            idx = [int(p) for p in parts[1:1 + cnt]]
        except ValueError:
            raise MeshError(f"PLY face row {k}: non-integer field in {line!r}") from None
        if len(parts) < 1 + cnt:
            raise MeshError(f"PLY face row {k} too short")
        if cnt < 3:
            raise MeshError(f"PLY face row {k} has fewer than 3 indices")
        faces.extend(_fan(idx))
    return Mesh(vertices, faces)


def _ply_block(rows, width, dtype):
    """rows as one (len(rows), width) array of dtype, or None unless there
    is a row, every row has exactly width tokens and every token parses.

    np.array converts str tokens with Python's float or int, so the values
    are the per-row loops'.  One split serves every row: the rows are
    joined with a NUL token between them, which marks where each row ends.
    A NUL token that is not between two rows fails to parse.
    """
    tokens = " \0 ".join(rows).split()
    if len(tokens) != len(rows) * (width + 1) - 1:
        return None
    del tokens[width::width + 1]
    try:
        return np.array(tokens, dtype).reshape(len(rows), width)
    except (ValueError, OverflowError):
        return None


def save_ply(mesh: Mesh, path, colors=None) -> None:
    """Write ascii PLY; %.17g formatting round-trips float64 exactly.

    colors: optional (n, 3) uint8 array written as red/green/blue.
    """
    n, m = len(mesh.vertices), len(mesh.triangles)
    out = ["ply", "format ascii 1.0",
           f"element vertex {n}",
           "property float64 x", "property float64 y", "property float64 z"]
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != (n, 3):
            raise MeshError("colors must be (n, 3)")
        out += ["property uchar red", "property uchar green", "property uchar blue"]
    out += [f"element face {m}", "property list uchar int vertex_indices",
            "end_header"]
    # .tolist() first: Python numbers format about twice as fast as numpy scalars
    rows = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices.tolist()]
    if colors is not None:
        rows = [f"{row} {int(r)} {int(g)} {int(b)}"
                for row, (r, g, b) in zip(rows, colors.tolist())]
    out += rows
    out += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    write_text(path, "\n".join(out) + "\n")
