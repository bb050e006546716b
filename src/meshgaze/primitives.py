"""Procedural test meshes: spheres, grids, boxes, and planted-feature variants.

These stand in for the unpublished stimulus set in tests and demos.  All
constructors are deterministic; randomized variants take an explicit seed.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh


def icosphere(subdivisions: int = 3, radius: float = 0.3,
              center=(0.0, 1.5, 0.0)) -> Mesh:
    """Subdivided icosahedron projected onto a sphere, outward winding."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            found = cache.get(key)
            if found is not None:
                return found
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            verts.append(m)
            cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    mesh = Mesh(v, np.asarray(faces, dtype=np.int64))
    # outward winding check: flip if the area-weighted normals point inward
    c = np.asarray(center, dtype=np.float64)
    if np.mean(np.einsum("ij,ij->i", mesh.normals, mesh.vertices - c)) < 0:
        mesh = Mesh(v, np.asarray(faces, dtype=np.int64)[:, ::-1])
    return mesh


def spike_sphere(subdivisions: int = 3, radius: float = 0.3,
                 center=(0.0, 1.5, 0.0), spike_direction=(0.0, 0.0, -1.0),
                 spike_scale: float = 1.6) -> tuple[Mesh, int]:
    """Icosphere with one vertex pushed radially outward.

    Returns (mesh, apex_vertex_id).  The apex is the vertex nearest the
    given direction from center before displacement.
    """
    base = icosphere(subdivisions, radius, center)
    c = np.asarray(center, dtype=np.float64)
    d = np.asarray(spike_direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    radial = base.vertices - c
    apex = int(np.argmax(radial @ d))
    v = base.vertices.copy()
    v[apex] = c + radial[apex] * spike_scale
    return Mesh(v, base.triangles.copy()), apex


def bumpy_sphere(subdivisions: int = 3, radius: float = 0.3,
                 center=(0.0, 1.5, 0.0), amplitude: float = 0.12,
                 seed: int = 0) -> Mesh:
    """Icosphere with seeded radial noise; nonconvex, self-occluding."""
    base = icosphere(subdivisions, radius, center)
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=np.float64)
    radial = base.vertices - c
    r = np.linalg.norm(radial, axis=1)
    bump = 1.0 + amplitude * rng.uniform(-1.0, 1.0, size=len(r))
    v = c + radial * (bump)[:, None]
    return Mesh(v, base.triangles.copy())


def plane_grid(nx: int = 10, nz: int = 10, size: float = 1.0,
               center=(0.0, 1.5, 0.0)) -> Mesh:
    """Regular grid in the XZ plane (normal +Y), (nx+1)*(nz+1) vertices."""
    c = np.asarray(center, dtype=np.float64)
    xs = np.linspace(-size / 2, size / 2, nx + 1)
    zs = np.linspace(-size / 2, size / 2, nz + 1)
    verts = []
    for z in zs:
        for x in xs:
            verts.append((c[0] + x, c[1], c[2] + z))
    faces = []
    w = nx + 1
    for j in range(nz):
        for i in range(nx):
            a = j * w + i
            b = a + 1
            d = a + w
            e = d + 1
            # wound so cross(b-a, c-a) points along +Y
            faces.append((a, e, b))
            faces.append((a, d, e))
    return Mesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def box(center=(0.0, 1.5, 0.0), size=(0.6, 0.6, 0.6)) -> Mesh:
    """Axis-aligned box, 8 vertices, 12 outward-wound triangles."""
    c = np.asarray(center, dtype=np.float64)
    h = np.asarray(size, dtype=np.float64) / 2.0
    corners = np.array([
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ], dtype=np.float64)
    v = c + corners * h
    quads = [
        (0, 1, 2, 3),  # z-
        (5, 4, 7, 6),  # z+
        (4, 0, 3, 7),  # x-
        (1, 5, 6, 2),  # x+
        (4, 5, 1, 0),  # y-
        (3, 2, 6, 7),  # y+
    ]
    faces = []
    for a, b, cc, d in quads:
        faces.append((a, b, cc))
        faces.append((a, cc, d))
    mesh = Mesh(v, np.asarray(faces, dtype=np.int64))
    if np.mean(np.einsum("ij,ij->i", mesh.normals, mesh.vertices - c)) < 0:
        mesh = Mesh(v, np.asarray(faces, dtype=np.int64)[:, ::-1])
    return mesh
