"""Simplicial meshes of boxes in 1d/2d, uniform refinement, nested hierarchies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimplicialMesh:
    """Triangulation of an axis-aligned box by intervals (d=1) or triangles (d=2).

    Each element K is the image of the reference simplex conv{0, e_1, ..., e_d}
    under the affine map x -> A_K x + b_K.
    """

    d: int
    vertices: np.ndarray          # (nv, d)
    elements: np.ndarray          # (ne, d+1) vertex indices
    boundary_vertices: np.ndarray  # sorted indices of vertices on the boundary
    parent_map: np.ndarray | None = None  # fine element -> coarse element, set by refine_uniform
    A: np.ndarray = field(init=False)      # (ne, d, d)
    b: np.ndarray = field(init=False)      # (ne, d)
    detA: np.ndarray = field(init=False)   # (ne,)
    Ainv: np.ndarray = field(init=False)   # (ne, d, d)

    def __post_init__(self):
        v0 = self.vertices[self.elements[:, 0]]
        edges = self.vertices[self.elements[:, 1:]] - v0[:, None, :]
        # columns of A_K are the edge vectors from vertex 0
        self.A = np.swapaxes(edges, 1, 2).copy()
        self.b = v0.copy()
        self.detA = np.linalg.det(self.A)
        if np.any(np.abs(self.detA) <= 0.0):
            raise ValueError("mesh has a degenerate element (det A_K = 0)")
        self.Ainv = np.linalg.inv(self.A)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def volumes(self):
        return np.abs(self.detA) * ref_simplex_volume(self.d)

    def total_volume(self):
        return float(np.sum(self.volumes()))

    def h(self):
        """Mesh size: max spectral norm of the element maps A_K."""
        return float(np.max(np.linalg.norm(self.A, ord=2, axis=(1, 2))))


def ref_simplex_volume(d):
    """Volume of the reference simplex conv{0, e_1, ..., e_d}: 1/d!."""
    out = 1.0
    for k in range(2, d + 1):
        out /= k
    return out


# local vertex pairs of the edges of an interval / a triangle
LOCAL_EDGES = {1: ((0, 1),), 2: ((0, 1), (1, 2), (0, 2))}

# children of a uniformly refined element, as indices into its P2 node layout
# (vertices, then the midpoints of LOCAL_EDGES[d] in order)
_CHILDREN = {1: ((0, 2), (2, 1)), 2: ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))}


def edge_index(elements):
    """Number the edges of a simplicial mesh in order of first appearance.

    Returns (edges, elem_edges): the (n_edges, 2) sorted vertex pairs and the
    (ne, len(LOCAL_EDGES[d])) global edge id of each element's local edges.
    """
    d = elements.shape[1] - 1
    pairs = np.sort(elements[:, np.array(LOCAL_EDGES[d])], axis=2)
    uniq, first, inverse = np.unique(pairs.reshape(-1, 2), axis=0,
                                     return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inverse.ravel()].reshape(pairs.shape[:2])


def p2_nodes(mesh):
    """Vertices plus edge midpoints (the P2 nodes and the refined vertices).

    Returns (coords, nodes): the (nv + n_edges, d) node coordinates, midpoints
    in edge_index order, and per element the ids of its vertices followed by
    the midpoints of its LOCAL_EDGES.
    """
    edges, elem_edges = edge_index(mesh.elements)
    verts = mesh.vertices
    coords = np.concatenate([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
    nodes = np.concatenate([mesh.elements, mesh.num_vertices + elem_edges], axis=1)
    return coords, nodes


def _boundary_faces(elements, d):
    if d == 1:
        faces = elements.reshape(-1, 1)
    else:
        # triangle faces (edges): (0,1), (1,2), (0,2)
        faces = np.concatenate(
            [elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [0, 2]]], axis=0
        )
        faces = np.sort(faces, axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return uniq[counts == 1]


def _boundary_vertex_set(elements, d):
    bf = _boundary_faces(elements, d)
    return np.unique(bf.ravel())


def build_rect_mesh(domain, cells_per_side):
    """Uniform simplicial mesh of an axis-aligned box.

    domain: sequence of (lo, hi) pairs, one per axis (d = len(domain) in {1, 2}).
    For d=2 every grid cell is split along the lower-left to upper-right diagonal.
    """
    domain = [(float(lo), float(hi)) for lo, hi in domain]
    d = len(domain)
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    k = int(cells_per_side)
    if k < 1:
        raise ValueError("cells_per_side must be >= 1")
    for lo, hi in domain:
        if not hi > lo:
            raise ValueError("degenerate box side")

    if d == 1:
        (x0, x1), = domain
        verts = np.linspace(x0, x1, k + 1).reshape(-1, 1)
        elems = np.stack([np.arange(k), np.arange(1, k + 1)], axis=1)
        bdry = np.array([0, k])
        return SimplicialMesh(1, verts, elems, bdry)

    (x0, x1), (y0, y1) = domain
    xs = np.linspace(x0, x1, k + 1)
    ys = np.linspace(y0, y1, k + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel()], axis=1)

    # lower-left vertex of each cell, cells in (i, j) row-major order
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    p00 = (i * (k + 1) + j).ravel().astype(np.int64)
    p10, p01 = p00 + (k + 1), p00 + 1
    p11 = p10 + 1
    # two triangles per cell, split along the diagonal p00 -> p11
    elems = np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)
    bdry = _boundary_vertex_set(elems, 2)
    return SimplicialMesh(2, verts, elems, bdry)


def refine_uniform(mesh):
    """Bisect all edges: triangles split into 4 similar children, intervals into 2.

    Coarse vertices keep their indices; edge midpoints are appended. The returned
    mesh carries parent_map (child element -> coarse element).
    """
    d = mesh.d
    new_verts, nodes = p2_nodes(mesh)
    children = np.array(_CHILDREN[d])
    elems = nodes[:, children].reshape(-1, d + 1)
    parents = np.repeat(np.arange(mesh.num_elements), len(children))
    bdry = _boundary_vertex_set(elems, d)
    return SimplicialMesh(d, new_verts, elems, bdry, parent_map=parents)


def quasi_uniformity(mesh):
    """Return (h, rho) with h = max |||A_K||| and rho = min sigma_min(A_K) / h."""
    smax = np.linalg.norm(mesh.A, ord=2, axis=(1, 2))
    smin = 1.0 / np.linalg.norm(mesh.Ainv, ord=2, axis=(1, 2))
    h = float(np.max(smax))
    rho = float(np.min(smin) / h)
    return h, rho


@dataclass
class MeshHierarchy:
    """Nested meshes T_1 coarsest .. T_L finest, each level a uniform bisection."""

    levels: list

    @classmethod
    def build(cls, domain, cells_coarse, num_levels):
        meshes = [build_rect_mesh(domain, cells_coarse)]
        for _ in range(num_levels - 1):
            meshes.append(refine_uniform(meshes[-1]))
        return cls(meshes)

    @property
    def L(self):
        return len(self.levels)

    @property
    def fine(self):
        return self.levels[-1]


def dump_mesh(mesh, path):
    """Plain-text export: header `d nv ne`, vertices, elements, boundary indices."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.d} {mesh.num_vertices} {mesh.num_elements}\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(x)) for x in v) + "\n")
        for e in mesh.elements:
            fh.write(" ".join(str(int(i)) for i in e) + "\n")
        fh.write(" ".join(str(int(i)) for i in mesh.boundary_vertices) + "\n")
