"""Simplicial meshes of boxes in 1d/2d, uniform refinement, nested hierarchies."""

from __future__ import annotations

import functools
import math
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

    def to_physical(self, ref):
        """Images A_K x + b_K of reference points x, (m, d), in every element: (ne, m, d)."""
        return np.einsum("eab,qb->eqa", self.A, ref) + self.b[:, None, :]

    def h(self):
        """Mesh size: max spectral norm of the element maps A_K."""
        return float(np.max(np.linalg.norm(self.A, ord=2, axis=(1, 2))))

    @functools.cached_property
    def p2(self):
        """p2_nodes(self), computed once: refine_uniform and the P2 FE space on
        this mesh share it, so each level enumerates its edges once. The arrays
        are shared; callers must not modify them."""
        return p2_nodes(self)


def ref_simplex_volume(d):
    """Volume of the reference simplex conv{0, e_1, ..., e_d}: 1/d!."""
    return 1.0 / math.factorial(d)


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


def _boundary_edges(elem_edges, d):
    """Ids of the boundary edges: in 2-D an edge of a single element lies on the
    boundary; in 1-D the faces are vertices, so no edge does."""
    if d == 1:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.bincount(elem_edges.ravel()) == 1)


def p2_nodes(mesh):
    """Vertices plus edge midpoints (the P2 nodes and the refined vertices).

    Returns (coords, nodes, boundary): the (nv + n_edges, d) node coordinates,
    midpoints in edge_index order; per element the ids of its vertices followed
    by the midpoints of its LOCAL_EDGES; and the sorted ids of the nodes on the
    boundary (the boundary vertices, then the midpoints of boundary edges).
    """
    edges, elem_edges = edge_index(mesh.elements)
    verts, nv = mesh.vertices, mesh.num_vertices
    coords = np.concatenate([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
    nodes = np.concatenate([mesh.elements, nv + elem_edges], axis=1)
    boundary = np.concatenate([mesh.boundary_vertices,
                               nv + _boundary_edges(elem_edges, mesh.d)])
    return coords, nodes, boundary


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
    edges, elem_edges = edge_index(elems)
    bdry = np.unique(edges[_boundary_edges(elem_edges, 2)])
    return SimplicialMesh(2, verts, elems, bdry)


def refine_uniform(mesh):
    """Bisect all edges: triangles split into 4 similar children, intervals into 2.

    Coarse vertices keep their indices; edge midpoints are appended. The returned
    mesh carries parent_map (child element -> coarse element).
    """
    d = mesh.d
    new_verts, nodes, bdry = mesh.p2
    children = np.array(_CHILDREN[d])
    elems = nodes[:, children].reshape(-1, d + 1)
    parents = np.repeat(np.arange(mesh.num_elements), len(children))
    return SimplicialMesh(d, new_verts, elems, bdry, parent_map=parents)


def quasi_uniformity(mesh):
    """Return (h, rho) with h = max |||A_K||| and rho = min sigma_min(A_K) / h."""
    smin = 1.0 / np.linalg.norm(mesh.Ainv, ord=2, axis=(1, 2))
    h = mesh.h()
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
