import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgbarrier.mesh import (CHILDREN, build_rect_mesh, dump_mesh,
                            edge_index, quasi_uniformity, ref_simplex_volume,
                            refine_uniform)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_ref_simplex_volume():
    assert ref_simplex_volume(1) == 1.0
    assert ref_simplex_volume(2) == 0.5


@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=-3.0, max_value=2.0),
       st.floats(min_value=0.5, max_value=4.0))
def test_total_volume_matches_box(k, lo, width):
    mesh = build_rect_mesh([(lo, lo + width), (0.0, 1.0)], k)
    assert mesh.total_volume() == pytest.approx(width * 1.0, rel=1e-12)


def test_unit_square_counts():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 3)
    assert mesh.num_vertices == 16
    assert mesh.num_elements == 18
    # boundary of a 3x3 grid: 4*3 = 12 vertices
    assert len(mesh.boundary_vertices) == 12


def test_mesh_size_and_shape_regularity():
    # each triangle maps from the reference by A = (1/k) [[1,1],[0,1]] (up to
    # permutation), whose singular values are the golden ratio and its inverse
    mesh = build_rect_mesh([(0, 1), (0, 1)], 4)
    h, rho = quasi_uniformity(mesh)
    assert h == pytest.approx(GOLDEN / 4.0, rel=1e-12)
    assert rho == pytest.approx(1.0 / GOLDEN ** 2, rel=1e-12)
    assert mesh.h() == pytest.approx(h)


def test_refine_quadruples_triangles():
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fine = refine_uniform(mesh)
    assert fine.num_elements == 4 * mesh.num_elements
    assert fine.h() == pytest.approx(mesh.h() / 2.0, rel=1e-12)
    # coarse vertices keep their indices
    assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)
    assert fine.total_volume() == pytest.approx(1.0, rel=1e-12)


def test_parent_map_contains_children():
    # fine element e is a child of coarse element e // m
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    fine = refine_uniform(mesh)
    for e in range(fine.num_elements):
        parent = e // len(CHILDREN[2])
        child_verts = fine.vertices[fine.elements[e]]
        pv = mesh.vertices[mesh.elements[parent]]
        # every child vertex is a convex combination of the parent's vertices
        A = np.concatenate([pv.T, np.ones((1, 3))])
        for x in child_verts:
            lam = np.linalg.solve(A, np.append(x, 1.0))
            assert np.all(lam > -1e-12)


def test_refine_1d():
    mesh = build_rect_mesh([(0.0, 2.0)], 3)
    fine = refine_uniform(mesh)
    assert fine.num_elements == 6
    assert fine.total_volume() == pytest.approx(2.0)
    assert sorted(fine.boundary_vertices.tolist()) == [0, 3]


def test_hierarchy_nesting_and_parent_chain():
    levels = [build_rect_mesh([(0, 1), (0, 1)], 2)]
    for _ in range(2):
        levels.append(refine_uniform(levels[-1]))
    hs = [m.h() for m in levels]
    assert hs[0] / hs[1] == pytest.approx(2.0)
    assert hs[1] / hs[2] == pytest.approx(2.0)
    # follow the last fine element's parent chain, e -> e // m, down to level
    # 1: the last child of the last element on every level
    m = len(CHILDREN[2])
    e = levels[-1].num_elements - 1
    for lvl in (2, 1):
        assert e % m == m - 1
        e //= m
        assert e == levels[lvl - 1].num_elements - 1
    # each refined mesh has m children per coarse element
    for coarse, fine in zip(levels, levels[1:]):
        assert fine.num_elements == m * coarse.num_elements


def test_degenerate_element_rejected():
    from mgbarrier.mesh import SimplicialMesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialMesh(2, verts, np.array([[0, 1, 2]]), np.array([0, 1, 2]))
    # one degenerate element among good ones, and a zero-length interval
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialMesh(2, verts, np.array([[0, 1, 2], [1, 3, 3]]), np.arange(4))
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialMesh(1, np.array([[0.0], [1.0]]), np.array([[0, 1], [1, 1]]),
                       np.array([0, 1]))


# non-dyadic boxes, where the element maps carry roundoff
SKEW_BOXES = [([(-0.3, 1.7)], 3), ([(-0.3, 1.7), (0.1, 0.8)], 3), ([(0, 1), (0, 1)], 3)]


@pytest.mark.parametrize("domain,k", SKEW_BOXES)
def test_closed_form_inverse_and_determinant_match_lapack(domain, k):
    # to a few ulp: of |det A_K|, and of the largest entry of A_K^-1
    meshes = [build_rect_mesh(domain, k)]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    for mesh in meshes:
        det, inv = np.linalg.det(mesh.A), np.linalg.inv(mesh.A)
        assert np.all(np.abs(mesh.detA - det) <= 8 * np.spacing(np.abs(det)))
        scale = np.spacing(np.abs(inv).max(axis=(1, 2)))[:, None, None]
        assert np.all(np.abs(mesh.Ainv - inv) <= 4 * scale)


@pytest.mark.parametrize("domain,k", SKEW_BOXES)
def test_fine_element_c_m_plus_k_is_child_k_of_c(domain, k):
    # refine_uniform's order up to L = 4: fine element c*m + k is the child
    # CHILDREN[d][k] of coarse element c, in the coarse element's P2 nodes
    meshes = [build_rect_mesh(domain, k)]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    d = meshes[0].d
    m = len(CHILDREN[d])
    for coarse, fine in zip(meshes, meshes[1:]):
        nodes = coarse.p2[1]
        assert fine.num_elements == m * coarse.num_elements
        for c in range(coarse.num_elements):
            for k, child in enumerate(CHILDREN[d]):
                assert np.array_equal(fine.elements[c * m + k], nodes[c, list(child)])


def test_dump_mesh_roundtrippable(tmp_path):
    mesh = build_rect_mesh([(0, 1), (0, 1)], 2)
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    lines = path.read_text().strip().splitlines()
    d, nv, ne = map(int, lines[0].split())
    assert (d, nv, ne) == (2, mesh.num_vertices, mesh.num_elements)
    verts = np.array([[float(t) for t in ln.split()] for ln in lines[1:1 + nv]])
    assert np.array_equal(verts, mesh.vertices)


def _refine_loop(mesh):
    """Loop reference for edge_index + refine_uniform: edges numbered in order
    of first appearance through a dict, children appended element by element,
    with the parent of each child."""
    d, verts, nv = mesh.d, mesh.vertices, mesh.num_vertices
    local_edges = [(0, 1)] if d == 1 else [(0, 1), (1, 2), (0, 2)]
    edge_ids, elem_edges = {}, []
    for el in mesh.elements:
        ids = []
        for a, b in local_edges:
            key = (min(el[a], el[b]), max(el[a], el[b]))
            ids.append(edge_ids.setdefault(key, len(edge_ids)))
        elem_edges.append(ids)
    mids = [0.5 * (verts[a] + verts[b]) for a, b in edge_ids]
    elems, parents = [], []
    for parent, (el, ids) in enumerate(zip(mesh.elements, elem_edges)):
        m = [nv + i for i in ids]
        if d == 1:
            kids = [[el[0], m[0]], [m[0], el[1]]]
        else:
            v0, v1, v2 = el
            m01, m12, m02 = m
            kids = [[v0, m01, m02], [m01, v1, m12], [m02, m12, v2], [m01, m12, m02]]
        elems += kids
        parents += [parent] * len(kids)
    return (np.array(list(edge_ids)), np.array(elem_edges),
            np.concatenate([verts, np.array(mids)]), np.array(elems), np.array(parents))


@pytest.mark.parametrize("domain,k", [([(0.0, 2.0)], 3), ([(0, 1), (0, 1)], 2),
                                      ([(0, 1), (-1, 2)], 3), ([(0, 1), (0, 1)], 7)])
def test_refine_matches_loop_reference(domain, k):
    meshes = [build_rect_mesh(domain, k)]
    for _ in range(3):
        mesh = meshes[-1]
        edges, elem_edges, verts, elems, parents = _refine_loop(mesh)
        # the box and every refined level number their edges with edge_index
        got_edges, got_elem_edges = edge_index(mesh.elements)
        assert np.array_equal(got_edges, edges)
        assert np.array_equal(got_elem_edges, elem_edges)
        fine = refine_uniform(mesh)
        assert np.array_equal(fine.vertices, verts)
        assert np.array_equal(fine.elements, elems)
        # the parent of fine element e is e // m
        assert np.array_equal(np.arange(fine.num_elements) // len(CHILDREN[mesh.d]),
                              parents)
        meshes.append(fine)
    # the boundary vertices are those with a coordinate on a side of the box
    lo, hi = np.array(domain, dtype=float).T
    for mesh in meshes:
        on_box = np.any((mesh.vertices == lo) | (mesh.vertices == hi), axis=1)
        assert np.array_equal(mesh.boundary_vertices, np.flatnonzero(on_box))


def test_rect_mesh_matches_loop_reference():
    k = 3
    elems = []
    for i in range(k):
        for j in range(k):
            p00, p10 = i * (k + 1) + j, (i + 1) * (k + 1) + j
            elems += [[p00, p10, p10 + 1], [p00, p10 + 1, p00 + 1]]
    mesh = build_rect_mesh([(0, 1), (0, 1)], k)
    assert mesh.elements.dtype == np.int64
    assert np.array_equal(mesh.elements, elems)
