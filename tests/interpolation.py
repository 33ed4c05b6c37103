"""Nodal interpolation into FE coefficient vectors, for building test points."""

import numpy as np

from mgbarrier.femspace import s_node_ref


def interpolate(fesys, u_fun, s_fun):
    """Nodal interpolation of callables u(x), s(x) into the FE coefficient vector."""
    mesh = fesys.mesh
    z = np.empty(fesys.total_dim)
    z[: fesys.n_u] = [u_fun(*x) for x in fesys.u_node_coords]
    xs = mesh.to_physical(s_node_ref(mesh.d, fesys.alpha))
    z[fesys.n_u:] = [s_fun(*x) for x in xs.reshape(-1, mesh.d)]
    if not np.all(np.isfinite(z)):
        raise ValueError("interpolation produced a non-finite value")
    return z
