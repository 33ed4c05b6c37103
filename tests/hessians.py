import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbarrier.assembly import SPD_OPTIONS, CondensedHessian, Stage, TwoStagePlan
from mgbarrier.femspace import sym_entries


def plan_of(S):
    """The one-stage TwoStagePlan of a CSR matrix S's own pattern."""
    return TwoStagePlan(S.indptr, S.indices)


def splu_order(R):
    """SuperLU's minimum-degree order of a CSC matrix R, as a factorization
    with the solver's options chooses it from R's values and pattern."""
    return spla.splu(R, permc_spec="MMD_AT_PLUS_A", **SPD_OPTIONS).perm_c


def no_slack(A):
    """The CondensedHessian of a sparse or dense matrix A over u dofs alone:
    S = A, no element slack, and a plan of S's own pattern."""
    S = sp.csr_matrix(A)
    return CondensedHessian(S, Stage(np.zeros((0, 0)), np.zeros((0, 0, 0)),
                                     np.zeros((0, 0), dtype=np.intp)), plan_of(S))


def full_hessian(H):
    """The free-dof Hessian a CondensedHessian H stands for, rebuilt from its
    blocks: H_uu = S + sum_K W_K^T W_K, H_us = W^T L^T and H_ss = L L^T.
    Every element entry is stored, explicit zeros included, as the element
    scatter stores them."""
    nu = H.S.shape[0]
    n_ls, n_lu, ne = H.slack.W.shape
    nf = nu + ne * n_ls
    lower = np.tril(np.ones((n_ls, n_ls), dtype=bool))[:, :, None]
    L = np.where(lower, H.slack.L[sym_entries(n_ls)[2]], 0.0).transpose(2, 0, 1)  # (ne, n_ls, n_ls)
    W = H.slack.W.transpose(2, 0, 1)                                # (ne, n_ls, n_lu)
    loc = np.concatenate([H.slack.uslot.T, nu + np.arange(ne * n_ls).reshape(ne, n_ls)], axis=1)
    blk = np.zeros((ne, n_lu + n_ls, n_lu + n_ls))
    blk[:, :n_lu, :n_lu] = np.einsum("eki,ekj->eij", W, W)
    hus = np.einsum("eki,ejk->eij", W, L)
    blk[:, :n_lu, n_lu:] = hus
    blk[:, n_lu:, :n_lu] = np.swapaxes(hus, 1, 2)
    blk[:, n_lu:, n_lu:] = np.einsum("eik,ejk->eij", L, L)
    rows = np.broadcast_to(loc[:, :, None], blk.shape)
    cols = np.broadcast_to(loc[:, None, :], blk.shape)
    # a fixed u dof has slot nu, which is a slack slot in the full numbering
    free = np.concatenate([H.slack.uslot.T < nu, np.ones((ne, n_ls), dtype=bool)], axis=1)
    keep = free[:, :, None] & free[:, None, :]
    S = H.S.tocoo()
    return sp.csr_matrix(
        (np.concatenate([S.data, blk[keep]]),
         (np.concatenate([S.row, rows[keep]]), np.concatenate([S.col, cols[keep]]))),
        shape=(nf, nf))
