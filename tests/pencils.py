"""Full and stored forms of the pencil's complex-symmetric matrices.

``fem.SymmetricMatrix`` stores one triangle of the skeleton block and
each element's bubble blocks.  The tests that read a pencil matrix entry
by entry rebuild the full CSR matrix it stands for, and the tests that
hand a synthetic pencil to the eigensolver store one.
"""

import numpy as np
import scipy.sparse

from radpml.fem import SymmetricMatrix


def full_csr(matrix):
    """The full CSR matrix [[S, B], [B^T, C]] of a ``SymmetricMatrix``:
    the stored triangle of S plus the mirror of its strictly upper
    entries, and each element's blocks B and C at its own dofs, skipping
    constrained skeleton rows.  Nothing is summed, so every value is
    bitwise a stored one and stored zeros stay stored."""
    upper = matrix.upper.tocoo()
    off = upper.row != upper.col
    nt, _, nb = matrix.coupling.shape
    bubble = upper.shape[0] + np.arange(nt * nb).reshape(nt, nb)
    valid = matrix.skel >= 0
    shape = matrix.coupling.shape
    b_row = np.broadcast_to(matrix.skel[:, :, None], shape)[valid].ravel()
    b_col = np.broadcast_to(bubble[:, None, :], shape)[valid].ravel()
    b_data = matrix.coupling[valid].ravel()
    shape = matrix.bubbles.shape
    c_row = np.broadcast_to(bubble[:, :, None], shape).ravel()
    c_col = np.broadcast_to(bubble[:, None, :], shape).ravel()
    return scipy.sparse.csr_matrix(
        (np.concatenate([upper.data, upper.data[off], b_data, b_data,
                         matrix.bubbles.ravel()]),
         (np.concatenate([upper.row, upper.col[off], b_row, b_col, c_row]),
          np.concatenate([upper.col, upper.row[off], b_col, b_row, c_col]))),
        shape=matrix.shape)


def stored(mat):
    """The bubble-free ``SymmetricMatrix`` of a symmetric matrix, from its
    upper triangle and empty element blocks."""
    return SymmetricMatrix(scipy.sparse.triu(mat, format="csr"),
                           np.empty((0, 0), dtype=np.int64),
                           np.empty((0, 0, 0), dtype=complex),
                           np.empty((0, 0, 0), dtype=complex))
