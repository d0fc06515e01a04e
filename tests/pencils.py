"""Full and stored forms of the pencil's complex-symmetric matrices.

``fem.SymmetricMatrix`` stores one triangle.  The tests that read a
pencil matrix entry by entry rebuild the full CSR matrix it stands for,
and the tests that hand a synthetic pencil to the eigensolver store one.
"""

import numpy as np
import scipy.sparse

from radpml.fem import SymmetricMatrix


def full_csr(matrix):
    """The full CSR matrix of a ``SymmetricMatrix``: the stored triangle
    plus the mirror of its strictly upper entries.  Nothing is summed, so
    every value is bitwise a stored one and stored zeros stay stored."""
    upper = matrix.upper.tocoo()
    off = upper.row != upper.col
    return scipy.sparse.csr_matrix(
        (np.concatenate([upper.data, upper.data[off]]),
         (np.concatenate([upper.row, upper.col[off]]),
          np.concatenate([upper.col, upper.row[off]]))),
        shape=upper.shape)


def stored(mat):
    """The ``SymmetricMatrix`` of a symmetric matrix, from its upper
    triangle."""
    return SymmetricMatrix(scipy.sparse.triu(mat, format="csr"))
