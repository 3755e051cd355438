"""Squared-L2 distance kernels (numpy).

`sqdist_one` uses the direct form, so retrieval distances and their ties are
exact; its query is one vector, or one row per base row. `sqdist_many` uses
the Gram expansion, so tiny differences from the direct form are expected
near zero distance; retrieval uses it only to pick candidates.
"""

import numpy as np


def sqdist_one(query, base):
    diff = base - query
    return np.einsum("ij,ij->i", diff, diff)


def sqdist_many(queries, base):
    # |q - b|^2 = |q|^2 + |b|^2 - 2 q.b; BLAS-backed, clamped against the
    # tiny negatives the cancellation can produce
    qq = np.einsum("ij,ij->i", queries, queries)
    bb = np.einsum("ij,ij->i", base, base)
    out = qq[:, None] + bb[None, :] - 2.0 * (queries @ base.T)
    return np.maximum(out, 0.0, out=out)


def backend_name():
    return "numpy"
