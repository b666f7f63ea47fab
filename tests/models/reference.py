"""Readable reference oracle for the batched forward-backward kernels.

Each row runs the models' shared dense recursion
(:func:`repro.models.base.forward_backward`) on its own valid prefix,
and the padded tail is filled with the carry semantics the batched
kernels promise: ``alpha`` repeats the last valid value, ``scales`` are
1, and ``beta`` is 1 from the row's last valid step on.
"""

import numpy as np

from repro.models.base import forward_backward


def reference_forward_backward(pi, transition, likes, lengths):
    """Row-by-row ``(alpha, beta, scales)`` for a ``(T, K, n)`` batch."""
    n_steps, n_rows, _ = likes.shape
    alpha = np.empty_like(likes)
    beta = np.empty_like(likes)
    scales = np.empty((n_steps, n_rows))
    for k in range(n_rows):
        t_end = int(lengths[k])
        a, b, s, _ = forward_backward(pi[k], transition[k], likes[:t_end, k])
        alpha[:t_end, k] = a
        alpha[t_end:, k] = a[-1]
        beta[:t_end, k] = b
        beta[t_end:, k] = 1.0
        scales[:t_end, k] = s
        scales[t_end:, k] = 1.0
    return alpha, beta, scales
