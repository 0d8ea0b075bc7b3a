"""Vectorized signed-log arithmetic on numpy arrays.

A signed-log array is a pair ``(sign, logmag)`` where ``sign`` is an integer
array in {-1, 0, +1} and ``logmag`` holds the natural log of the magnitude
(``-inf`` exactly where ``sign == 0``).  All helpers broadcast.
"""

from __future__ import annotations

import numpy as np

LOG_ZERO = -np.inf


def from_values(x):
    """Decompose ordinary floats into (sign, logmag).

    A float64 ndarray is taken over: ``logmag`` is computed in place in its
    buffer, so the caller must not use ``x`` afterwards.  Anything else, a
    scalar or a list included, is first converted to a new float array.
    Apart from that buffer, the only new array is the int8 ``sign``.
    """
    x = np.asarray(x, dtype=float)
    sign = np.empty_like(x, dtype=np.int8)
    np.sign(x, out=sign, casting="unsafe")
    np.abs(x, out=x)
    with np.errstate(divide="ignore"):    # log(0) is LOG_ZERO exactly
        np.log(x, out=x)
    return sign, x


def to_values(sign, logmag):
    """Recompose floats; overflows saturate to +-inf, zeros stay exact."""
    with np.errstate(over="ignore"):
        return np.where(sign == 0, 0.0, sign * np.exp(logmag))


def add(signs, logs):
    """Signed sum of the stacked leading axis of (signs, logs).

    Factors out the largest magnitude so the exponentials never overflow.
    Exact cancellation yields a clean zero.
    """
    signs = np.asarray(signs)
    logs = np.asarray(logs)
    m = np.max(logs, axis=0)
    finite = np.isfinite(m)
    m_safe = np.where(finite, m, 0.0)
    t = np.sum(signs * np.exp(logs - m_safe), axis=0)
    out_sign = np.sign(t).astype(np.int8)
    nonzero = out_sign != 0
    safe_t = np.where(nonzero, np.abs(t), 1.0)
    out_log = np.where(nonzero & finite, m_safe + np.log(safe_t), LOG_ZERO)
    out_sign = np.where(finite, out_sign, np.int8(0)).astype(np.int8)
    return out_sign, out_log

