"""Plain-number text for the CSV and ``.dat`` artifacts.

Every numeric artifact field is ``repr`` of a plain Python int or float: the
digits of an int, the shortest text that round-trips a float (``nan``,
``inf`` and ``-inf`` included), so ``float()`` reads every field back
exactly.  numpy scalars are converted first, because under numpy 2 their own
``repr`` is ``np.float64(...)``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np


def num(x) -> str:
    """Text of one int or float, numpy scalars included."""
    return repr(x.item() if isinstance(x, np.generic) else x)


def nums(values: np.ndarray) -> List[str]:
    """Text of every entry of a 1-d array, converted once with ``tolist``."""
    return list(map(repr, np.asarray(values).tolist()))


def row(values: Iterable, sep: str = ",") -> str:
    """One artifact line of numbers."""
    return sep.join(map(num, values))
