"""Hard caps for the bounded exhaustive searches.

``DRTOOL_SEARCH_CAP`` overrides every cap at once.  Each search reads it
when it is called.
"""

import os

from .errors import InvalidSearchCap

BI_FOREST_CAP = 25  # generators; backtracks over up to 2^n signs, pruning cycles
ZERO_ONE_CAP = 24  # corners; exhaustive over 2^n angles with pruning
DIAGRAM_FACE_CAP = 8  # faces per spherical diagram in the gluing search


def search_cap(default):
    value = os.environ.get("DRTOOL_SEARCH_CAP")
    if value is None:
        return default
    try:
        cap = int(value)
    except ValueError:
        raise InvalidSearchCap(f"DRTOOL_SEARCH_CAP must be an integer, got {value!r}") from None
    if cap < 0:
        raise InvalidSearchCap(f"DRTOOL_SEARCH_CAP must not be negative, got {value!r}")
    return cap
