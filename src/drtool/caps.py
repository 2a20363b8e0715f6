"""Hard caps for the bounded exhaustive searches.

``DRTOOL_SEARCH_CAP`` overrides every cap at once.  Each search reads it
when it is called.  This is the one module that reads a cap and refuses a
search above it, always as ``<count> <unit> exceeds the <search> search cap
<cap>``.
"""

import os

from .errors import CapExceeded, InvalidSearchCap

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


def refuse_above(count, unit, search, default):
    """Refuse a ``search`` of ``count`` ``unit`` above the cap in force
    (``default`` unless overridden)."""
    cap = search_cap(default)
    if count > cap:
        raise CapExceeded(f"{count} {unit} exceeds the {search} search cap {cap}")


def face_bound(max_faces):
    """The face bound a diagram search runs with: ``max_faces``, or the cap
    when it is None. A bound that is not a non-negative integer is an input
    error, not a search that finds nothing, and one above the cap is refused."""
    if max_faces is None:
        return search_cap(DIAGRAM_FACE_CAP)
    if isinstance(max_faces, bool) or not isinstance(max_faces, int) or max_faces < 0:
        raise InvalidSearchCap(f"max_faces must be a non-negative integer, got {max_faces!r}")
    refuse_above(max_faces, "faces", "diagram", DIAGRAM_FACE_CAP)
    return max_faces
