"""Exact periodic trajectories on the double pentagon and in the pentagon
billiard: directions, periods, symbolic orbits, and a geometric oracle.

Importing the package loads nothing but this table.  A submodule, or a name
re-exported from one, is imported on first access (PEP 562), so a caller
that only renormalizes never compiles the orbit engine or the tracer.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names the package re-exports from it
_EXPORTS = {
    "golden": ("GoldenNum", "INFINITY", "MoebiusMap", "PentaNum",
               "ProjectivePoint", "R_MAP", "T_MAP"),
    "directions": ("BOTTOM", "DirectionIndex", "coordinate_of_index",
                   "index_of_coordinate", "neighbor_family", "pentagons_to_depth"),
    "orbits": ("CyclicWord", "OrbitVector", "apply_L", "billiard_multiplier",
               "check_M", "enhance", "orbit_of_index", "reduce_word",
               "roman_of_arabic", "rotate_alphabet", "vector_of"),
    "periods": ("PeriodPair", "arithmetic_family_check", "child_periods",
                "period_of_index"),
    "tracer": ("IETSpec", "PlanePoint", "TraceResult", "direction_of_coordinate",
               "direction_of_vector", "iet_build", "iet_orbit",
               "periodic_orbits_for_coordinate", "trace_billiard", "trace_surface"),
    "analysis": ("check_conjecture_concat", "check_conjecture_splitting",
                 "displacement", "length_report"),
    "cli": (),
    "verify": (),
    "render": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})
