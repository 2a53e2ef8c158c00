"""Exact-arithmetic toolkit for the F4 reflection group and its polytopes.

Quaternionic construction of the order-1152 reflection group of type F4,
its extension by the diagram symmetry, and the subgroups of types B4 and
B3 x A1 / B3 x C2 that sit inside it.  On top of the group layer the
package builds vertex orbits of the sixteen Wythoff polytopes, their face
and cell inventories, branchings of the vertex sets under the subgroups,
and exact dual polytopes with cell geometry in the field Q(sqrt2).
"""

from .scalar import FieldScalar, parse_scalar

__all__ = ["FieldScalar", "parse_scalar", "Quaternion"]

__version__ = "0.1.0"


def __getattr__(name: str):  # Quaternion loads quat on first read (PEP 562)
    if name != "Quaternion":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .quat import Quaternion
    return Quaternion
