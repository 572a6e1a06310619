"""Exception types shared across the library.

Every failure mode the CLI maps to an exit code lives here, so callers can
catch one family per contract: parse problems, standing-assumption failures,
size bounds, and equivariance violations.
"""

from __future__ import annotations


class SocleCohError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SocleCohError):
    """Vector/matrix shapes or ambient ranks disagree."""


class NotAGroup(SocleCohError):
    """A Cayley table violates the group axioms; carries a witness triple."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason} (witness: {witness})")
        self.witness = witness


class NotEllGroup(SocleCohError):
    """Some element order is not a power of the configured prime."""


class GeneratorsDontGenerate(SocleCohError):
    """The declared generator list does not generate the group."""


class InconsistentPresentation(SocleCohError):
    """Class-2 presentation data does not define a group."""


class NotNormal(SocleCohError):
    """Subgroup is not normal; carries a conjugation witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason} (witness: {witness})")
        self.witness = witness


class QuotientNotFree(SocleCohError):
    """The top abelian quotient is not a free module over Z/l^n."""


class KernelNotAbelian(SocleCohError):
    """The descending step H of the extension is not abelian."""


class UnknownCatalogEntry(SocleCohError):
    """Unrecognized catalog group name."""


class NotACocycle(SocleCohError):
    """A cochain presented as a cocycle has a nonzero differential."""


class EquivarianceFailure(SocleCohError):
    """A map that must commute with the group action does not; carries a witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason} (witness: {witness})")
        self.witness = witness


class WrongLevel(SocleCohError):
    """An operation pinned to a specific filtration level got another one."""


class GammaNotInSocleLevel(SocleCohError):
    """The element does not lie in the requested socle step."""


class SizeBound(SocleCohError):
    """A configured size bound was exceeded."""

    def __init__(self, what: str, limit, actual):
        super().__init__(f"size bound exceeded for {what}: limit {limit}, got {actual}")
        self.what = what
        self.limit = limit
        self.actual = actual


class NotNilpotent(SocleCohError):
    """The augmentation ideal of the group ring, or the socle series of a
    module over it, failed to terminate: the group does not act nilpotently."""
