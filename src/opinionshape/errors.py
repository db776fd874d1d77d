"""Exception types shared across the package."""


class OpinionShapeError(Exception):
    """Base class for all package-specific errors."""


class EdgeListParseError(OpinionShapeError):
    """Raised on a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DanglingNodeError(OpinionShapeError):
    """Raised when a node has no outgoing weight, so its poll row cannot be normalized."""

    def __init__(self, node):
        super().__init__(f"node {node} has zero outgoing weight")
        self.node = node


class NonFiniteRowError(OpinionShapeError):
    """Raised when a node's outgoing weights sum past the float range (or to NaN),
    so its poll row cannot be normalized."""

    def __init__(self, node):
        super().__init__(f"node {node} has outgoing weight that does not sum to a finite value")
        self.node = node


class InfeasibleError(OpinionShapeError):
    """Raised when the stationary linear system is singular or ill-posed."""


class NonAbsorbingError(OpinionShapeError):
    """Raised when a sampled walk exceeds the hard step cap without terminating."""


class DivergenceError(OpinionShapeError):
    """Raised when an iterate turns non-finite or leaves its sanity bound."""


class ConfigError(OpinionShapeError):
    """Raised on invalid experiment configuration."""
