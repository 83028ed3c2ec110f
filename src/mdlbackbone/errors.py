"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class EmptyEdgeList(DomainError):
    """An edge list without edge lines."""


class ParseError(ValueError):
    """Malformed edge-list input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
