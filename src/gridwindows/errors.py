"""Package-wide error types."""


class ResourceLimitError(RuntimeError):
    """Raised when a build would exceed its configured size or step budget."""


def check_side(side, max_side):
    """ResourceLimitError when a window side is above max_side."""
    if side > max_side:
        raise ResourceLimitError(f"window side {side} exceeds max_side={max_side}")
