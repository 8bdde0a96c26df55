"""Package-wide error types."""


class ResourceLimitError(RuntimeError):
    """Raised when a build would exceed its configured size or step budget."""


def check_side(side, max_side):
    """ResourceLimitError when a window side is above max_side or 2^31,
    the largest side of a square window that numpy can still index."""
    if side > min(max_side, 1 << 31):
        bound = f"max_side={max_side}" if max_side <= 1 << 31 else "2^31"
        raise ResourceLimitError(f"window side {side} exceeds {bound}")
