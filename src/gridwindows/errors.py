"""Package-wide error types."""


class ResourceLimitError(RuntimeError):
    """Raised when a build or a verify would exceed a size, step or work budget."""


def check_side(side, max_side):
    """ResourceLimitError when a window side is above max_side or 2^31,
    the largest side of a square window that numpy can still index."""
    if side > min(max_side, 1 << 31):
        bound = f"max_side={max_side}" if max_side <= 1 << 31 else "2^31"
        raise ResourceLimitError(f"window side {side} exceeds {bound}")


# A witness set of b boxes costs b passes over its clause's grid of c cells.
MAX_REACH_PASSES = 256


def check_reach(boxes, cells, where):
    """ResourceLimitError naming the set's JSON path ``where`` when boxes * cells
    exceeds MAX_REACH_PASSES * (cells + boxes): at most that many passes per cell
    and box of the input, so at most that many boxes or cells always pass."""
    if boxes * cells > MAX_REACH_PASSES * (cells + boxes):
        raise ResourceLimitError(f"{where}: {boxes} boxes over {cells} cells exceed the witness "
                                 f"work bound of {MAX_REACH_PASSES} passes per cell and box")
