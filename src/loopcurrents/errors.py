"""Exception types shared across the package."""


class LoopCurrentsError(Exception):
    """Base class for all package errors."""


class GraphStructureError(LoopCurrentsError, ValueError):
    """Malformed graph input: bad endpoints, bad marks, bad segment spec."""


class GraphMismatchError(LoopCurrentsError, ValueError):
    """Two objects that must share a graph refer to different graphs."""


class CapExceededError(LoopCurrentsError, ValueError):
    """An enumeration would exceed the configured size cap.

    Raised instead of silently truncating; carries the size (text if too big to build).
    """

    def __init__(self, what: str, size: int | str, cap: int):
        shown = size  # Python refuses to print an int of more than 4300 digits in decimal
        if not isinstance(size, str) and size.bit_length() >= 4096:
            shown = f"above 2^{size.bit_length() - 1}"
        super().__init__(f"{what} needs size {shown}, above the cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class ParametrizationError(LoopCurrentsError, ValueError):
    """Exact mode requested at a parameter where it is not available."""
