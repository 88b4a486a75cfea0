"""Exception hierarchy shared across the package."""


class ChaosImgError(Exception):
    """Base class for all chaosimg errors."""


class InvalidStateError(ChaosImgError):
    """A map state or input value is NaN/Inf."""


class DivergenceError(ChaosImgError):
    """Iteration produced a non-finite map state or Lyapunov distance."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite value at iteration {iteration}")
        self.iteration = iteration


class TrajectoryCollapseError(ChaosImgError, ValueError):
    """A Lyapunov companion trajectory merged with the reference one."""

    def __init__(self, step: int):
        super().__init__(
            f"companion trajectory collapsed onto the reference at step {step};"
            " the Lyapunov exponent is undefined"
        )
        self.step = step


class PermutationError(ChaosImgError):
    """Permutation vector is not a bijection."""


class DimensionError(ChaosImgError):
    """Image dimensions do not match the operation's requirements."""


class MalformedEnvelopeError(ChaosImgError):
    """Cipher envelope bytes deviate from the fixed binary layout."""


class NetpbmError(ChaosImgError):
    """Netpbm stream could not be parsed; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class KeyFileError(ChaosImgError):
    """Key file fails validation (missing/duplicate/unknown names, bad values)."""
