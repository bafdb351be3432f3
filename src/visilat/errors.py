"""Shared exception types."""


class FieldError(ValueError):
    """Rejected field construction (bad d, reducible minimal polynomial...)."""


class CapExceeded(ValueError):
    """A computation was refused because its state space exceeds a cap.

    ``estimate`` carries the estimated size that tripped the cap, or a
    bound such as ">= 2^k" on a size too large to compute.
    """

    def __init__(self, message: str, estimate: int | str):
        super().__init__(f"{message} (estimated size {estimate})")
        self.estimate = estimate


class ConfigError(ValueError):
    """Invalid experiment configuration."""
