"""Every error class signl raises, and the one rule that sorts them.

An ``InputError`` is the caller's fault: a bad config, file, checkpoint or
command line.  ``signl`` exits 1 on one and keeps no run directory.  Any other
exception is the program's fault: it exits 2 and keeps the run directory.
"""


class InputError(ValueError):
    """The caller's input is invalid; nothing the run wrote is worth keeping."""


class ConfigError(InputError):
    """Invalid configuration, or a corpus that does not fit it."""


class FormatError(InputError):
    """Malformed SIGF file or manifest line."""


class CheckpointError(InputError):
    """Malformed SIGC file, or one that does not fit the model."""


class UsageError(InputError):
    """Bad command line: a missing file, seed or run directory."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's precondition."""


class ContractError(RuntimeError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class NumericGuardError(RuntimeError):
    """A numeric precondition (e.g. nonzero vectors) failed during training."""
