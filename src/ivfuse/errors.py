"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so keep them disjoint.
"""


class ShapeError(ValueError):
    """Operands or images with incompatible shapes."""


class DomainError(ValueError):
    """Value outside an operation's numeric domain (e.g. sqrt of a negative)."""


class ConfigError(ValueError):
    """Bad, unknown, or inconsistent configuration entry."""


class IngestionError(RuntimeError):
    """Dataset or image file could not be read or paired."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite weights."""


class CheckpointFormatError(RuntimeError):
    """Checkpoint file is corrupt (magic, manifest, or truncation)."""


class CheckpointSchemaError(RuntimeError):
    """Checkpoint parses but its tensors do not match the architecture."""
