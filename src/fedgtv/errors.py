"""Exception types shared across the package; each concrete one sets the CLI's ``exit_code``."""

__all__ = [
    "FedGTVError",
    "ConfigError",
    "ConstantFeatureError",
    "DegenerateGraphError",
    "DegenerateInputError",
    "DivergenceError",
    "EmptyInputError",
    "NoFeasibleConfigError",
    "ParameterError",
    "SchemaError",
    "ShapeError",
    "SplitError",
]


class FedGTVError(Exception):
    """Base class for all errors raised by this package."""
    exit_code: int


class SchemaError(FedGTVError):
    """A required CSV column is missing, or a line of the CSV cannot be parsed."""
    exit_code = 3


class EmptyInputError(FedGTVError):
    """No parseable data rows were found in the input."""
    exit_code = 3


class SplitError(FedGTVError):
    """Dataset too small to populate train/validation/test splits."""
    exit_code = 3


class ConstantFeatureError(FedGTVError):
    """A feature column is constant (zero std) or has a non-finite mean or std on the training split,
    or a split's labels or a feature column have a non-finite sum of squares."""
    exit_code = 3


class ShapeError(FedGTVError):
    """Array dimensions do not match the operation's contract."""
    exit_code = 4


class DegenerateInputError(FedGTVError):
    """An operation received an empty or otherwise degenerate dataset."""
    exit_code = 4


class DegenerateGraphError(FedGTVError):
    """Fewer than two nodes; no graph can be built."""
    exit_code = 4


class DivergenceError(FedGTVError):
    """A training run left the finite range: a node's training loss is NaN or infinite."""
    exit_code = 4


class ParameterError(FedGTVError):
    """A hyperparameter or argument is outside its legal range."""
    exit_code = 2


class NoFeasibleConfigError(FedGTVError):
    """No grid cell of an algorithm has a finite validation MSE: every one diverged."""
    exit_code = 4


class ConfigError(FedGTVError):
    """Experiment configuration is missing, malformed, or inconsistent."""
    exit_code = 2
