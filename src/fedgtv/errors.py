"""Exception types shared across the package."""


class FedGTVError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(FedGTVError):
    """A required CSV column is missing or the header is unusable."""


class EmptyInputError(FedGTVError):
    """No parseable data rows were found in the input."""


class SplitError(FedGTVError):
    """Dataset too small to populate train/validation/test splits."""


class ConstantFeatureError(FedGTVError):
    """A feature column is constant (zero std) or has a non-finite mean or std on the training split."""


class ShapeError(FedGTVError):
    """Array dimensions do not match the operation's contract."""


class DegenerateInputError(FedGTVError):
    """An operation received an empty or otherwise degenerate dataset."""


class DegenerateGraphError(FedGTVError):
    """Fewer than two nodes; no graph can be built."""


class ParameterError(FedGTVError):
    """A hyperparameter or argument is outside its legal range."""


class NoFeasibleConfigError(FedGTVError):
    """Every grid combination was rejected (e.g. all graphs disconnected)."""


class ConfigError(FedGTVError):
    """Experiment configuration is missing, malformed, or inconsistent."""
