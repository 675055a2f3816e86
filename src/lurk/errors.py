"""Exception types shared across the toolkit."""


class LurkError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LurkError, ValueError):
    """An argument violates an operation's contract."""


class GridFormatError(LurkError, ValueError):
    """A grid file is malformed."""


class NoFeaturesError(LurkError):
    """A feature layer is empty where at least one feature is required."""


class SingularDesignError(LurkError):
    """A regression design matrix is rank deficient."""

    def __init__(self, message, dependent_columns=()):
        super().__init__(message)
        self.dependent_columns = tuple(dependent_columns)


class EmptyModelError(LurkError):
    """No admissible variable exists for the first selection step."""


class ZeroVarianceError(LurkError):
    """An input with zero variance makes the statistic undefined."""


class EmptyVariogramError(LurkError):
    """No site pair falls within the requested lag range."""


class VariogramFitError(LurkError):
    """The variogram cannot be fitted (non-finite semivariances)."""


class SingularKrigingError(LurkError):
    """The kriging system cannot be factorized."""


class FoldError(LurkError):
    """A cross-validation fold cannot support the requested recipe."""


class CovariateExtractionError(LurkError):
    """One or more (site, covariate) cells could not be evaluated."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class ScenarioError(LurkError):
    """A synthetic scenario is infeasible as specified."""


class StageError(LurkError):
    """A pipeline stage failed."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class OutputLockedError(LurkError):
    """Another pipeline run holds the output directory."""

    def __init__(self, out_dir):
        super().__init__(f"{out_dir}: another pipeline run holds this output directory "
                         f"(its .lock file); one run at a time may write there")
        self.out_dir = out_dir


class DatasetMismatchError(LurkError):
    """Run reports being compared refer to different datasets."""
