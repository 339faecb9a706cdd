"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A setting is malformed or out of range; the CLI exits 2 for it."""


class SchemaError(ValueError):
    """A required CSV column is missing from the header."""


class CsvParseError(ValueError):
    """A CSV cell could not be parsed as a number."""


class DegenerateDataError(ValueError):
    """Clustering cannot proceed (e.g. all points identical with Q > 1)."""


class ModelFormatError(ValueError):
    """A model file is truncated, malformed, or has an unsupported version."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given data (e.g. zero-variance target)."""


class InputRangeError(ValueError):
    """An input is non-finite, or so far outside the training range that its
    normalized value overflows."""
