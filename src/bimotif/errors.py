"""Shared exception base for the package."""


class BimotifError(Exception):
    """Base class for all errors raised by bimotif.

    ``exit_code`` is what the command line returns for the error:
    1 the input could not be parsed, 2 it failed validation, 3 the
    configuration is unusable.
    """

    exit_code = 2
