"""Shared exception base for the package, and the guard on allocations."""

import contextlib


class BimotifError(Exception):
    """Base class for all errors raised by bimotif.

    ``exit_code`` is what the command line returns for the error:
    1 the input could not be parsed, 2 it failed validation, 3 the
    configuration is unusable.
    """

    exit_code = 2


class CensusTooLarge(BimotifError):
    """The graph is too large to hold in memory, or for the census to count exactly or in memory."""


@contextlib.contextmanager
def _in_memory(na: int, ns: int):
    """Turn a failed allocation for an na × ns graph into :class:`CensusTooLarge`."""
    try:
        yield
    except MemoryError:
        raise CensusTooLarge(
            f"graph too large to count in memory: {na} analysis and {ns} opposite nodes"
        ) from None
