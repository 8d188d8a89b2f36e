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


# What an allocation was for, and what its two node counts are.
_STAGES = {"hold": ("primary", "secondary"), "count": ("analysis", "opposite")}


@contextlib.contextmanager
def _in_memory(stage: str, na: int, ns: int):
    """Turn a failed allocation into :class:`CensusTooLarge`, naming its stage.

    ``stage`` is "hold", for a graph of na primary and ns secondary
    nodes, or "count", for a census or replica with na analysis and ns
    opposite nodes.
    """
    try:
        yield
    except MemoryError:
        first, second = _STAGES[stage]
        raise CensusTooLarge(
            f"graph too large to {stage} in memory: {na} {first} and {ns} {second} nodes"
        ) from None
