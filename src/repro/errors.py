"""Exception hierarchy for the DECA reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch one base class. Subclasses communicate which subsystem rejected
the input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FormatError(ReproError):
    """A number-format codec received values or codes it cannot represent."""


class CompressionError(ReproError):
    """A tensor cannot be compressed as requested (bad shape, density...)."""


class ConfigurationError(ReproError):
    """A hardware or scheme configuration is internally inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an invalid state."""


class DeadlineExceededError(ReproError):
    """A deadlined sweep ran out of time before completing.

    Raised by the streaming executors (:mod:`repro.experiments.parallel`)
    when a ``deadline`` passes mid-sweep: dispatch stops, in-flight cells
    drain, and the partial results already yielded remain valid.
    """


class ProgramError(ReproError):
    """An ISA-level instruction stream is malformed (e.g. hazard misuse)."""

