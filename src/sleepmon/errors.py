"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all domain errors raised by sleepmon."""


class CorruptSessionError(PipelineError):
    """A session directory is missing files or its manifest is unreadable."""


class ManifestMismatchError(PipelineError):
    """Stream contents disagree with what the manifest declares."""


class InvalidDepthError(PipelineError):
    """A depth sample exceeds the 11-bit sensor range (0..2047)."""


class RoiBoundsError(PipelineError):
    """A region of interest does not fit inside the frame."""
