"""Exception types shared across the toolkit."""

from __future__ import annotations


class PsrError(Exception):
    """Base class for all toolkit errors."""


class StructureError(PsrError, ValueError):
    """A domain object violates one of its structural invariants."""


class StreamOrderError(PsrError, ValueError):
    """Confidence frames or detections arrived out of order."""


class AlignmentError(PsrError, ValueError):
    """Two streams could not be aligned frame-by-frame."""


class UnknownTransitionError(PsrError, ValueError):
    """A state change has no corresponding action in the procedure."""

    def __init__(self, component: int, kind: str, frame: int | None = None):
        where = f" at frame {frame}" if frame is not None else ""
        super().__init__(
            f"no action produces '{kind}' of component {component}{where}"
        )
        self.component = component
        self.kind = kind
        self.frame = frame


class UndefinedMetricError(PsrError, ValueError):
    """A metric has no defined value for the given inputs (e.g. empty ground truth)."""


class DegenerateBatchError(PsrError, ValueError):
    """A loss cannot be evaluated on this batch (e.g. no anchor has a positive)."""


class SchemaError(PsrError, ValueError):
    """A file does not conform to its declared schema."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:" + (str(line) if line is not None else "")
            loc = loc.rstrip(":") + ": "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class ConfigError(PsrError, ValueError):
    """A simulation or CLI configuration is invalid; names the offending field,
    and the file when it was read from one."""

    def __init__(self, field: str, message: str, path: str | None = None):
        loc = "" if path is None else f"{path}: "
        super().__init__(f"{loc}config field '{field}': {message}")
        self.field = field
        self.message = message
