"""Exception hierarchy shared by all multiphonon modules.

Every error raised on a validated code path derives from
:class:`MultiphononError`, so callers (and the CLI) can separate domain or
validation failures (exit code 1) from genuine usage errors and bugs.
Every module checks numeric inputs with :func:`_number` and reads text files
with :func:`_read_text`, so inputs of the same kind are validated alike.
"""

import math
import numbers
import operator


class MultiphononError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MultiphononError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class CapabilityError(MultiphononError):
    """A request exceeds the numerically certified range of an algorithm.

    Raised instead of returning silently inaccurate values, e.g. for
    vibrational quantum numbers beyond the validated recursion depth.
    """


class AccuracyError(MultiphononError):
    """A numerical oracle cannot certify the accuracy that was requested."""


class ModeLookupError(MultiphononError, KeyError):
    """A vibrational mode label is not present in a defect configuration."""

    def __str__(self):
        # KeyError would repr-quote the message.
        return self.args[0] if self.args else ""


class DegeneracyError(MultiphononError, ZeroDivisionError):
    """A well-posed answer does not exist (zero denominator or divergence)."""


class InfeasibleKineticsError(MultiphononError):
    """Measured lifetimes and the nonradiative ratio admit no physical solution."""


class FitPreconditionError(MultiphononError):
    """A histogram does not satisfy the preconditions for lifetime fitting."""


class FitError(MultiphononError):
    """The lifetime fit failed to converge or the data is unidentifiable.

    Carries the iteration trace (list of ``(iteration, params, objective)``
    tuples) for diagnosis.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ConfigSyntaxError(MultiphononError):
    """A defect configuration document is not well-formed JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ConfigValidationError(MultiphononError):
    """A well-formed configuration document violates the schema.

    ``key_path`` names the offending key (e.g. ``modes[1].<key>``); ``line``
    is the best-effort line of that key in the source document.
    """

    def __init__(self, message, key_path=None, line=None):
        super().__init__(message)
        self.key_path = key_path
        self.line = line


# ``float`` first: the exact type check is much cheaper than the ABC's.
_REAL_TYPES = (float, numbers.Real)


def _number(value, name, *, integer=False, gt=None, ge=None, le=None):
    """The package's one numeric input check; raises :class:`DomainError`.

    A real is any finite :class:`numbers.Real`, numpy scalars included; it
    comes back as a Python float, so a float32 input cannot keep later
    arithmetic in single precision.  With ``integer=True`` the value must
    support ``operator.index`` and comes back as an int.  ``bool`` is never
    a number.  ``gt``, ``ge`` and ``le`` are optional bounds.
    """
    try:
        if isinstance(value, bool) or not (integer or isinstance(value, _REAL_TYPES)):
            raise TypeError
        number = operator.index(value) if integer else float(value)
    except TypeError:
        kind = "an integer" if integer else "a real number"
        raise DomainError(f"{name} must be {kind}, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not (integer or math.isfinite(number)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if gt is not None and not number > gt:
        raise DomainError(f"{name} must be > {gt!r}, got {value!r}")
    if ge is not None and not number >= ge:
        raise DomainError(f"{name} must be >= {ge!r}, got {value!r}")
    if le is not None and not number <= le:
        raise DomainError(f"{name} must be <= {le!r}, got {value!r}")
    return number


def _finite_result(value, what):
    """*value*, a float or tuple of floats; :class:`CapabilityError` naming *what* if not finite."""
    if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
        raise CapabilityError(f"{what} is not finite in double precision (got {value!r})")
    return value


def _read_text(path, kind):
    """The text of *path*, read once (a pipe too); text that does not decode raises
    :class:`DomainError` naming the *kind* of file and its path."""
    try:
        with open(path) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{kind} file {str(path)!r} is not valid text: {exc}") from exc


def _label(value, name):
    """The package's one label check: a non-empty ``str``, else :class:`DomainError`."""
    if not isinstance(value, str) or not value:
        raise DomainError(f"{name} must be a non-empty string, got {value!r}")
    return value
