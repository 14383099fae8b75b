"""Exception types shared across the package, and the checks of counts and reals."""

import math
import numbers

import numpy as np


def check_int(name, value, minimum=1):
    """Return value as an int: any integer, numpy's included, but a bool.

    Raises ValueError for a bool, a float, a string, or a value below minimum.
    """
    value = value.item() if isinstance(value, np.generic) else value  # plain in messages
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def check_real(name, value, low=None, high=None):
    """Return value as a float: a finite real number, not a bool, strictly inside (low, high).

    A bound given as None is left open. Raises ValueError otherwise.
    """
    value = value.item() if isinstance(value, np.generic) else value  # plain in messages
    low = -math.inf if low is None else low
    high = math.inf if high is None else high
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low < value < high:
        raise ValueError(f"{name} must be a finite real number in ({low}, {high}), got {value!r}")
    return float(value)


class ConfigError(Exception):
    """A config file is missing, malformed, or incomplete."""


class UnknownTargetError(Exception):
    """A config names a target kind the registry does not know."""


class UnsupportedTargetError(ValueError):
    """An operation needs structure the target does not carry.

    Typical cases: closed-form drift on a non-mixture target, regularizing
    a relative (potential-form) density ratio, or ground-truth sampling
    when no sampler is attached.
    """


class DriftSingularityError(RuntimeError):
    """The drift denominator vanished.

    Every Monte-Carlo probe landed where f is zero, so the ratio estimate
    is undefined. Carries the evaluation point and stream coordinates so
    the failing particle and step can be identified; ``context`` holds them
    as JSON values.
    """

    def __init__(self, message, *, x=None, t=None, step_index=None, particle_index=None):
        super().__init__(message)
        self.x = x
        self.t = t
        self.step_index = step_index
        self.particle_index = particle_index
        self.context = {"particle_index": particle_index, "step_index": step_index, "t": t,
                        "x": None if x is None else np.asarray(x).tolist()}


class NonFiniteStateError(RuntimeError):
    """A particle's state stopped being finite mid-run; ``context`` names where."""

    def __init__(self, message, *, particle_index=None, step_index=None):
        super().__init__(message)
        self.particle_index = particle_index
        self.step_index = step_index
        self.context = {"particle_index": particle_index, "step_index": step_index}
