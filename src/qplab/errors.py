"""Exception types shared across the package."""


class QplabError(Exception):
    """Base class for all package-specific errors."""


class StripExceeded(QplabError):
    """A complex argument left the usable analyticity strip."""


class SigmaOutOfRange(QplabError):
    """Deviation exponent outside the admissible range for the strong bound."""


class SingularEnergy(QplabError):
    """The finite-box operator is (numerically) singular at this energy.

    Raised when the determinant log-magnitude falls below
    ``greens.DET_FLOOR``; the offending interval and log-magnitude are
    attached.
    """

    def __init__(self, interval, log_det):
        self.interval = tuple(interval)
        self.log_det = float(log_det)
        super().__init__(
            f"box {self.interval} resonates: log|det| = {self.log_det:.3g}"
        )


class PavingFailed(QplabError):
    """Some sites of the big interval admit no good window."""

    def __init__(self, sites):
        self.sites = list(sites)
        super().__init__(f"no admissible window for sites {self.sites[:10]}"
                         + ("..." if len(self.sites) > 10 else ""))


class IterationDiverged(QplabError):
    """The paving fixed-point iteration is not a contraction."""

    def __init__(self, contraction, reason=None):
        self.contraction = float(contraction)
        super().__init__(
            reason or f"contraction factor {self.contraction:.4g} >= 1/2")


class PotentialConstant(QplabError):
    """Operation requires a nonconstant potential."""


class HypothesisUnmet(QplabError):
    """A quantitative hypothesis of a lower-bound lemma fails.

    ``condition`` names the failing inequality.
    """

    def __init__(self, condition, detail=""):
        self.condition = condition
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)


class GateFailed(QplabError):
    """Admissibility gate of the multiscale recursion fails at a scale."""

    def __init__(self, scale, margin, needed):
        self.scale = int(scale)
        self.margin = float(margin)
        self.needed = float(needed)
        super().__init__(
            f"gate fails at n={self.scale}: margin {self.margin:.4g} <= {self.needed:.4g}"
        )


class DropExceeded(QplabError):
    """Inter-scale Lyapunov drop exceeds the recursion bound."""

    def __init__(self, scale, drop, bound):
        self.scale = int(scale)
        self.drop = float(drop)
        self.bound = float(bound)
        super().__init__(
            f"drop {self.drop:.4g} at n={self.scale} exceeds bound {self.bound:.4g}"
        )


class WorkerFailed(QplabError):
    """A forked process formatting artifact lines failed or ended early.

    The message carries the worker's own error, name included, when it could
    send one.
    """


class ConfigInvalid(QplabError):
    """Experiment configuration fails schema validation."""

    def __init__(self, message, path=()):
        self.path = "/".join(str(p) for p in path)
        super().__init__(f"{message} (at config path '{self.path}')" if path else message)
