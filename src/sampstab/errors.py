"""Exception types shared across the package."""


class SampstabError(Exception):
    """Base class for all package-specific failures."""


class NumericOverflowError(SampstabError):
    """A matrix function produced non-finite entries, or a Gramian came out indefinite."""


class RiccatiDivergenceError(SampstabError):
    """Riccati doubling diverged or hit its doubling cap without converging."""


class SpectralRadiusError(SampstabError):
    """A synthesized closed loop failed the spectral-radius < 1 certificate."""


class SearchExhausted(SampstabError):
    """A feasibility search ran out of horizon without a structural verdict.

    Distinct from a proven-infeasible result: nothing rules out success at a
    larger horizon.
    """

    def __init__(self, message, best_margin=None):
        super().__init__(message)
        self.best_margin = best_margin


class GridTooCoarse(SampstabError):
    """A mode grid cannot resolve the requested construction."""
