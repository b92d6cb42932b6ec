"""Exception and warning types shared across the package."""

from __future__ import annotations


class CtlsError(Exception):
    """Base class for every error raised by this package."""


# --- matrix kernel errors ---------------------------------------------------


class ShapeError(CtlsError, ValueError):
    """A matrix has the wrong number of dimensions, a zero dimension, or a
    shape that does not fit its partner; also a ``ValueError``."""


class NonFiniteError(CtlsError):
    """A matrix contains NaN or infinite entries."""


class NonSquareError(CtlsError):
    """A square matrix was required."""


class WideMatrixError(CtlsError):
    """QR requires at least as many rows as columns."""


class FullRankError(CtlsError):
    """The requested null space is empty."""


class NearSingularError(CtlsError):
    """Linear solve rejected: the matrix is singular up to the working threshold.

    The estimated condition number (largest / smallest singular value) is
    stored in :attr:`condition`.
    """

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class NotPositiveDefiniteError(CtlsError):
    """Cholesky factorization failed: the matrix is not positive definite."""


class LapackError(CtlsError):
    """A LAPACK routine failed, for example an SVD or eigensolver did not converge."""


# --- model generation errors ------------------------------------------------


class InvalidPartitionError(CtlsError):
    """The (j, k, n, ell, m) block structure is inconsistent or degenerate."""


# --- estimator errors -------------------------------------------------------


class LowerBlockSingularError(CtlsError):
    """The trailing ell x ell block of the solution eigenvectors is singular.

    This is the nongeneric case in which the eigenvector subspace cannot be
    normalized into a coefficient matrix; the instance is ill-posed for the
    requested estimator.
    """


class RankDeficientFixedColumnsError(CtlsError):
    """The exactly-known leading columns are not of full column rank."""


class RankDeficientUpperRowsError(CtlsError):
    """The exactly-known leading rows are rank deficient.

    Callers must select an independent subset of rows themselves; the
    estimators reject rather than silently dropping rows.
    """


# --- oracle / harness / cli errors ------------------------------------------


class InfeasibleCandidateError(CtlsError):
    """A candidate violates the exact-row constraints of the instance."""


class IncompatibleConfigError(CtlsError):
    """A sweep configuration pairs an estimator with an unusable partition."""


class MatrixFileError(CtlsError):
    """A matrix file could not be parsed; the message carries the position."""


class EstimatorWarning(UserWarning):
    """Non-fatal numerical condition (e.g. a degenerate eigenvalue gap)."""
