"""Errors-in-variables regression estimators with exact row/column constraints.

The package bundles five estimators (classical total least squares, the
column-, row-, and row+column-constrained variants, and an orthogonal
projection estimator), a synthetic-model generator with seeded noise
injection, a brute-force verification oracle, and a Monte-Carlo harness that
measures how the estimation error shrinks with the sample size.  Import each
name from its module (``ctls.estimators``, ``ctls.model``, ``ctls.harness``,
...), as the README's module table lists them.
"""

__version__ = "0.1.0"
