"""Exception hierarchy for solver failures.

``ValueError`` is used for invalid arguments (dimension mismatches, bad
parameters); everything that can go wrong *during* a solve derives from
:class:`SolverError` so drivers can catch one type and preserve the
iteration history.  The outer loop that catches one sets its ``iteration``.
"""

from __future__ import annotations


class SolverError(RuntimeError):
    """Base class for runtime solver failures.

    ``iteration`` is the outer iteration the failure stopped, or None when
    raised outside an outer loop.
    """

    iteration: int | None = None


class NumericsError(SolverError):
    """A callback returned non-finite values; carries the stage index."""

    def __init__(self, stage: int, what: str):
        self.stage = stage
        super().__init__(f"non-finite {what} at stage {stage}")


class LinearSolverError(SolverError):
    """The structured KKT factorization broke down (singular system)."""


class ModificationFailure(SolverError):
    """The Levenberg ladder was exhausted without restoring definiteness."""


class IndefiniteStageError(LinearSolverError):
    """A stage failed a Cholesky pivot test of a batched Riccati sweep or band.

    ``member`` is the problem's position in the batch (0 for a band
    window's test, ``banded.LQBands.solve``) and ``stage`` the stage
    counted from that problem's start.  ``margin`` is the smallest Cholesky
    pivot of the stage's R_k + B_k^T P_{k+1} B_k, or of the window's
    H + c G^T G, minus the pivot tolerance ``banded.PIVOT_TOL``; below
    minus that tolerance, the factorization broke down at a pivot that is
    not positive.  A margin that is not finite means the arithmetic
    overflowed, inf from a band and NaN from a sweep; it is not a missed
    tolerance.
    """

    def __init__(self, member: int, stage: int, margin: float):
        self.member = member
        self.stage = stage
        self.margin = margin
        super().__init__(f"stage {stage} of batch member {member} is not "
                         f"positive definite (pivot margin {margin:.3e})")


class SingularStageError(LinearSolverError):
    """A stage of a batched Riccati sweep met an exactly singular gain solve.

    R_k + B_k^T P_{k+1} B_k passed the Cholesky pivot test, but the LU
    solve for the gain ended at an exact zero pivot.  ``member`` and
    ``stage`` are those of :class:`IndefiniteStageError`.  The decomposed
    direction raises it with ``subproblem`` set: then ``member`` is the
    first failing subproblem in plan order and ``stage`` the horizon stage,
    as :class:`MuTooSmallError` gives them.
    """

    def __init__(self, member: int, stage: int, subproblem: bool = False):
        self.member = member
        self.stage = stage
        where = (f"subproblem {member} at horizon stage {stage}" if subproblem
                 else f"stage {stage} of batch member {member}")
        super().__init__(f"{where}: the gain's LU solve met a singular matrix")


class SingularKKTError(LinearSolverError):
    """The banded LU of a stage-interleaved KKT matrix met an exact zero pivot.

    ``info`` is LAPACK ``dgbsv``'s return code, the 1-based column of the
    first zero pivot, and ``stage`` the stage that column belongs to,
    (info - 1) // (2 n_x + n_u).  The decomposed direction raises it with
    ``subproblem`` set to the subproblem's index; ``stage`` is then the
    horizon stage, as :class:`MuTooSmallError` gives it.
    """

    def __init__(self, stage: int, info: int, subproblem: int | None = None):
        self.stage = stage
        self.info = info
        self.subproblem = subproblem
        what = ("banded KKT factorization" if subproblem is None else
                f"banded KKT factorization of subproblem {subproblem}")
        where = "stage" if subproblem is None else "horizon stage"
        super().__init__(f"{what} failed at {where} {stage}: LAPACK dgbsv "
                         f"met a zero pivot (info={info})")


class IndefiniteHorizonError(LinearSolverError):
    """The full-horizon Riccati sweep failed its Cholesky pivot test.

    ``stage`` is the horizon stage whose pivot test failed; ``margin`` is
    that of :class:`IndefiniteStageError`.
    """

    def __init__(self, stage: int, margin: float):
        self.stage = stage
        self.margin = margin
        super().__init__(
            f"the full-horizon Newton system is not positive definite on its "
            f"constraint null space: stage {stage} failed "
            f"(pivot margin {margin:.3e})")


class MuTooSmallError(SolverError):
    """A decomposed subproblem failed its definiteness test.

    Carries the subproblem ``index``, its penalty ``mu``, the horizon
    ``stage`` where the test failed and the ``margin`` it missed by: the
    smallest Cholesky pivot of the failed test minus the pivot tolerance
    ``banded.PIVOT_TOL``, whichever kernel ran it (the Riccati kernel's
    R_k + B_k^T P_{k+1} B_k, the band kernel's H + c G^T G).  A margin
    below minus that tolerance means the factorization broke down; one
    that is not finite means the arithmetic overflowed, inf from a band and
    NaN from a sweep, not that a tolerance was missed.
    """

    def __init__(self, index: int, mu: float, stage: int, margin: float):
        self.index = index
        self.mu = mu
        self.stage = stage
        self.margin = margin
        super().__init__(
            f"subproblem {index} is not positive definite on its constraint "
            f"null space with mu={mu!r}: stage {stage} failed "
            f"(pivot margin {margin:.3e}); increase the terminal penalty")


class NonDescentError(SolverError):
    """The search direction is not a descent direction of the merit function.

    ``margin`` is how far the directional derivative missed its bound
    (positive), when known.
    """

    def __init__(self, message: str, margin: float | None = None):
        self.margin = margin
        super().__init__(message)


class LineSearchFailure(SolverError):
    """Backtracking underflowed without satisfying the Armijo condition."""


class ArmijoStall(LineSearchFailure):
    """Rounding decided the Armijo test for ``steps`` steps in a row.

    Each of those steps predicted a decrease below the test's rounding
    allowance, and the KKT residual did not fall after it.  ``predicted``
    and ``noise`` are the last step's predicted decrease and allowance.
    """

    def __init__(self, steps: int, predicted: float, noise: float):
        self.predicted, self.noise = predicted, noise
        super().__init__(
            f"the Armijo test was decided by rounding for {steps} steps in a "
            f"row and the KKT residual did not fall: predicted decrease "
            f"{predicted:.3e} below the rounding allowance {noise:.3e}")


class AdaptivityFailure(SolverError):
    """Penalty rescaling failed to restore the descent inequality."""


class SubproblemFailure(SolverError):
    """An inner nonlinear subproblem solve did not converge; carries the index."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"nonlinear subproblem {index} did not converge"
        super().__init__(msg + (f": {detail}" if detail else ""))


class UndefinedRatioError(SolverError):
    """Direction-error ratio is undefined because the exact direction is zero."""
