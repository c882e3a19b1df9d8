"""Why truncated subproblems need a terminal proximity penalty.

A three-stage quadratic program can be perfectly well posed while its
truncation onto the first two stages is unbounded below: the truncation
cuts away downstream curvature that was taming an indefinite block.  Adding
mu/2 ||p_end||^2 to the truncated terminal stage restores definiteness once
mu exceeds the missing curvature.  This script sweeps mu across the
threshold on that instance.
"""

import numpy as np

from fotd import (MuTooSmallError, NewtonData, assemble_subproblem,
                  make_plan, solve_subproblem)


def main():
    ones = np.ones((2, 1, 1))
    nd = NewtonData(
        N=2, n_x=1, n_u=1,
        Q=np.array([[[1.0]], [[-2.0]], [[3.0]]]),   # indefinite middle stage
        S=np.zeros((2, 1, 1)),
        R=np.array([[[1.0]], [[2.0]]]),
        A=ones.copy(), B=ones.copy(),
        gx=np.zeros((3, 1)), gu=np.zeros((2, 1)), glam=np.zeros((3, 1)),
    )
    plan = make_plan(2, b=0, knots=[0, 1, 2])  # zero boundary values

    print("truncation onto stages [0, 1]; full problem is well posed\n")
    for mu in (0.0, 0.5, 0.9, 1.1, 2.0, 5.0):
        sub = assemble_subproblem(nd, plan, 0, mu)
        try:
            sol = solve_subproblem(sub)
            print(f"  mu = {mu:4.1f}: definite, solution norm "
                  f"{np.abs(sol.p).max():.1e}")
        except MuTooSmallError:
            print(f"  mu = {mu:4.1f}: rejected (not definite on the "
                  "constraint null space)")


if __name__ == "__main__":
    main()
