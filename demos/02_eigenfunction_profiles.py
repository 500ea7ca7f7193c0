"""Profiles of normalized eigenfunctions next to their comparator sines.

Builds the two-bump and three-bump eigenfunctions away from the diagonal,
prints their bump geometry, and writes profile tables (x, f, sine) that
reproduce the standard profile figures.
"""

import pathlib

import numpy as np

from fucik import SineMode, breakpoints, build, complete_point

for n, alpha in [(2, 9.0), (3, 16.0)]:
    p = complete_point(n, alpha=alpha)
    f = build(p)
    print(f"n = {n}: alpha = {p.alpha:g}, beta = {p.beta:.6g}, case = {p.case}")
    print(f"  bump lengths l1 = {f.l1:.6f}, l2 = {f.l2:.6f}")
    print(f"  amplitudes: +{f.positive_amplitude:.6f} / -{f.negative_amplitude:.6f}")
    print(f"  junctions: {np.round(breakpoints(f), 6)}")

    xs = np.linspace(0, np.pi, 501)
    sine = SineMode(n)
    out = pathlib.Path(__file__).with_name(f"profile_n{n}.csv")
    with out.open("w", newline="\n") as fh:
        fh.write("x,f,sine\n")
        for x, fx, sx in zip(xs, f(xs), sine(xs)):
            fh.write(f"{x:.17g},{fx:.17g},{sx:.17g}\n")
    print(f"  wrote {out}")

    sup = np.max(np.abs(f(xs)))
    print(f"  sup-norm on the grid: {sup:.12f} (normalized to 1)\n")
