"""The closed-form contrast of a binary instrument (L = 2).

With two instrument levels the contrasts collapse to a single ratio

    delta(x) = (mu(1,x) - mu(0,x)) / (pi(1,x) - pi(0,x)).

Estimation needs no two-level code path: the influence function of
mivest.general at L = 2 is the paper's binary influence function, and
the plug-in, cross-fitted and robustness estimates all go through it.
evaluate_nuisances gives this ratio as delta_y / delta_r at either level.
"""

from __future__ import annotations

# evaluate_nuisances has no caller here: it stays bound only because the
# benchmark tracer (perfbench/trace_child.py) wraps this binding.
from .nuisance import evaluate_nuisances  # noqa: F401
