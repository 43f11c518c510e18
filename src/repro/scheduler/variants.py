"""Factory functions for Rubick and its ablation variants (paper §7.3).

* **Rubick**   — full system: tuned resources + best plans.
* **Rubick-E** — only reconfigures execution plans, resources fixed.
* **Rubick-R** — only reallocates resources, plan type fixed (DP-scaled).
* **Rubick-N** — neither; just Rubick's admission/packing policy.

Keyword arguments pass through to :class:`RubickPolicy`.
"""

from __future__ import annotations

from repro.scheduler.rubick import RubickPolicy


def rubick(**kwargs) -> RubickPolicy:
    policy = RubickPolicy(tune_resources=True, plan_mode="best", **kwargs)
    policy.name = "rubick"
    return policy


def rubick_e(**kwargs) -> RubickPolicy:
    policy = RubickPolicy(tune_resources=False, plan_mode="best", **kwargs)
    policy.name = "rubick-e"
    return policy


def rubick_r(**kwargs) -> RubickPolicy:
    # Growth is conservative for this variant: with the plan type frozen,
    # DP-scaling a job across nodes is exactly the regime where the fitted
    # model is least reliable (Sia's weakness the paper calls out), so the
    # variant only reallocates on (re)placement, not by growing running jobs.
    kwargs.setdefault("growth_mode", "never")
    policy = RubickPolicy(tune_resources=True, plan_mode="scaled_dp", **kwargs)
    policy.name = "rubick-r"
    return policy


def rubick_n(**kwargs) -> RubickPolicy:
    policy = RubickPolicy(tune_resources=False, plan_mode="fixed", **kwargs)
    policy.name = "rubick-n"
    return policy
