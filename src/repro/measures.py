"""Performance measures (paper §2 "Model Evaluation" and Table 3).

The paper unifies every measure as a *normalized, minimized* quantity in
(0, 1] with an optional user range [p_l, p_u]: measures to maximize
(accuracy, F1, AUC, NDCG, Fisher score, MI) are inverted, cost measures
(training time, MSE/MAE) are scaled by a reference. Raw values are kept
alongside the normalized ones, because the evaluation tables report raw
numbers while dominance / ε-dominance / pos() operate on normalized
ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Measure:
    """One performance measure p ∈ P.

    ``raw_key``: key into the task's raw-measure dict.
    ``higher_is_better``: direction of the *raw* value.
    ``raw_ref``: scale for unbounded raw values (errors, seconds); a raw
        value of ``raw_ref`` normalizes to 1.0.
    ``invert_shift``: if set, normalize a higher-is-better raw in [0,1]
        as ``1 - raw`` (classification scores); otherwise unbounded
        higher-is-better raws use ``1 / (1 + raw)`` (Fisher, MI).
    ``lo``/``hi``: the user range [p_l, p_u] over normalized values.
    """

    name: str
    raw_key: str
    higher_is_better: bool
    raw_ref: float = 1.0
    invert_shift: bool = True
    lo: float = 1e-3
    hi: float = 1.0

    def normalize(self, raw: float) -> float:
        if self.higher_is_better:
            v = (1.0 - raw) if self.invert_shift else 1.0 / (1.0 + raw)
        else:
            v = raw / self.raw_ref
        return float(min(max(v, self.lo), 1.0))


@dataclass
class PerfVector:
    """A valuated test t.P: raw measures + their normalized projection."""

    raw: dict[str, float]
    norm: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_raw(cls, raw: dict[str, float], measures: list[Measure]) -> "PerfVector":
        return cls(
            raw=dict(raw),
            norm={m.name: m.normalize(raw[m.raw_key]) for m in measures},
        )

    def vector(self, measures: list[Measure]) -> tuple[float, ...]:
        return tuple(self.norm[m.name] for m in measures)


# -- measure catalogue (Table 3) ----------------------------------------
# raw_ref values are calibrated to the synthetic lakes so normalized
# values land inside (0, 1]; they play the role of the user-specified
# upper bounds of Example 2 ("no more than 1800 seconds").

def p_acc(**kw) -> Measure:
    return Measure("p_Acc", "acc", True, **kw)


def p_f1(**kw) -> Measure:
    return Measure("p_F1", "f1", True, **kw)


def p_prec(**kw) -> Measure:
    return Measure("p_Pc", "precision", True, **kw)


def p_rec(**kw) -> Measure:
    return Measure("p_Rc", "recall", True, **kw)


def p_auc(**kw) -> Measure:
    return Measure("p_AUC", "auc", True, **kw)


def p_train(ref_seconds: float, **kw) -> Measure:
    return Measure("p_Train", "train_time", False, raw_ref=ref_seconds, **kw)


def p_mse(ref: float, **kw) -> Measure:
    return Measure("p_MSE", "mse", False, raw_ref=ref, **kw)


def p_mae(ref: float, **kw) -> Measure:
    return Measure("p_MAE", "mae", False, raw_ref=ref, **kw)


def p_fsc(**kw) -> Measure:
    return Measure("p_Fsc", "fisher", True, invert_shift=False, **kw)


def p_mi(**kw) -> Measure:
    return Measure("p_MI", "mi", True, invert_shift=False, **kw)


def p_ranking(name: str, raw_key: str, **kw) -> Measure:
    return Measure(name, raw_key, True, **kw)
