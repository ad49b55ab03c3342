"""The one rule for survival arrays, at every public entry point that
takes them: times positive and finite, event indicators exactly 0 or 1,
predicted times not NaN, and one shape for all.  Each breach is a
DomainError whose message starts with the array's name (the losses name
all three arrays when their shapes do not broadcast)."""
import numpy as np
import pytest

from depaft.dataset import SurvivalDataset, survival_arrays
from depaft.distributions import BaselineSpec
from depaft.errors import DataError, DomainError
from depaft.loss import ClaytonAftLoss, IndependentAftLoss
from depaft.metrics import calibration, concordance, evaluate_predictions, event_mae, mae

NAN, INF = float("nan"), float("inf")
T, D, P = [1.0, 2.0, 3.0], [1, 0, 1], [1.0, 3.0, 2.0]


def _evaluate(t, d, p):
    data = SurvivalDataset(np.ones(3), np.ones(3), np.ones((3, 1)))
    data.times, data.events = np.asarray(t), np.asarray(d)  # past the dataset's own check
    return evaluate_predictions(data, p)


def _loss_method(loss, method):
    # the losses take log-time predictions
    return lambda t, d, p: getattr(loss, method)(t, d, np.log(np.asarray(p)))


_LOSSES = [ClaytonAftLoss(1.0, BaselineSpec("normal", 1.0), BaselineSpec("normal", 1.0)),
           IndependentAftLoss(BaselineSpec("normal", 1.0))]

# entry point -> (call on times, events and predicted times, the name of
# its times, whether it takes events, the name of its predictions or None)
ENTRY_POINTS = {
    "SurvivalDataset": (lambda t, d, p: SurvivalDataset(t, d, np.ones((len(t), 1))),
                        "times", True, None),
    "concordance": (lambda t, d, p: concordance(t, d, p), "times", True, "predicted_times"),
    "mae": (lambda t, d, p: mae(t, p), "true_times", False, "predicted_times"),
    "event_mae": (event_mae, "observed_times", True, "predicted_times"),
    "calibration": (lambda t, d, p: calibration(t, p), "reference_times", False,
                    "predicted_times"),
    "evaluate_predictions": (_evaluate, "times", True, "predicted_times"),
    **{f"{type(loss).__name__}.{method}": (_loss_method(loss, method), "times", True, "predictions")
       for loss in _LOSSES for method in ("loss", "grad", "hess", "grad_hess")},
}

# fault -> (times, events, predicted times, the faulty array)
FAULTS = {
    "time-nan": ([1.0, NAN, 3.0], D, P, "times"),
    "time-inf": ([1.0, INF, 3.0], D, P, "times"),
    "time-minus-inf": ([1.0, -INF, 3.0], D, P, "times"),
    "time-zero": ([1.0, 0.0, 3.0], D, P, "times"),
    "time-negative": ([1.0, -1.0, 3.0], D, P, "times"),
    "event-2": (T, [2, 0, 1], P, "events"),
    "event-half": (T, [0.5, 0, 1], P, "events"),
    "event-minus-1": (T, [-1, 0, 1], P, "events"),
    "prediction-nan": (T, D, [1.0, NAN, 2.0], "predictions"),
    "events-short": (T, [1, 0], P, "events"),
    "predictions-short": (T, D, [1.0, 3.0], "predictions"),
}


def _expected_message(entry, fault):
    """The regex a breach's message must match, or None where the entry
    point does not take the faulty array."""
    _, time_name, takes_events, prediction_name = ENTRY_POINTS[entry]
    array = FAULTS[fault][3]
    if array == "events" and not takes_events or array == "predictions" and not prediction_name:
        return None
    name = {"times": time_name, "events": "events", "predictions": prediction_name}[array]
    if fault.endswith("short"):
        if entry.endswith(("loss", "grad", "hess")):
            return rf"\b{name} \(2,\) .*do not broadcast to one shape$"
        return rf"^{name} has shape \(2,\) but {time_name} has shape \(3,\)$"
    return {"times": f"^{name} must be positive and finite$",
            "events": "^events must be 0 or 1$",
            "predictions": f"^{name} must {'be finite' if name == 'predictions' else 'not be NaN'}$",
            }[array]


@pytest.mark.parametrize("entry, fault", [(entry, fault) for entry in ENTRY_POINTS
                                          for fault in FAULTS if _expected_message(entry, fault)])
def test_every_entry_point_refuses_every_breach_naming_the_array(entry, fault):
    t, d, p, _ = FAULTS[fault]
    with pytest.raises(DomainError, match=_expected_message(entry, fault)):
        ENTRY_POINTS[entry][0](np.array(t), np.array(d), np.array(p))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_takes_valid_arrays(entry):
    ENTRY_POINTS[entry][0](np.array(T), np.array(D), np.array(P))


def test_checker_returns_float_times_a_mask_and_float_predictions():
    t, d, p = survival_arrays([1, 2], [1, 0], [0.0, INF])
    assert t.dtype == float and t.tolist() == [1.0, 2.0]
    assert d.dtype == bool and d.tolist() == [True, False]
    assert p.dtype == float and p.tolist() == [0.0, INF]
    assert survival_arrays(np.ones((2, 3)))[1:] == (None, None)
    assert survival_arrays([], [], [])[0].shape == (0,)


def test_losses_still_broadcast_scalars_and_nd_arrays():
    loss = _LOSSES[0]
    g, h = loss.grad_hess(1.0, 1, 0.0)
    assert np.shape(g) == np.shape(h) == ()
    assert loss.loss(np.ones((3, 1)), 1, np.zeros((1, 4))).shape == (3, 4)


def test_metrics_still_refuse_arrays_that_are_not_one_dimensional():
    with pytest.raises(DataError, match="^times must be one-dimensional$"):
        concordance(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
