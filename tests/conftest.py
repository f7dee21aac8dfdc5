import numpy as np
import pytest

from seeds_sde import DataDistribution, ScoreModel, VpLinear


@pytest.fixture(scope="session")
def vp():
    return VpLinear()


@pytest.fixture(scope="session")
def gauss_model(vp):
    return ScoreModel(DataDistribution.standard_normal(1), vp)


@pytest.fixture(scope="session")
def mixture_model(vp):
    data = DataDistribution(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.5], [-1.5]]),
        variances=np.array([[1.0], [1.0]]),
    )
    return ScoreModel(data, vp)


class ConstantModel:
    """Stub network returning fixed values; used by degeneration tests."""

    def __init__(self, d, noise_value=0.0, data_value=0.0):
        self._d = d
        self.noise_value = noise_value
        self.data_value = data_value
        self.nfe = 0

    @property
    def dim(self):
        return self._d

    def noise_pred(self, x, t):
        self.nfe += 1
        return np.full_like(np.asarray(x, dtype=float), self.noise_value)

    def data_pred(self, x, t):
        self.nfe += 1
        return np.full_like(np.asarray(x, dtype=float), self.data_value)

    def score_from_model(self, x, t):
        self.nfe += 1
        return np.full_like(np.asarray(x, dtype=float), self.noise_value)


@pytest.fixture
def constant_model():
    return ConstantModel


class NanFromModel:
    """Wraps a model; its noise predictions from the ``start``-th on are NaN."""

    def __init__(self, model, start):
        self.model, self.start, self.calls = model, start, 0
        self.dim = model.dim

    def noise_pred(self, x, t):
        self.calls += 1
        out = self.model.noise_pred(x, t)
        return out * np.nan if self.calls >= self.start else out


@pytest.fixture
def nan_from_model():
    return NanFromModel


@pytest.fixture
def marginal_calls(monkeypatch):
    """The times of every ``DataDistribution.marginal`` call from here on: a
    ``ScoreModel`` evaluation at a time it has no table row for computes its
    marginal there, one at a tabulated time reads the row."""
    times, marginal = [], DataDistribution.marginal

    def counting(self, sched, t):
        times.append(t)
        return marginal(self, sched, t)

    monkeypatch.setattr(DataDistribution, "marginal", counting)
    return times
