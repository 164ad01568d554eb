"""``Tensor.backward`` frees the autograd graph as it goes.

Once an interior node's closure has run, the node drops its gradient, its
closure and its parent links: the activations die with the call, leaves keep
their gradients, and back-propagating through a freed node raises.  Every
training loop must still leave the same bits as the graph-keeping backward
in ``autograd_reference``.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

import autograd_reference as reference
from repro.baselines import build_baseline
from repro.core.config import small_config
from repro.core.finetuning import TrajectoryClassifier, TravelTimeEstimator
from repro.core.pretraining import Pretrainer
from repro.experiments.model_zoo import TABLE2_MODELS, build_start
from repro.nn import Linear, Tensor
from repro.trajectory.presets import build_dataset


def leaf(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestGraphIsFreed:
    def test_interior_activations_die_with_backward(self, rng):
        x = leaf(rng, (4, 3))
        hidden = (x * 2.0).tanh()
        probe = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        loss.backward()
        assert probe() is None
        assert x.grad is not None

    def test_a_layer_keeps_only_its_parameter_gradients(self, rng):
        layer = Linear(3, 5, rng=rng)
        x = leaf(rng, (2, 3))
        hidden = layer(x).relu()
        loss = hidden.sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert hidden._parents == () and loss._parents == ()
        for param in (layer.weight, layer.bias, x):
            assert param.grad is not None and param.grad.shape == param.shape

    def test_second_backward_raises_and_moves_no_gradient(self, rng):
        x = leaf(rng, (3,))
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            loss.backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_a_freed_interior_in_a_new_graph_raises(self, rng):
        x, w = leaf(rng, (3,)), leaf(rng, (3,))
        hidden = x.exp()
        hidden.sum().backward()
        before = x.grad.copy()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            (hidden * 3.0 + w).sum().backward()
        assert x.grad.tobytes() == before.tobytes()
        assert w.grad is None  # raised before any gradient moved

    def test_a_leaf_root_accumulates_as_before(self, rng):
        x = leaf(rng, (2,))
        x.backward(np.ones(2))
        x.backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


CONFIG = small_config(seed=3, batch_size=8)


@pytest.fixture(scope="module")
def corpus():
    """Forty BJ trips, and stand-in road embeddings for the two-stage baselines
    (their node2vec walk trains without autograd and takes ~25 s)."""
    dataset = build_dataset("synthetic-bj", scale=0.2)
    network = dataset.network
    roads = np.random.default_rng(3).standard_normal((network.num_roads, CONFIG.d_model))
    return dataset, dataset.train_trajectories()[:40], {id(network): roads.astype(np.float32)}


FINE_TUNING = {
    "START travel time": lambda model: TravelTimeEstimator(model, CONFIG),
    "START classification": lambda model: TrajectoryClassifier(model, 2, config=CONFIG),
}


def _train(name: str, dataset, trips, node2vec_cache) -> tuple[list[float], dict]:
    """Losses, and every parameter's bytes and last gradient, after one epoch."""
    modules = []
    if name == "START":
        modules.append(build_start(dataset, CONFIG))
        losses = Pretrainer(modules[0], CONFIG).pretrain(trips, epochs=1).total
    elif name in FINE_TUNING:
        modules.append(build_start(dataset, CONFIG))
        task = FINE_TUNING[name](modules[0])
        modules.append(task.head)
        losses = task.fit(trips, epochs=1).loss
    else:
        modules.append(build_baseline(name, dataset.network, CONFIG, node2vec_cache))
        losses = modules[0].pretrain(trips, epochs=1)
    state = {
        f"{index}.{param_name}": (
            param.data.tobytes(),
            param.grad.tobytes() if param.grad is not None else b"",
        )
        for index, module in enumerate(modules)
        for param_name, param in module.named_parameters()
    }
    return list(losses), state


@pytest.mark.parametrize("name", TABLE2_MODELS + tuple(FINE_TUNING))
def test_training_leaves_the_graph_keeping_backwards_bits(name, corpus):
    freed = _train(name, *corpus)
    with reference.graph_keeping_backward():
        kept = _train(name, *corpus)
    assert freed[0] == kept[0]
    assert freed[1].keys() == kept[1].keys()
    for param_name in freed[1]:
        assert freed[1][param_name] == kept[1][param_name], param_name
