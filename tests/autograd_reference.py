"""``Tensor.backward`` as it was before it freed the graph, kept as a reference.

A copy of the backward pass that kept every node's gradient, closure and
parent links until the caller dropped the graph, and of ``_accumulate``.  A
training loop therefore held step t-1's whole graph, with a gradient on
every interior node, while step t built its own.
``benchmarks/test_pretrain_memory.py`` measures the traced memory peak of
both and ``tests/test_graph_lifetime.py`` checks that they leave the same
bits, the way ``bulk_encode_reference`` keeps the per-row builder and the
out-of-place kernels.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.tensor import Tensor, _as_array


def _accumulate(self, grad: np.ndarray) -> None:
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
    else:
        self.grad += grad


def backward(self, grad: np.ndarray | None = None) -> None:
    """Run reverse-mode autodiff from this tensor.

    Parameters
    ----------
    grad:
        Gradient of the objective with respect to this tensor.  Defaults
        to ones, which is only meaningful for scalar outputs (losses).
    """
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        grad = np.ones_like(self.data)
    else:
        grad = _as_array(grad, dtype=self.data.dtype)

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@contextmanager
def graph_keeping_backward():
    """Run the block with the reference ``Tensor.backward`` and ``_accumulate``."""
    originals = (Tensor.backward, Tensor._accumulate)
    Tensor.backward, Tensor._accumulate = backward, _accumulate
    try:
        yield
    finally:
        Tensor.backward, Tensor._accumulate = originals
