"""A reverse-mode automatic differentiation tensor built on NumPy.

This module is the substrate that replaces PyTorch in this reproduction.
It implements the subset of autograd needed by the START model and all
baselines: broadcasting arithmetic, (batched) matrix multiplication,
reductions, indexing/embedding lookups, concatenation, element-wise
non-linearities and numerically-stable softmax / log-softmax.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (float32 by default) plus an optional
  gradient buffer and a closure that propagates gradients to its parents.
* The graph is built eagerly.  ``Tensor.backward()`` performs a topological
  sort and runs the stored backward closures in reverse order.
* ``backward()`` frees the graph as it goes, as PyTorch does by default.
  Once an interior node's closure has run, the node drops its gradient,
  its closure and its parent links, so each activation dies as soon as no
  later closure needs it and nothing of the graph outlives the call.  A
  training step thus holds one graph, not two: the previous step's graph
  used to live until the loop rebound its loss.  Leaves (parameters, and
  tensors made with ``requires_grad=True``) keep their gradients.
* Back-propagating through a freed node raises ``RuntimeError`` before any
  gradient moves: a second ``loss.backward()`` (which used to add every
  leaf gradient again), or a freed interior reused in a new graph (whose
  gradient would silently stop short of the leaves behind it).  There is
  no ``retain_graph``: every training loop here runs
  one backward per graph, so one path serves them all, and its gradients
  are bitwise those of the graph-keeping backward (the closures run in the
  same order on the same operands).
* Broadcasting in the forward pass is undone in the backward pass by
  :func:`unbroadcast`, which sums gradient entries over broadcast axes.
* Gradients are accumulated (``+=``), matching PyTorch semantics, so
  parameters that appear several times in a graph receive the full gradient.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autodiff."""
    return _grad_enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape``.

    NumPy broadcasting can add leading axes and stretch length-1 axes; the
    gradient of a broadcast input is the sum over every axis that was
    expanded.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape but expanded.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True when ``index`` uses only basic indexing (no integer/bool arrays).

    Basic indexing never selects the same element twice, which lets the
    gradient scatter use a plain ``+=`` instead of ``np.add.at``.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, (int, np.integer, slice))
        for item in items
    )


_FREED_GRAPH = (
    "backward() through a graph that was already back-propagated, which "
    "freed its interior nodes; run the forward again"
)


def _freed(grad) -> None:
    """Stands in for the closure of a node whose graph ``backward()`` freed."""
    raise RuntimeError(_FREED_GRAPH)


def _as_array(value, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, (np.ndarray, np.generic)):
        # Preserve explicit floating dtypes (float64 is used by the
        # finite-difference gradient checks); cast everything else.
        value = np.asarray(value)
        if value.dtype in (np.float32, np.float64):
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless an ndarray with a
        floating dtype is given.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = _backward
        self._parents = _parents if self.requires_grad or _parents else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result node, recording the graph only when needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor, freeing its graph.

        Each interior node drops its gradient, closure and parent links once
        its closure has run; leaves keep their gradients.  Raises
        ``RuntimeError``, moving no gradient, when the graph holds a node an
        earlier call freed.

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
            if node._backward is _freed:  # raise before any gradient moves
                raise RuntimeError(_FREED_GRAPH)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Pop, so the list holds no node whose closure has run.  A node's
        # gradient is complete once every child has run (they come first).
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:  # a leaf or a constant
                continue
            grad = node.grad
            node.grad = None
            node._backward = _freed
            node._parents = ()
            if grad is not None:
                backward(grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other.data, self.shape))
            other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.expand_dims(grad, -1) * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(grad_other, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return Tensor._make(out_data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        mask = self.data > 0
        exp_part = alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0)
        out_data = np.where(mask, self.data, exp_part)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, exp_part + alpha))

        return Tensor._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        c = np.sqrt(2.0 / np.pi).astype(self.data.dtype)
        inner = c * (self.data + 0.044715 * self.data**3)
        tanh_inner = np.tanh(inner)
        out_data = 0.5 * self.data * (1.0 + tanh_inner)

        def backward(grad: np.ndarray) -> None:
            sech2 = 1.0 - tanh_inner**2
            d_inner = c * (1.0 + 3 * 0.044715 * self.data**2)
            local = 0.5 * (1.0 + tanh_inner) + 0.5 * self.data * sech2 * d_inner
            self._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = grad
            if axis is not None and not keepdims:
                grad_full = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad_full, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        if eps:
            out = out + eps
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = grad
            out_full = out_data
            if axis is not None and not keepdims:
                grad_full = np.expand_dims(grad, axis=axis)
                out_full = np.expand_dims(out_data, axis=axis)
            mask = (self.data == out_full).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad_full)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                # Basic (slice/int) indexing selects each element at most
                # once, so a direct in-place add is safe and avoids the much
                # slower element-wise ``np.add.at`` scatter.
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def flip(self, axis: int) -> "Tensor":
        """Reverse along ``axis`` (a strided view forward, one copy backward)."""
        out_data = np.flip(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.flip(grad, axis=axis))

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward)

    # ------------------------------------------------------------------ #
    # Softmax family (numerically stable, fused backward)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> "Tensor":
        # Unseeded fallback on purpose: ad-hoc tensors for callers that did
        # not ask for reproducibility; training paths always pass an rng.
        rng = rng if rng is not None else np.random.default_rng()  # repro: allow[det-global-rng]
        return Tensor(rng.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)


# ---------------------------------------------------------------------- #
# Free functions on tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each part."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select: ``condition`` is a boolean ndarray (not differentiated)."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad * condition, a.shape))
        b._accumulate(unbroadcast(grad * (~condition), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (the embedding matrix) for integer ``indices``.

    Gradients are scattered back with ``np.add.at`` so repeated indices
    accumulate correctly.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
        weight._accumulate(full)

    return Tensor._make(out_data, (weight,), backward)


def take_rows(tensor: Tensor, rows: np.ndarray) -> Tensor:
    """Select *unique* rows of a 2-D tensor.

    The caller guarantees ``rows`` has no repeated index (e.g. the output of
    ``np.where`` on a boolean row mask), which lets the backward pass use a
    direct fancy-index assignment instead of the much slower element-wise
    ``np.add.at`` scatter.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out_data = tensor.data[rows]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(tensor.data)
        full[rows] = grad
        tensor._accumulate(full)

    return Tensor._make(out_data, (tensor,), backward)


def gather_rows(tensor: Tensor, indices: np.ndarray, scatter_matrix: np.ndarray | None) -> Tensor:
    """Row gather with (possibly repeated) ``indices`` and a matmul backward.

    ``scatter_matrix`` is the constant one-hot ``(num_rows, len(indices))``
    matrix with ``scatter_matrix[indices[e], e] = 1``; the gradient of the
    gather is ``scatter_matrix @ grad``, a BLAS GEMM instead of an
    ``np.add.at`` scatter.  Used by the TPE-GAT edge gathers, whose scatter
    structure is fixed per graph.  Pass ``None`` (graphs too large for a
    dense one-hot) to fall back to the ``np.add.at`` scatter — identical
    gradients, no O(rows x indices) memory.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = tensor.data[indices]

    def backward(grad: np.ndarray) -> None:
        if scatter_matrix is not None:
            tensor._accumulate(scatter_matrix @ grad)
        else:
            full = np.zeros_like(tensor.data)
            np.add.at(full, indices, grad)
            tensor._accumulate(full)

    return Tensor._make(out_data, (tensor,), backward)


def masked_fill(tensor: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (no gradient there)."""
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, np.array(value, dtype=tensor.dtype), tensor.data)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(unbroadcast(grad * (~mask), tensor.shape))

    return Tensor._make(out_data, (tensor,), backward)
