"""A reverse-mode automatic-differentiation engine over numpy arrays.

This module stands in for PyTorch's autograd in the paper reproduction.
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it; calling :meth:`Tensor.backward` walks the recorded graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

Design notes
------------
- All data is ``float64``. The attacks in this library are optimization
  procedures whose analysis (e.g. ESA exactness) relies on high precision.
- Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand's shape by :func:`unbroadcast`.
- The graph is built eagerly and is acyclic by construction; ``backward``
  uses an explicit stack-based topological sort so deep generator+model
  compositions cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import GradientError, ShapeError, ValidationError
from repro.utils.numeric import relu as _relu

ArrayLike = "np.ndarray | float | int | list | tuple"


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over the axes that were added or expanded by numpy broadcasting so
    that the returned gradient has exactly ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra < 0:
        raise ShapeError(f"cannot unbroadcast {grad.shape} to {shape}")
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"unbroadcast produced {grad.shape}, expected {shape}")
    return grad


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A node in the autodiff graph wrapping a float64 numpy array.

    Parameters
    ----------
    data:
        Array-like payload; copied to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "leaf",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = tuple(_parents)
        self._backward = _backward
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a plain ndarray."""
        return self.data.copy()

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (and must be supplied
            explicitly for non-scalar outputs only if a different seed is
            desired).
        """
        if not self.requires_grad:
            raise GradientError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise GradientError(
                    f"seed gradient shape {grad.shape} != output shape {self.data.shape}"
                )

        order = self._topological_order()
        self._accumulate(grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list["Tensor"]:
        """Reverse topological order starting at ``self`` (iterative DFS)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data + other.data
        requires = self.requires_grad or other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.data.shape))

        return Tensor(out_data, requires, (self, other), backward if requires else None, "add")

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out_data = self.data * other.data
        requires = self.requires_grad or other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.data.shape))

        return Tensor(out_data, requires, (self, other), backward if requires else None, "mul")

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise ValidationError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)
        out_data = self.data ** exponent
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor(out_data, requires, (self,), backward if requires else None, "pow")

    # ------------------------------------------------------------------
    # Transcendental ops
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor(out_data, requires, (self,), backward if requires else None, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor(out_data, requires, (self,), backward if requires else None, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self ** 0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor(out_data, requires, (self,), backward if requires else None, "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid with a numerically stable forward."""
        from repro.utils.numeric import sigmoid as _sigmoid

        out_data = _sigmoid(self.data)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor(out_data, requires, (self,), backward if requires else None, "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        out_data = _relu(self.data)
        requires = self.requires_grad
        mask = self.data > 0 if requires else None

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor(out_data, requires, (self,), backward if requires else None, "relu")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the origin)."""
        sign = np.sign(self.data)
        out_data = np.abs(self.data)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor(out_data, requires, (self,), backward if requires else None, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor(out_data, requires, (self,), backward if requires else None, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                g = np.expand_dims(g, axis=tuple(a % self.data.ndim for a in axes))
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(out_data, requires, (self,), backward if requires else None, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (``ddof=0``) over ``axis``, differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    def max_detached(self, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
        """Max of the raw data (used for numerically-stable softmax shifts).

        The result is a plain array treated as a constant by autograd —
        shifting by the max does not change softmax's value or gradient.
        """
        return self.data.max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of the tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return Tensor(out_data, requires, (self,), backward if requires else None, "reshape")

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (2-D only)."""
        if self.data.ndim != 2:
            raise ShapeError(f"T requires a 2-D tensor, got shape {self.shape}")
        out_data = self.data.T
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor(out_data, requires, (self,), backward if requires else None, "transpose")

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        requires = self.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor(out_data, requires, (self,), backward if requires else None, "getitem")

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands."""
        other = _ensure_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul requires 2-D tensors, got {self.shape} and {other.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        out_data = self.data @ other.data
        requires = self.requires_grad or other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor(out_data, requires, (self, other), backward if requires else None, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


def _ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _raise_item(t: Tensor):
    raise ValidationError(f"item() requires a single-element tensor, got shape {t.shape}")


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing.

    Used to join the adversary's known features with the generator's output
    before feeding the VFL model (Algorithm 2, line 9).
    """
    tensors = [_ensure_tensor(t) for t in tensors]
    if not tensors:
        raise ValidationError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    ax = axis % out_data.ndim
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[ax] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(index)])

    return Tensor(out_data, requires, tuple(tensors), backward if requires else None, "concat")


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack 1-D tensors as rows of a 2-D tensor."""
    tensors = [_ensure_tensor(t) for t in tensors]
    reshaped = [t.reshape(1, -1) if t.ndim == 1 else t for t in tensors]
    return concat(reshaped, axis=0)


def assemble_columns(
    constant: np.ndarray,
    variable: Tensor,
    constant_positions: np.ndarray,
    variable_positions: np.ndarray,
) -> Tensor:
    """Scatter a constant block and a tensor block into interleaved columns.

    Single-node fusion of ``concat([constant, variable], axis=1)[:, perm]``
    — the "x_adv ∪ x̂_target" reassembly on GRNA's training hot path
    (Algorithm 2 line 9). The forward is one scatter instead of a
    concatenate plus a full-width gather, and the backward is one gather
    of the variable columns instead of an ``np.add.at`` scatter over the
    full joint width. Both the output and the gradient bytes are
    identical to the composition this replaces: the positions partition
    the column range, so ``add.at`` degenerates to assignment, and the
    trailing ``+ 0.0`` reproduces its ``0.0 + g`` zero-sign behavior.
    """
    constant = np.asarray(constant, dtype=np.float64)
    if constant.ndim != 2 or variable.ndim != 2:
        raise ShapeError(
            f"assemble_columns requires 2-D blocks, got {constant.shape} and {variable.shape}"
        )
    if constant.shape[0] != variable.shape[0]:
        raise ShapeError(
            f"row mismatch: {constant.shape[0]} vs {variable.shape[0]}"
        )
    constant_positions = np.asarray(constant_positions, dtype=np.int64)
    variable_positions = np.asarray(variable_positions, dtype=np.int64)
    width = constant_positions.size + variable_positions.size
    if constant.shape[1] != constant_positions.size or variable.shape[1] != variable_positions.size:
        raise ShapeError(
            "column positions do not match block widths: "
            f"{constant.shape[1]}/{constant_positions.size} and "
            f"{variable.shape[1]}/{variable_positions.size}"
        )
    combined = np.concatenate([constant_positions, variable_positions])
    combined.sort()
    if not np.array_equal(combined, np.arange(width)):
        raise ValidationError(
            "constant_positions and variable_positions must partition "
            f"the output columns 0..{width - 1} exactly"
        )
    # Column-major on purpose: the composition this fuses ends in a
    # column-gather (`concat(...)[:, perm]`) whose result numpy lays out
    # F-contiguously, and BLAS picks its reassociation by operand layout —
    # a C-ordered buffer here would flip downstream matmul bits by 1 ulp.
    out_data = np.empty((constant.shape[0], width), order="F")
    out_data[:, constant_positions] = constant
    out_data[:, variable_positions] = variable.data
    requires = variable.requires_grad

    def backward(grad: np.ndarray) -> None:
        if variable.requires_grad:
            variable._accumulate(grad[:, variable_positions] + 0.0)

    return Tensor(out_data, requires, (variable,), backward if requires else None, "assemble")
