"""A small tape-based autograd engine over the library's operators.

Enough machinery to *train* networks whose convolutions run through any of
the registered algorithms (PolyHankel included): a :class:`Tensor` records
the operations applied to it; ``backward()`` replays the tape in reverse.
The convolution backward passes run through the forward's algorithm
(:mod:`repro.nn.grad`): PolyHankel through its forward plan's adjoint,
every other algorithm as convolutions.

This is intentionally minimal — single-threaded, NumPy-backed, no graphs
across ``backward()`` calls — but it is numerically verified against finite
differences and suffices for the training example and tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines.registry import ConvAlgorithm
from repro.nn import functional as F
from repro.nn.grad import (
    conv_transpose2d_backward_input,
    conv_transpose2d_backward_weight,
    convnd_backward,
    convnd_backward_bias,
)
from repro.utils.validation import ensure_array


class Tensor:
    """An array plus the closure that propagates gradients to its parents."""

    def __init__(self, data, parents: tuple["Tensor", ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None,
                 requires_grad: bool = False):
        self.data = ensure_array(data, "data", dtype=float)
        self.parents = parents
        self._backward_fn = backward_fn
        self.requires_grad = requires_grad or any(
            p.requires_grad for p in parents
        )
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # One pass into a fresh array of data's shape and dtype, never
            # ``grad`` itself (it may alias an upstream buffer).  ``g + 0.0``
            # equals ``0.0 + g`` bit for bit, signed zeros and NaN included.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        # Topological order over the tape: a depth-first post-order, kept
        # iterative because a recursive closure references itself through
        # its own cell, and that cycle would keep every Tensor of the step
        # alive until the cyclic collector runs.
        order: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self.parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent.parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        self._accumulate(np.asarray(grad, dtype=float))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None \
                    and node.requires_grad:
                node._backward_fn(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.data.shape}, "
                f"requires_grad={self.requires_grad})")


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _conv(op_fn, x: Tensor, weight: Tensor, bias: Tensor | None,
          padding, stride, dilation, groups, algorithm) -> Tensor:
    """Differentiable conv1d/conv2d/conv3d: *op_fn* runs the forward,
    and one rank-generic backward call computes both gradients through
    the same algorithm."""
    out_data = op_fn(x.data, weight.data,
                     None if bias is None else bias.data,
                     padding, stride, dilation, groups,
                     algorithm=algorithm)
    parents = (x, weight) + (() if bias is None else (bias,))

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad or weight.requires_grad:
            dx, dw = convnd_backward(
                grad, x.data, weight.data, padding=padding, stride=stride,
                dilation=dilation, groups=groups, algorithm=algorithm,
                input_grad=x.requires_grad,
                weight_grad=weight.requires_grad)
            if dx is not None:
                x._accumulate(dx)
            if dw is not None:
                weight._accumulate(dw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(convnd_backward_bias(grad))

    return Tensor(out_data, parents, backward_fn)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL
           ) -> Tensor:
    """Differentiable convolution; forward and both backwards run through
    the chosen algorithm.  Supports the full parameter space (per-axis
    stride/dilation, asymmetric or ``"same"`` padding, groups)."""
    return _conv(F.conv2d, x, weight, bias, padding, stride, dilation,
                 groups, algorithm)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL
           ) -> Tensor:
    """Differentiable 1D convolution (full parameter space)."""
    return _conv(F.conv1d, x, weight, bias, padding, stride, dilation,
                 groups, algorithm)


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL
           ) -> Tensor:
    """Differentiable 3D convolution (full parameter space)."""
    return _conv(F.conv3d, x, weight, bias, padding, stride, dilation,
                 groups, algorithm)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     padding: int | tuple = 0, stride: int | tuple = 1,
                     output_padding: int | tuple = 0,
                     dilation: int | tuple = 1, groups: int = 1,
                     algorithm: ConvAlgorithm | str =
                     ConvAlgorithm.POLYHANKEL) -> Tensor:
    """Differentiable transposed convolution.

    Input gradient is the plain forward conv with the same parameters
    (the adjoint of an adjoint); weight gradient is the 2D weight
    backward with input/gradient roles swapped.
    """
    out_data = F.conv_transpose2d(x.data, weight.data,
                                  None if bias is None else bias.data,
                                  padding, stride, output_padding,
                                  dilation, groups, algorithm=algorithm)
    parents = (x, weight) + (() if bias is None else (bias,))

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(conv_transpose2d_backward_input(
                grad, weight.data, padding=padding, stride=stride,
                dilation=dilation, groups=groups, algorithm=algorithm))
        if weight.requires_grad:
            weight._accumulate(conv_transpose2d_backward_weight(
                grad, x.data, weight.data.shape[2:], padding=padding,
                stride=stride, dilation=dilation, groups=groups,
                algorithm=algorithm))
        if bias is not None and bias.requires_grad:
            bias._accumulate(convnd_backward_bias(grad))

    return Tensor(out_data, parents, backward_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor(x.data * mask, (x,), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data
    parents = (x, weight) + (() if bias is None else (bias,))

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data)
        if weight.requires_grad:
            weight._accumulate(grad.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))

    return Tensor(out, parents, backward_fn)


def flatten(x: Tensor) -> Tensor:
    original = x.data.shape
    out = x.data.reshape(original[0], -1)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(original))

    return Tensor(out, (x,), backward_fn)


def max_pool2d(x: Tensor, kernel_size: int,
               stride: int | None = None) -> Tensor:
    windows, stride = F.pool_windows(x.data, kernel_size, stride)
    n, c, oh, ow = windows.shape[:4]
    h, w = x.data.shape[2:]
    flat = windows.reshape(n, c, oh, ow, -1)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Flat input index of each window's maximum: its offset inside the
        # window, plus the window's corner, plus its (n, c) plane.
        taps = np.arange(kernel_size)
        index = (taps[:, None] * w + taps).ravel()[arg]
        index += np.arange(oh)[:, None] * (stride * w) \
            + np.arange(ow) * stride
        index += np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
        # One scatter-add in (n, c, i, j) order: each input element
        # receives its windows' gradients in row-major window order, the
        # order a per-window loop adds them.
        dx = np.zeros(x.data.size)
        np.add.at(dx, index.ravel(), grad.ravel())
        x._accumulate(dx.reshape(x.data.shape))

    return Tensor(out, (x,), backward_fn)


def mean(x: Tensor) -> Tensor:
    size = x.data.size

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.full(x.data.shape, float(grad) / size))

    return Tensor(np.asarray(x.data.mean()), (x,), backward_fn)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; *labels* is an int class vector."""
    labels = np.asarray(labels)
    probs = F.softmax(logits.data, axis=-1)
    batch = logits.data.shape[0]
    nll = -np.log(probs[np.arange(batch), labels] + 1e-12)
    loss = nll.mean()

    def backward_fn(grad: np.ndarray) -> None:
        if logits.requires_grad:
            dlogits = probs.copy()
            dlogits[np.arange(batch), labels] -= 1.0
            logits._accumulate(float(grad) * dlogits / batch)

    return Tensor(np.asarray(loss), (logits,), backward_fn)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Tensor], lr: float = 0.01,
                 momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
