"""Coalescing: deciding which requests may legally share one batch.

Two requests may be stacked along the batch axis if and only if a single
``conv2d`` call over the concatenated input would compute exactly what two
separate calls would: same per-image geometry, the *same weight array*
(identity, not just equal values — the stacked call consults the spectrum
cache once, so entries must alias the same kernel), the same bias object,
and the same convolution parameters, algorithm, channel strategy and FFT
backend.  All of that is captured by :class:`CoalesceKey`.

The key is also the guard scope under concurrency: shards of one request
family pass the key to :func:`repro.guard.chain.guarded_conv2d` as
``breaker_key``, so a chronically failing family opens *one* breaker no
matter how the batch axis was split (per-shard shapes differ only in
``n``, which the key deliberately excludes).

Parameter spellings go through :func:`repro.utils.shapes.canonical_params`,
the function :class:`~repro.utils.shapes.ConvShape` canonicalizes with
(``(1, 1)`` collapses to ``1``, an ``(ph, pw)`` pair expands to the
4-tuple before collapsing), so equivalent spellings coalesce without
paying ConvShape construction per request.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.utils.shapes import canonical_axes, canonical_params


class CoalesceKey(NamedTuple):
    """Everything that must match for requests to share a stacked batch.

    A ``NamedTuple`` rather than a frozen dataclass: the key is built on
    every ``submit`` and a frozen dataclass pays one ``object.__setattr__``
    per field, which at twelve fields is measurable on the hot path.
    """

    input_chw: tuple[int, ...]
    weight_id: int
    weight_shape: tuple[int, ...]
    bias_id: int | None
    dtype: str
    padding: int | tuple | str
    stride: int | tuple
    dilation: int | tuple
    groups: int
    algorithm: str
    strategy: str
    backend: str | None
    #: Operator family ("conv1d" / "conv2d" / "conv3d" /
    #: "conv_transpose2d").  Part of the key: a conv and its adjoint over
    #: identical geometry must never share a stacked call.
    op: str = "conv2d"
    #: Extra rows/cols appended to a transposed convolution's output to
    #: disambiguate the strided output size; always 0 for forward convs.
    output_padding: int | tuple = 0


#: Expected array rank (batch + channel + spatial dims) per operator,
#: with the layout names the error messages quote.
OP_RANKS: dict[str, tuple[int, str, str]] = {
    "conv1d": (3, "NCL", "FCK"),
    "conv2d": (4, "NCHW", "FCKhKw"),
    "conv_transpose2d": (4, "NCHW", "CFKhKw (c_in, c_out/g, kh, kw)"),
    "conv3d": (5, "NCDHW", "FCKdKhKw"),
}


def coalesce_key(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 algorithm: str = "polyhankel", strategy: str = "sum",
                 backend: str | None = None, op: str = "conv2d",
                 output_padding: int | tuple = 0) -> CoalesceKey:
    """The :class:`CoalesceKey` of one request (arrays keyed by identity)."""
    algorithm = getattr(algorithm, "value", algorithm)
    op = getattr(op, "value", op)
    ndim = x.ndim - 2
    padding, stride, dilation = canonical_params(padding, stride, dilation,
                                                 ndim)
    return CoalesceKey(
        input_chw=tuple(x.shape[1:]),
        weight_id=id(weight),
        weight_shape=tuple(weight.shape),
        bias_id=None if bias is None else id(bias),
        dtype=x.dtype.char,  # .char, not str(): dtype.__str__ costs ~8us
        padding=padding,
        stride=stride,
        dilation=dilation,
        groups=int(groups),
        algorithm=str(algorithm),
        strategy=str(strategy),
        backend=backend,
        op=str(op),
        output_padding=canonical_axes(output_padding, ndim,
                                      "output_padding"),
    )


@dataclass
class ConvRequest:
    """One in-flight convolution request with its result future.

    The request pins strong references to its arrays, so the ``id``-based
    key fields of :attr:`key` stay valid for the request's lifetime.
    """

    x: np.ndarray
    weight: np.ndarray
    bias: np.ndarray | None
    key: CoalesceKey
    #: Stacked rows this request contributes (its own batch size); a plain
    #: field so the queue's row accounting never re-derives it per scan.
    batch: int = 0
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Absolute monotonic deadline (``time.monotonic()`` clock) or None
    #: for no deadline.  Every serving stage sheds the request instead of
    #: executing it once this passes — see :mod:`repro.serve.overload`.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.batch:
            self.batch = int(self.x.shape[0])

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has passed (False when unbounded)."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


def make_request(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 algorithm: str = "polyhankel", strategy: str = "sum",
                 backend: str | None = None, op: str = "conv2d",
                 output_padding: int | tuple = 0,
                 deadline: float | None = None) -> ConvRequest:
    """Validate lightly and wrap one call's arguments as a request.

    *deadline* is an **absolute** ``time.monotonic()`` instant (front
    doors convert a relative ``deadline_s`` via
    :func:`repro.serve.overload.resolve_deadline`).
    """
    x = np.asarray(x, dtype=float)
    weight = np.asarray(weight, dtype=float)
    op = str(getattr(op, "value", op))
    if op not in OP_RANKS:
        raise ValueError(
            f"unknown op {op!r}; expected one of {sorted(OP_RANKS)}")
    rank, x_layout, w_layout = OP_RANKS[op]
    if x.ndim != rank:
        raise ValueError(
            f"{op} input must be {x_layout}, got shape {x.shape}")
    if weight.ndim != rank:
        raise ValueError(
            f"{op} weight must be {w_layout}, got shape {weight.shape}")
    key = coalesce_key(x, weight, bias, padding, stride, dilation, groups,
                       algorithm, strategy, backend, op, output_padding)
    return ConvRequest(x=x, weight=weight, bias=bias, key=key,
                       deadline=deadline)


def stack_requests(requests: list[ConvRequest]) -> np.ndarray:
    """Concatenate compatible requests along the batch axis (bit-exact:
    every engine stage is row-independent)."""
    if len(requests) == 1:
        return requests[0].x
    return np.concatenate([r.x for r in requests], axis=0)


def split_result(out: np.ndarray,
                 requests: list[ConvRequest]) -> list[np.ndarray]:
    """Slice a stacked result back into per-request outputs.

    Returns contiguous copies so no request's result pins the whole
    stacked array alive (requests outlive the batch independently).
    """
    if len(requests) == 1:
        return [out]
    results = []
    row = 0
    for request in requests:
        results.append(np.ascontiguousarray(out[row:row + request.batch]))
        row += request.batch
    return results
