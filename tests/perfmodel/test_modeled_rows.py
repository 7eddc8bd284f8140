"""The PolyHankel cost model counts the transforms the engine runs.

:func:`repro.perfmodel.counters.count_polyhankel` models the paper's
overlap-save pipeline, and ``algorithm="polyhankel_os"`` executes it.
Both read one block geometry (:func:`repro.core.planning.
overlap_save_blocks`), so one uncached call must record, per transform
kind and size, exactly the model's rows: ``n * c * blocks`` input rfft
rows and ``f * c/g`` weight rfft rows, ``n * f * blocks`` irfft rows, all
at the model's block size.  A cached call drops the weight rows, as the
engine predictor (:func:`repro.perfmodel.engine.predict_fft_counters`)
states.
"""

import numpy as np
import pytest

from repro.baselines.registry import convolve
from repro.core.multichannel import clear_plan_cache, clear_spectrum_cache
from repro.core.planning import overlap_save_blocks
from repro.observe import tracing
from repro.observe.registry import counters, fft_call_totals
from repro.perfmodel.counters import _rfft_flops, count_polyhankel
from repro.perfmodel.engine import predict_fft_counters
from repro.utils.shapes import ConvShape

#: (input shape, weight shape, conv parameters): ranks 1-3, each plain and
#: with stride 2, dilation 2 and groups 2; the long 1D and the 40x40 cases
#: stream several blocks per image.
GRID = [
    pytest.param((2, 4, 300), (6, 4, 5), {}, id="1d"),
    pytest.param((2, 4, 1500), (4, 2, 7),
                 dict(padding=3, stride=2, dilation=2, groups=2),
                 id="1d-s2-d2-g2-blocks"),
    pytest.param((2, 3, 40, 40), (4, 3, 3, 3), dict(padding=1),
                 id="2d-blocks"),
    pytest.param((3, 4, 20, 24), (6, 2, 3, 3),
                 dict(padding=1, stride=2, dilation=2, groups=2),
                 id="2d-s2-d2-g2"),
    pytest.param((1, 2, 8, 10, 12), (4, 2, 3, 3, 3), dict(padding=1),
                 id="3d"),
    pytest.param((2, 4, 6, 7, 8), (4, 2, 2, 3, 2),
                 dict(padding=(1, 0, 1), stride=2, dilation=2, groups=2),
                 id="3d-s2-d2-g2"),
]


def _executed(x, w, params) -> dict:
    """``{(kind, size): (calls, rows)}`` of one uncached call."""
    clear_plan_cache()
    clear_spectrum_cache()
    counters.clear("fft.")
    with tracing():
        convolve(x, w, algorithm="polyhankel_os", **params)
    out = {}
    for name in ("fft.calls", "fft.rows"):
        for row in counters.snapshot(name):
            tags = row.tag_dict
            key = (tags["kind"], int(tags["n"]))
            calls, rows = out.get(key, (0, 0))
            if name == "fft.calls":
                calls += int(row.value)
            else:
                rows += int(row.value)
            out[key] = (calls, rows)
    return out


def _modeled(shape: ConvShape) -> dict:
    """The model's transforms, rows read back from its stage FLOPs."""
    nfft, _, blocks = overlap_save_blocks(shape)
    stages = {s.name: s for s in count_polyhankel(shape).stages}
    per_row = _rfft_flops(nfft)
    input_rows = stages["input_block_ffts"].flops / per_row
    weight_rows = stages["kernel_ffts"].flops / per_row
    inverse_rows = stages["ifft_blocks_gather"].flops / per_row
    assert input_rows == shape.n * shape.c * blocks
    assert inverse_rows == shape.n * shape.f * blocks
    return {("rfft", nfft): (2, int(input_rows + weight_rows)),
            ("irfft", nfft): (1, int(inverse_rows))}


@pytest.mark.parametrize("x_shape,w_shape,params", GRID)
def test_uncached_call_runs_the_modeled_rows(x_shape, w_shape, params):
    rng = np.random.default_rng(len(x_shape))
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    shape = ConvShape.from_tensors(x_shape, w_shape, **params)
    assert _executed(x, w, params) == _modeled(shape)


@pytest.mark.parametrize("x_shape,w_shape,params", GRID)
def test_cached_call_runs_the_predicted_rows(x_shape, w_shape, params):
    rng = np.random.default_rng(len(x_shape))
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    clear_plan_cache()
    clear_spectrum_cache()
    convolve(x, w, algorithm="polyhankel_os", **params)
    counters.clear("fft.")
    with tracing():
        convolve(x, w, algorithm="polyhankel_os", **params)
    totals = fft_call_totals()
    got = {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {k: v["calls"] for k, v in sorted(totals.items())},
    }
    shape = ConvShape.from_tensors(x_shape, w_shape, **params)
    assert got == predict_fft_counters(shape, "overlap_save")


def test_grid_streams_several_blocks():
    """The grid exercises the block boundaries, not only one block."""
    shape = ConvShape.from_tensors((2, 3, 40, 40), (4, 3, 3, 3), padding=1)
    assert overlap_save_blocks(shape)[2] >= 3
