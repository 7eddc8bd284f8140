"""A training step holds only the memory that is still live, and runs
exactly the transforms its spectral backward needs.

Two things could keep a step's arrays past their last use: a tape whose
Tensors sit in reference cycles, freed only when the cyclic collector
runs, and weight-spectrum cache entries that outlive a gradient's
throwaway operands until the LRU bound pushes them out.  The tests that
need it switch the collector off, so only reference counting can free
anything.  The transform counts of one step are pinned exactly, so a
backward that falls back to gradient convolutions fails by name.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import multichannel as mc
from repro.nn import autograd as ag
from repro.observe import tracing
from repro.observe.registry import counters
from repro.utils.shapes import ConvShape

# The benchmark's training CNN: (in, out, kernel, padding) per conv, each
# but the last followed by ReLU and a 2x2 max-pool, then a global max-pool
# to one logit per class.
CONVS = ((3, 16, 3, 1), (16, 32, 3, 1), (32, 10, 5, 0))
BATCH, SIZE, CLASSES = 4, 32, 10


@pytest.fixture(autouse=True)
def _fresh_spectrum_cache():
    mc.clear_spectrum_cache()
    yield
    mc.clear_spectrum_cache()


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _params(rng):
    params = []
    for c_in, c_out, k, _ in CONVS:
        scale = np.sqrt(2.0 / (c_in * k * k))
        params.append(ag.parameter(
            rng.standard_normal((c_out, c_in, k, k)) * scale))
        params.append(ag.parameter(np.zeros(c_out)))
    return params


def _batch(rng, batch=BATCH):
    return (rng.standard_normal((batch, CONVS[0][0], SIZE, SIZE)),
            rng.integers(0, CLASSES, batch))


def _loss(params, x, labels):
    h = ag.Tensor(x)
    for i, (_, _, _, padding) in enumerate(CONVS):
        h = ag.conv2d(h, params[2 * i], params[2 * i + 1], padding=padding)
        if i + 1 < len(CONVS):
            h = ag.max_pool2d(ag.relu(h), 2)
    h = ag.max_pool2d(h, h.shape[-1])
    return ag.cross_entropy(ag.flatten(h), labels)


def _tape_refs(loss, params):
    """Weak references to every Tensor on *loss*'s tape but the
    parameters."""
    keep = {id(p) for p in params}
    refs, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if id(node) not in keep:
            refs.append(weakref.ref(node))
        stack.extend(node.parents)
    return refs


def test_step_tensors_die_with_the_loss(rng, collector_off):
    params = _params(rng)
    optimizer = ag.SGD(params, lr=0.01, momentum=0.9)
    loss = _loss(params, *_batch(rng))
    refs = _tape_refs(loss, params)
    assert len(refs) > 10
    loss.backward()
    optimizer.step()
    del loss
    alive = [r() for r in refs if r() is not None]
    assert alive == []


def test_training_keeps_only_live_weight_spectra(rng):
    params = _params(rng)
    optimizer = ag.SGD(params, lr=0.01, momentum=0.9)
    batches = [_batch(rng) for _ in range(4)]
    for step in range(30):
        optimizer.zero_grad()
        loss = _loss(params, *batches[step % len(batches)])
        loss.backward()
        optimizer.step()
    assert np.isfinite(float(loss.data))
    # Only the three forward conv weights have entries: the spectral
    # backward inserts none.
    assert mc.spectrum_cache_info().size <= len(CONVS)
    entries = list(mc._SPECTRUM_CACHE.values())
    assert all(entry[0]() is not None for entry in entries)


def _step_transforms(n):
    """``(fft.calls, fft.rows)`` of one step at batch *n*.

    Per conv, the forward transforms the input (``n·c`` rows) and the
    weight (``f·c``) and inverts the products (``n·f``); the adjoint
    transforms the output gradient (``n·f``) and the input (``n·c``),
    inverts the weight gradient (``f·c``) and, where the input needs a
    gradient, the input gradient (``n·c``).  The data needs none.  At
    the benchmark's batch 16 that is 20 calls and 6,016 rows.
    """
    calls = rows = 0
    for i, (c, f, _, _) in enumerate(CONVS):
        calls += 6
        rows += (n * c + f * c + n * f) + (n * f + n * c + f * c)
        if i:
            calls += 1
            rows += n * c
    return calls, rows


@pytest.mark.parametrize("batch", [BATCH, 16])
def test_one_step_runs_exactly_the_spectral_transforms(rng, batch):
    params = _params(rng)
    optimizer = ag.SGD(params, lr=0.01, momentum=0.9)
    x, labels = _batch(rng, batch)
    names = ("fft.calls", "fft.rows", "cache.spectrum.hits",
             "cache.spectrum.misses")
    for _ in range(2):                  # the second step is measured
        optimizer.zero_grad()
        before = {name: counters.total(name) for name in names}
        with tracing() as spans:
            _loss(params, x, labels).backward()
        delta = {name: counters.total(name) - before[name]
                 for name in names}
        optimizer.step()
    assert (delta["fft.calls"], delta["fft.rows"]) == _step_transforms(batch)
    # One weight transform per conv, in its forward: each step's update
    # misses the cache there, and the two input gradients hit it.
    assert sum(s.name == "weight.transform" for s in spans) == len(CONVS)
    assert delta["cache.spectrum.misses"] == len(CONVS)
    assert delta["cache.spectrum.hits"] == len(CONVS) - 1


def test_dropping_a_weight_drops_its_entry(rng, collector_off):
    x = rng.standard_normal((1, 2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    kept = rng.standard_normal((3, 2, 3, 3))
    mc.conv2d_polyhankel(x, w, padding=1)
    mc.conv2d_polyhankel(x, kept, padding=1)
    assert mc.spectrum_cache_info().size == 2
    del w
    assert mc.spectrum_cache_info().size == 1
    # The surviving weight still hits.
    hits = mc.spectrum_cache_info().hits
    mc.conv2d_polyhankel(x, kept, padding=1)
    assert mc.spectrum_cache_info().hits == hits + 1


def test_stale_reference_spares_the_newer_entry(rng):
    """A weight re-inserted after an in-place update holds a newer
    reference; the callback of its older one must leave the entry."""
    plan = mc.get_plan(ConvShape((8, 8), (3, 3), n=1, c=2, f=3))
    w = rng.standard_normal((3, 2, 3, 3))
    plan.weight_spectrum(w)
    key = (id(w), id(plan))
    old_ref = mc._SPECTRUM_CACHE[key][0]
    w += 1.0
    plan.weight_spectrum(w)
    mc._evict_spectrum(key, old_ref)
    assert mc.spectrum_cache_info().size == 1
    del w
    assert mc.spectrum_cache_info().size == 0


def test_unreferenceable_weight_is_transformed_uncached(rng):
    plan = mc.get_plan(ConvShape((8, 8), (3, 3), n=1, c=2, f=3))
    w = rng.standard_normal((3, 2, 3, 3))
    spectrum = plan.weight_spectrum(w.tolist())
    assert np.array_equal(spectrum, plan.transform_weight(w))
    assert mc.spectrum_cache_info().size == 0
