"""PolyHankel beyond 2D: audio (1D) and volumetric (3D) convolution.

The paper's construction is rank-generic (see repro/core/ndim.py).  This
example applies it to

1. a 1D audio-style task — matched filtering: locating a known chirp
   inside a noisy recording; and
2. a 3D volumetric task — detecting a small bright blob inside a noisy
   volume with a 3D Laplacian-of-Gaussian-like kernel.

Run:  python examples/beyond_2d.py
"""

import numpy as np

from repro.baselines.naive import convnd_naive
from repro.core.ndim import conv1d_polyhankel, conv3d_polyhankel

rng = np.random.default_rng(3)


def audio_matched_filter() -> None:
    print("=== 1D: matched filtering a chirp in noise ===")
    fs = 1000
    t = np.arange(0, 0.128, 1 / fs)
    chirp = np.sin(2 * np.pi * (40 + 200 * t) * t) * np.hanning(len(t))

    signal = rng.standard_normal(4096) * 0.8
    true_position = 1717
    signal[true_position: true_position + len(chirp)] += chirp

    # Matched filter = correlation with the template.
    response = conv1d_polyhankel(signal[None, None],
                                 chirp[None, None])[0, 0]
    found = int(np.argmax(response))
    print(f"chirp inserted at sample {true_position}, "
          f"matched filter peak at {found}")
    assert abs(found - true_position) <= 2

    reference = convnd_naive(signal[None, None], chirp[None, None])[0, 0]
    print(f"PolyHankel vs direct: max |diff| = "
          f"{np.abs(response - reference).max():.2e}\n")


def volumetric_blob_detection() -> None:
    print("=== 3D: blob detection in a noisy volume ===")
    size = 24
    volume = rng.standard_normal((size, size, size)) * 0.4
    center = (14, 8, 17)
    z, y, x = np.mgrid[0:size, 0:size, 0:size]
    blob = np.exp(-(((z - center[0]) ** 2 + (y - center[1]) ** 2
                     + (x - center[2]) ** 2) / 4.0))
    volume += 2.0 * blob

    # A small 3D Gaussian detector kernel.
    r = np.arange(5) - 2
    zz, yy, xx = np.meshgrid(r, r, r, indexing="ij")
    kernel = np.exp(-(zz ** 2 + yy ** 2 + xx ** 2) / 2.0)
    kernel /= kernel.sum()

    response = conv3d_polyhankel(volume[None, None], kernel[None, None],
                                 padding=2)[0, 0]
    found = np.unravel_index(np.argmax(response), response.shape)
    print(f"blob at {center}, detector peak at {tuple(map(int, found))}")
    assert all(abs(a - b) <= 1 for a, b in zip(found, center))

    reference = convnd_naive(volume[None, None], kernel[None, None],
                             padding=2)[0, 0]
    print(f"PolyHankel vs direct: max |diff| = "
          f"{np.abs(response - reference).max():.2e}\n")


def multichannel_3d() -> None:
    print("=== 3D multichannel: tiny video-feature layer ===")
    clips = rng.standard_normal((2, 3, 8, 16, 16))   # (n, c, t, h, w)
    filters = rng.standard_normal((4, 3, 3, 3, 3)) * 0.2
    features = conv3d_polyhankel(clips, filters, padding=1)
    reference = convnd_naive(clips, filters, padding=1)
    err = np.abs(features - reference).max()
    print(f"feature maps: {features.shape}, max |diff| vs direct = "
          f"{err:.2e}")
    assert err < 1e-8


if __name__ == "__main__":
    audio_matched_filter()
    volumetric_blob_detection()
    multichannel_3d()
