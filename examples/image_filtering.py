"""Classic image filtering with PolyHankel convolution.

Builds a synthetic test image (no external data needed), applies Sobel
edge detection, Gaussian blur and a sharpening kernel via the PolyHankel
path, and verifies each against direct convolution.

Run:  python examples/image_filtering.py
"""

import numpy as np

from repro.baselines import convnd_naive
from repro.core import conv2d_single


def synthetic_image(size: int = 96) -> np.ndarray:
    """A test card: gradient background, a bright square and a disc."""
    y, x = np.mgrid[0:size, 0:size].astype(float)
    image = 0.3 * (x + y) / (2 * size)
    image[size // 8: size // 3, size // 8: size // 3] += 0.9  # square
    disc = (x - 0.7 * size) ** 2 + (y - 0.65 * size) ** 2 \
        < (size // 6) ** 2
    image[disc] += 0.7
    return image


def gaussian_kernel(size: int = 5, sigma: float = 1.2) -> np.ndarray:
    ax = np.arange(size) - size // 2
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
SOBEL_Y = SOBEL_X.T
SHARPEN = np.array([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], dtype=float)


def ascii_render(image: np.ndarray, width: int = 48) -> str:
    """Downsample and render an image as ASCII art."""
    step = max(1, image.shape[0] // width)
    small = image[::step, ::step]
    lo, hi = small.min(), small.max()
    norm = (small - lo) / (hi - lo + 1e-12)
    ramp = " .:-=+*#%@"
    return "\n".join(
        "".join(ramp[int(v * (len(ramp) - 1))] for v in row)
        for row in norm
    )


def main() -> None:
    image = synthetic_image()
    filters = {
        "sobel_x": SOBEL_X,
        "sobel_y": SOBEL_Y,
        "gaussian_blur": gaussian_kernel(),
        "sharpen": SHARPEN,
    }

    print("input image:")
    print(ascii_render(image))

    for name, kernel in filters.items():
        pad = kernel.shape[0] // 2
        out = conv2d_single(image, kernel, padding=pad)
        ref = convnd_naive(image[None, None], kernel[None, None],
                           padding=pad)[0, 0]
        err = np.abs(out - ref).max()
        print(f"\n{name} (PolyHankel vs direct: max |diff| = {err:.2e}):")
        assert err < 1e-9
        print(ascii_render(np.abs(out) if "sobel" in name else out))

    # Edge magnitude combines both Sobel responses.
    gx = conv2d_single(image, SOBEL_X, padding=1)
    gy = conv2d_single(image, SOBEL_Y, padding=1)
    print("\nedge magnitude:")
    print(ascii_render(np.hypot(gx, gy)))


if __name__ == "__main__":
    main()
