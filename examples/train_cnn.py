"""Train a CNN whose convolutions — forward AND backward — run through
PolyHankel.

A three-class shape classifier (squares vs discs vs crosses on noisy
backgrounds), trained from scratch with the library's tape-based autograd.
Both convolution gradients are computed from PolyHankel's own spectra,
as the adjoint of the forward's cyclic polynomial product, demonstrating
that the method is a complete drop-in for training, not only inference.

Run:  python examples/train_cnn.py
"""

import numpy as np

from repro.nn import autograd as ag

rng = np.random.default_rng(42)

IMAGE = 16
CLASSES = 3


def make_shape_image(label: int) -> np.ndarray:
    """One noisy 16x16 image containing a square, a disc or a cross."""
    canvas = rng.standard_normal((IMAGE, IMAGE)) * 0.15
    cy, cx = rng.integers(5, IMAGE - 5, size=2)
    r = rng.integers(3, 5)
    y, x = np.mgrid[0:IMAGE, 0:IMAGE]
    if label == 0:      # square
        mask = (abs(y - cy) <= r) & (abs(x - cx) <= r)
    elif label == 1:    # disc
        mask = (y - cy) ** 2 + (x - cx) ** 2 <= r * r
    else:               # cross
        mask = (abs(y - cy) <= 1) | (abs(x - cx) <= 1)
    canvas[mask] += 1.0
    return canvas


def make_dataset(n: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, CLASSES, size=n)
    images = np.stack([make_shape_image(int(l)) for l in labels])
    return images[:, None, :, :], labels


class TinyCnn:
    """conv(1->8,3x3) -> relu -> pool2 -> conv(8->16,3x3) -> relu ->
    pool2 -> linear(256 -> 3)."""

    def __init__(self):
        self.w1 = ag.parameter(rng.standard_normal((8, 1, 3, 3)) * 0.4)
        self.b1 = ag.parameter(np.zeros(8))
        self.w2 = ag.parameter(rng.standard_normal((16, 8, 3, 3)) * 0.15)
        self.b2 = ag.parameter(np.zeros(16))
        self.w3 = ag.parameter(
            rng.standard_normal((CLASSES, 16 * 4 * 4)) * 0.1)
        self.b3 = ag.parameter(np.zeros(CLASSES))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def __call__(self, x: np.ndarray) -> ag.Tensor:
        h = ag.relu(ag.conv2d(ag.Tensor(x), self.w1, self.b1, padding=1,
                              algorithm="polyhankel"))
        h = ag.max_pool2d(h, 2)
        h = ag.relu(ag.conv2d(h, self.w2, self.b2, padding=1,
                              algorithm="polyhankel"))
        h = ag.max_pool2d(h, 2)
        return ag.linear(ag.flatten(h), self.w3, self.b3)


def accuracy(model: TinyCnn, x: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(model(x).data, axis=1)
    return float((preds == labels).mean())


def main() -> None:
    train_x, train_y = make_dataset(240)
    test_x, test_y = make_dataset(60)

    model = TinyCnn()
    optimizer = ag.SGD(model.parameters(), lr=0.05, momentum=0.9)
    batch = 24

    print(f"training on {len(train_y)} images, testing on {len(test_y)}")
    print(f"initial test accuracy: {accuracy(model, test_x, test_y):.2f}")

    for epoch in range(6):
        order = rng.permutation(len(train_y))
        losses = []
        for start in range(0, len(order), batch):
            idx = order[start: start + batch]
            optimizer.zero_grad()
            loss = ag.cross_entropy(model(train_x[idx]), train_y[idx])
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        print(f"epoch {epoch + 1}: loss {np.mean(losses):.3f}  "
              f"train acc {accuracy(model, train_x, train_y):.2f}  "
              f"test acc {accuracy(model, test_x, test_y):.2f}")

    final = accuracy(model, test_x, test_y)
    print(f"\nfinal test accuracy: {final:.2f}")
    assert final > 0.7, "training through PolyHankel should converge"


if __name__ == "__main__":
    main()
