"""End-to-end integration: networks, API surface, experiment machinery."""

import numpy as np

import repro
from repro.nn import functional as F
from repro.nn.network import profile_conv_time
from repro.nn.synthetic import lenet5, synthetic_network
from repro.perfmodel.device import PAPER_DEVICES


class TestPublicApi:
    def test_conv2d_default(self, rng):
        x = rng.standard_normal((1, 3, 10, 10))
        w = rng.standard_normal((4, 3, 3, 3))
        got = repro.conv2d(x, w, padding=1)
        ref = repro.conv2d(x, w, padding=1, algorithm="naive")
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_version(self):
        assert repro.__version__

    def test_list_algorithms_exported(self):
        assert repro.ConvAlgorithm.POLYHANKEL in repro.list_algorithms()

    def test_simulate_exported(self):
        shape = repro.ConvShape((32, 32), (3, 3), n=8, c=3, f=8, padding=1)
        assert repro.simulate_gpu_ms("polyhankel", shape, "v100") > 0

    def test_select_algorithm_exported(self):
        shape = repro.ConvShape((224, 224), (5, 5), n=64, c=3, f=16, padding=2)
        result = repro.select_algorithm(shape, "v100")
        assert result.algorithm is repro.ConvAlgorithm.POLYHANKEL


class TestNetworkConsistency:
    def test_synthetic_network_output_invariant_to_algorithm(self, rng):
        x = rng.standard_normal((1, 3, 12, 12))
        net = synthetic_network(12, seed=4, conv_layers=6)
        ref = net.set_conv_algorithm("naive")(x)
        for algo in ("polyhankel", "gemm", "fft", "finegrain_fft"):
            out = net.set_conv_algorithm(algo)(x)
            np.testing.assert_allclose(out, ref, atol=1e-5, err_msg=algo)

    def test_lenet_classifies_deterministically(self, rng):
        """A fixed LeNet assigns stable argmax classes to fixed inputs."""
        x = rng.standard_normal((8, 1, 28, 28))
        logits = lenet5(seed=0)(x)
        classes_again = np.argmax(lenet5(seed=0)(x), axis=1)
        np.testing.assert_array_equal(np.argmax(logits, axis=1),
                                      classes_again)

    def test_probabilities_from_logits(self, rng):
        x = rng.standard_normal((2, 1, 28, 28))
        probs = F.softmax(lenet5()(x))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)


class TestExperimentMachinery:
    def test_fig6_style_profile_all_devices(self):
        """The Sec. 4.2 pipeline: force an algorithm, accumulate conv time,
        across all three paper GPUs."""
        net = synthetic_network(16, seed=0, conv_layers=4)
        for device in PAPER_DEVICES:
            times = {}
            for algo in ("polyhankel", "gemm", "fft"):
                profile = profile_conv_time(net, (8, 3, 16, 16), device,
                                            algorithm=algo, iterations=50)
                times[algo] = profile.total_ms
                assert len(profile.per_layer_s) == 4
            assert len(set(times.values())) == 3

    def test_counters_available_per_layer(self):
        net = synthetic_network(16, seed=0, conv_layers=3)
        shapes = net.layer_shapes((1, 3, 16, 16))
        for layer, shape in zip(net.layers, shapes):
            if hasattr(layer, "counters"):
                assert layer.counters(shape).flops > 0
