"""Cross-module integration tests: the paper's flows end to end (scaled).

These use 4-bit multipliers and small budgets so the whole suite stays
fast, but they exercise the exact pipelines behind Fig. 3-7 and Table I.
"""

import numpy as np
import pytest

from repro.analysis import characterize_design, error_mass_correlation, evolve_front
from repro.baselines import build_truncated_multiplier
from repro.circuits.generators import build_baugh_wooley_multiplier, build_multiplier
from repro.circuits.simulator import truth_table
from repro.core import EvolutionConfig
from repro.errors import (
    discretized_half_normal,
    exact_product_table,
    table_as_matrix,
    uniform,
    wmed,
)
from repro.imaging import (
    add_gaussian_noise,
    average_psnr,
    filter_image,
    filter_image_lut,
    standard_image_suite,
)


@pytest.fixture(scope="module")
def evolved_4bit():
    """One distribution-driven and one uniform-driven 4-bit sweep."""
    width = 4
    seed = build_baugh_wooley_multiplier(width)
    d_half = discretized_half_normal(width, sigma=2.5, signed=True, name="Dh")
    du = uniform(width, signed=True)
    cfg = EvolutionConfig(generations=1200)
    levels = [2.0, 8.0]
    front_h = evolve_front(
        seed, width, d_half, levels, [d_half, du],
        config=cfg, rng=np.random.default_rng(100),
    )
    front_u = evolve_front(
        seed, width, du, levels, [d_half, du],
        config=cfg, rng=np.random.default_rng(101),
    )
    return d_half, du, front_h, front_u


def test_distribution_driven_wins_under_its_own_metric(evolved_4bit):
    """The Fig. 3 shape: at equal targets, each method satisfies its own
    WMED, and the cross-metric evaluation differs."""
    d_half, du, front_h, front_u = evolved_4bit
    for p, level in zip(front_h, [2.0, 8.0]):
        assert p.wmed_percent("Dh") <= level + 1e-9
    for p, level in zip(front_u, [2.0, 8.0]):
        assert p.wmed_percent("Du") <= level + 1e-9
    # The Dh-evolved deep-approximation point typically violates Du's
    # budget (it concentrated error on unlikely operands) or at least is
    # no better under Du than under Dh.
    deep = front_h[-1]
    assert deep.wmed_percent("Du") >= deep.wmed_percent("Dh") - 1e-9


def test_evolved_area_not_worse_than_seed(evolved_4bit):
    _, _, front_h, _ = evolved_4bit
    seed_area = characterize_design(
        build_baugh_wooley_multiplier(4), 4,
        [uniform(4, signed=True)],
    ).area
    for p in front_h:
        assert p.area <= seed_area + 1e-9


def test_error_mass_avoids_probable_operands(evolved_4bit):
    """The Fig. 4 shape: error mass anti-correlates with D."""
    d_half, _, front_h, _ = evolved_4bit
    deep = front_h[-1]
    if deep.wmed_by_dist["Dh"] == 0:
        pytest.skip("search found an exact circuit at this budget")
    corr = error_mass_correlation(deep.table, 4, d_half)
    assert corr < 0.25  # no positive alignment of error with probability


def test_gaussian_filter_flow_with_lut():
    """The Fig. 5 plumbing: evolved/baseline LUTs drive the image filter."""
    images = standard_image_suite(4, size=32)
    rng = np.random.default_rng(0)
    noisy = [add_gaussian_noise(im, 12, rng) for im in images]
    reference = [filter_image(n) for n in noisy]

    exact_lut = table_as_matrix(exact_product_table(8, False), 8)
    same = [filter_image_lut(n, exact_lut) for n in noisy]
    for a, b in zip(reference, same):
        assert np.array_equal(a, b)

    rough_lut = table_as_matrix(
        truth_table(build_truncated_multiplier(8, 8, signed=False)), 8
    )
    rough = [filter_image_lut(n, rough_lut) for n in noisy]
    assert average_psnr(reference, rough) < 40.0


def test_mac_integration_with_evolved_multiplier(evolved_4bit):
    """An evolved multiplier embeds into a MAC whose error matches."""
    from repro.circuits.generators import build_mac

    _, _, front_h, _ = evolved_4bit
    point = front_h[0]
    mac = build_mac(4, 10, multiplier=point.netlist, signed=True)
    tt = truth_table(mac, signed=True)
    v = np.arange(1 << 18)

    def dec(val, bits):
        return np.where(val >= (1 << (bits - 1)), val - (1 << bits), val)

    x = dec(v & 15, 4)
    y = dec((v >> 4) & 15, 4)
    acc = dec((v >> 8) & 1023, 10)
    # MAC output == acc + M~(x, y) (mod 2^10 signed)
    mult_table = point.table
    prod = mult_table[((v >> 4) & 15) * 16 + (v & 15)]
    ref = ((acc + prod + 512) % 1024) - 512
    assert np.array_equal(tt, ref)


def test_quantized_nn_with_baseline_lut_end_to_end(rng):
    """The Fig. 7 plumbing on a tiny MLP: more approximation, less accuracy."""
    from repro.nn import QuantizedModel, build_mlp, mnist_like, train

    x, y = mnist_like(2500, rng)
    x = x.reshape(len(x), -1)
    net = build_mlp(rng=np.random.default_rng(9))
    train(net, x[:2000], y[:2000], epochs=6, lr=0.1, lr_decay=0.9, rng=rng)
    qm = QuantizedModel(net, x[:128])
    test_x, test_y = x[2000:], y[2000:]
    accs = []
    for k in (0, 4, 8):
        lut = table_as_matrix(
            truth_table(build_truncated_multiplier(8, k, signed=True), signed=True),
            8,
        )
        accs.append(qm.accuracy(test_x, test_y, lut=lut))
    assert accs[0] >= accs[2] - 0.02  # mild >= brutal (small slack for noise)
    assert accs[0] > 0.55
