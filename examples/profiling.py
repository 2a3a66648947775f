"""Deployment analysis: per-layer profile, metrics, margins, regression.

Shows the analysis tooling a deployment would run before committing to a
chip configuration: the per-layer time/energy profile, per-class quality
metrics, the timing sign-off margins of the gate-level protocol, and the
headline-metric snapshot: a flat dict that
``repro.harness.regression.drift`` compares exactly against a kept copy.

Run:  python examples/profiling.py
"""

from repro import (
    SpikingClassifier,
    SushiRuntime,
    Trainer,
    TrainerConfig,
    binarize_network,
    load_digits,
)
from repro.harness.regression import snapshot_headline_metrics
from repro.harness.reporting import format_table
from repro.neuro.chip import ChipConfig, ChipDriver, GateLevelChip
from repro.neuro.state_controller import Polarity
from repro.snn.encoding import PoissonEncoder
from repro.snn.metrics import per_class_report, spike_stats
from repro.ssnn import profile_network, profile_report


def main() -> None:
    print("training a compact model ...")
    data = load_digits(train_size=1000, test_size=200, seed=0)
    model = SpikingClassifier.mlp(hidden_size=96, time_steps=5,
                                  binary_aware=True, seed=0)
    Trainer(model, TrainerConfig(epochs=12, batch_size=64,
                                 learning_rate=5e-3)).fit(
        data.train_images, data.train_labels
    )
    network = binarize_network(model)
    encoder = PoissonEncoder(seed=model.encoder_seed)
    trains = encoder.encode_steps(
        data.test_images.reshape(len(data.test_images), -1),
        model.time_steps,
    )
    result = SushiRuntime(chip_n=16).infer(network, trains)

    print("\n-- per-layer profile (one sample, 16x16 mesh) --")
    print(profile_report(profile_network(network, trains[:, 0, :],
                                         chip_n=16)))

    print("\n-- per-class quality --")
    print(format_table(per_class_report(result.predictions,
                                        data.test_labels)))

    print("\n-- output spike activity --")
    stats = spike_stats(result.output_raster)
    print(f"mean rate {stats.mean_rate:.3f}, active units "
          f"{stats.active_fraction:.2f}, spikes/sample "
          f"{stats.spikes_per_sample:.1f}, silent steps "
          f"{stats.silent_steps:.2f}")

    print("\n-- gate-level timing sign-off (tightest slack first) --")
    chip = GateLevelChip(ChipConfig(n=2, sc_per_npe=4, max_strength=2))
    driver = ChipDriver(chip)
    driver.begin_timestep([3, 5])
    driver.configure_weights([[1, 2], [2, 1]])
    driver.run_pass(Polarity.SET1, [True, True])
    print(format_table(driver.sim.margin_report()[:6]))

    print("\n-- headline-metric snapshot (flat dict for drift) --")
    for key, value in sorted(snapshot_headline_metrics().items()):
        print(f"  {key}: {value:,.2f}")


if __name__ == "__main__":
    main()
