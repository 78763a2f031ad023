"""A small multi-agent tracking run, watched through its consistency stats.

Four agents in two groups track four targets with biased sensors; pairs
of agents across the groups exchange estimates every few steps and fuse
them without knowing their mutual correlation.  The script runs the
packaged two-group scenario at a reduced run count and prints, per
method, tracking error, reported uncertainty, and how often the average
normalized error stays inside its 95 percent band.
"""
import argparse
from importlib import resources

from cofusion.sim import ScenarioConfig, run_scenario, summarize


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mc", type=int, default=3, help="Monte-Carlo runs")
    ap.add_argument("--config", default=None,
                    help="scenario JSON (default: packaged two-group preset)")
    args = ap.parse_args()

    if args.config:
        scenario = ScenarioConfig.load(args.config)
    else:
        ref = resources.files("cofusion") / "presets" / "tracking_desk.json"
        with resources.as_file(ref) as path:
            scenario = ScenarioConfig.load(path)

    print(f"scenario {scenario.name}: {scenario.n_agents} agents, "
          f"{scenario.n_targets} targets, {scenario.layout().dim}-d state, "
          f"{args.mc} runs")
    data = run_scenario(scenario, mc_runs=args.mc)
    row = summarize(data)

    lo, hi = row["band"]
    print(f"95% band for the average normalized error: "
          f"({lo:.2f}, {hi:.2f}), state dim {row['state_dim']}")
    print(f"{'method':>12s} {'rmse':>8s} {'2-sigma':>9s} {'steady nees':>12s} "
          f"{'in band':>8s}")
    for method, m in row["methods"].items():
        print(f"{method:>12s} {m['rmse_mean']:8.3f} {m['sigma2_mean']:9.3f} "
              f"{m['nees_steady']:12.2f} {m['nees_in_band_fraction']:8.2f}")

    print()
    print("The centralized filter is the consistency yardstick.  Monolithic")
    print("intersection tracks worse and reports so much extra covariance")
    print("that its normalized error falls below the band; the block-wise")
    print("rule stays tighter on both counts while keeping its margin.")


if __name__ == "__main__":
    main()
