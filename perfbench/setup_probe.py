"""Time set-up in a fresh process: setup_probe.py CONFIG.

Prints the wall seconds for importing ``swarmlearn.cli``, loading CONFIG and
building the experiment setup of every seed it lists.
"""
import sys
import time


def main(config: str) -> None:
    start = time.perf_counter()
    from swarmlearn import cli, experiment

    cfg = cli.load_config(config)
    for seed in cfg.seeds:
        experiment.build_setup(
            cfg.data, cfg.model_kind, cfg.hidden_dims, cfg.hyper, seed, cfg.init_mode
        )
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
