"""Run the CLI with spans recorded: traced_run.py CONFIG OUTPUT_DIR SPANS_NPZ.

Behaves like ``python -m swarmlearn run CONFIG --output-dir OUTPUT_DIR`` and
exits with its code; the spans are written to SPANS_NPZ when the run ends.
"""
import sys

from spans import Recorder

from swarmlearn import cli


def main(config: str, output_dir: str, spans_path: str) -> int:
    recorder = Recorder()
    recorder.install()
    code = cli.main(["run", config, "--output-dir", output_dir])
    recorder.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
