"""One cold set-up, timed inside a fresh interpreter.

    python3 setup_probe.py <src-dir> <config-file>

Times importing noisediff, parsing the config text and building the
pipeline and scorer, the work ``noisediff run`` does before its first
epoch, and prints the seconds it took.
"""

import sys
import time

if __name__ == "__main__":
    src, config_path = sys.argv[1:3]
    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import noisediff  # noqa: F401  (the import is part of what is timed)
    from noisediff.config import ExperimentConfig

    config = ExperimentConfig.from_text(text, source=config_path)
    config.build_pipeline()
    config.build_scorer()
    print(repr(time.perf_counter() - start))
