"""Write the frozen reference outputs the benchmark compares against.

    python3 perfbench/freeze.py

For every workload this stores the anchor input's outputs and the outputs of
one run at each of the frozen seeds (the default seed 0 and a held-out seed)
in perfbench/reference/.  Run it only at a commit whose outputs are trusted:
the benchmark then fails any later commit that moves them by more than its
tolerances.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    Path(wl.REFERENCE_DIR).mkdir(exist_ok=True)
    tracer = Tracer()
    for w in wl.WORKLOADS.values():
        views = {}
        with tempfile.TemporaryDirectory() as tmp:
            views["anchor"], _ = wl.run_anchor(w, tmp, 1, tracer)
            for seed in wl.FROZEN_SEEDS:
                state = w.prepare(wl.load_presets(w, tracer), seed, "bench", tracer)
                views[f"seed{seed}"] = w.view(w.run(state, tracer, tmp, threads=1))
        for tag, view in views.items():
            with open(wl.reference_path(w, tag), "w") as fh:
                json.dump(view, fh, indent=0)
                fh.write("\n")
            print(f"wrote {wl.reference_path(w, tag)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
