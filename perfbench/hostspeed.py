"""Fixed reference load that tells how fast the host runs right now.

Usage: python3 perfbench/hostspeed.py

run.py times this process between the posebench runs it measures and scales
their times by it (see ``host_scaled`` in run.py). It imports nothing from
posebench, so a change to the program never changes it. Its mix follows the
program's hot paths: JSON lines parsed into Python objects, grouped, turned
into small numpy arrays and reduced, and one BLAS product of the shape the
kNN kernel computes.
"""

import json

import numpy as np

REPEATS = 5


def main():
    rng = np.random.default_rng(0)
    keypoints = rng.standard_normal((6000, 17, 3)).round(4).tolist()
    lines = [json.dumps({"frame": i, "track": i % 9, "keypoints": kp}) for i, kp in enumerate(keypoints)]
    queries = rng.standard_normal((272, 816))
    stored = rng.standard_normal((1400, 816))
    checksum = 0.0
    for _ in range(REPEATS):
        tracks = {}
        for line in lines:
            row = json.loads(line)
            tracks.setdefault(row["track"], []).append(np.asarray(row["keypoints"]))
        for frames in tracks.values():
            x = np.stack(frames)
            checksum += float(np.abs(x - x.mean(axis=0)).sum())
        checksum += float((queries @ stored.T).sum())
    print(f"{checksum:.6e}")


if __name__ == "__main__":
    main()
