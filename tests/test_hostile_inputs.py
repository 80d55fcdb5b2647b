"""Hostile inputs: valid commands that the program cannot answer in
reasonable time or memory must fail fast, with exit code 2 and a message
that names the limit, within a wall-clock and a peak-memory budget.

Each entry runs `jss` in a child of a fresh interpreter, which reports
the child's wall time and its peak RSS from
resource.getrusage(RUSAGE_CHILDREN): that interpreter has no other
child, so the figure is the command's own.
"""
import json
import subprocess
import sys

import pytest

MEASURE = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
run = subprocess.run([sys.executable, "-m", "jss.cli", *sys.argv[1:]],
                     capture_output=True, text=True)
seconds = time.perf_counter() - t0
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([run.returncode, run.stdout, run.stderr, seconds, peak_mb]))
"""

SECONDS, PEAK_MB = 8, 300

# Ten distinct journals that never accept and cost nothing: all 10! orders
# are worth 0, and no two journals are interchangeable.
ALL_TIE = {"journals": [{"u": "1", "a": "0", "q": f"{k}/20"} for k in range(1, 11)],
           "prior_h": "1/2"}
OVER_THE_LIMIT = ("error: the argmax set has at least 362881 orders, over the limit of "
                  "362880 (9!) that a solver lists\n")

CORPUS = {
    "all-tie-exact": (ALL_TIE, ["solve", "--json"], OVER_THE_LIMIT),
    "all-tie-float": (ALL_TIE, ["solve", "--json", "--mode", "float"], OVER_THE_LIMIT),
}


@pytest.mark.parametrize("name", CORPUS)
def test_hostile_input_fails_fast(name, tmp_path):
    doc, argv, message = CORPUS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", MEASURE, *argv, "-i", str(path)],
                          capture_output=True, text=True, check=True, timeout=60)
    code, out, err, seconds, peak_mb = json.loads(proc.stdout)
    assert (code, out, err) == (2, "", message)
    assert seconds < SECONDS and peak_mb < PEAK_MB, (seconds, peak_mb)
