"""Print one SHA-256 line per (geometry, kernel, phase) over the outputs of
one pass of the benchmark's ``kernels`` workload.

The workload (``perfbench/workloads.py``, imported and not changed) calls
every public geometry kernel and the Busemann limit oracle on a pool
seeded by ``--seed``, first on the pool's arrays (``reused``) and then
on fresh copies (``fresh``).  Each line names a geometry, a kernel and a
phase, the number of calls, and the SHA-256 of their outputs in call
order: arrays by dtype, shape and bytes, numbers and oracle results by
``repr``, a raised error by its type and message.  Two source trees
print the same lines exactly when every output is bitwise identical.
Run this file from one checkout against both trees:

    PYTHONPATH=<parent checkout>/src python tools/kernel_rows.py --seed 1 > parent.txt
    PYTHONPATH=src python tools/kernel_rows.py --seed 1 > change.txt

and ``diff`` the two files.  This is the kernels-side counterpart of
``tools/cli_rows.py``.  A pass takes a few seconds.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from metrics import PHASES  # noqa: E402
from workloads import KernelsWorkload  # noqa: E402


def output_bytes(out):
    """Bytes that identify one kernel output exactly."""
    if isinstance(out, np.ndarray):
        return f"{out.dtype}{out.shape}".encode() + out.tobytes()
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}".encode()
    return repr(out).encode()


def rows(seed):
    """The printed lines of one pass with ``seed``, in first-call order."""
    workload = KernelsWorkload(seed)
    outputs = workload.run_pass().outputs
    # each round makes the same calls in every phase, one phase after the
    # other
    per_round = len(outputs) // len(workload.pool)
    counts, digests = {}, {}
    for j, (key, op, _, out) in enumerate(outputs):
        group = key, op, PHASES[(j % per_round) * len(PHASES) // per_round]
        counts[group] = counts.get(group, 0) + 1
        digests.setdefault(group, hashlib.sha256()).update(output_bytes(out))
    return [f"{key} {op} {phase} calls={counts[key, op, phase]} "
            f"sha256={sha.hexdigest()}"
            for (key, op, phase), sha in digests.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    print("\n".join(rows(parser.parse_args(argv).seed)))


if __name__ == "__main__":
    main()
