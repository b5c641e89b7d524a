"""Certificates of the benchmark workloads stay byte for byte the same.

For coefficients 1 and -5/6 of each benchmark workload, at benchmark size,
the certificate is produced with the calls the benchmark makes
(``perfbench/child.py``), its sha256 is compared with the digest pinned in
``perfbench/digests.json``, and it is replayed.  The benchmark files are
only imported and read.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402

with open(PERFBENCH / "digests.json", encoding="utf-8") as fh:
    PINNED = json.load(fh)


@pytest.mark.parametrize("coef", ["1", "-5/6"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_certificate_reproduced_and_replayed(tmp_path, name, coef):
    wl = workloads.WORKLOADS[name]
    args = argparse.Namespace(workload=name, coef=coef,
                              max_degree=wl.max_degree,
                              lie_truncation=wl.lie_truncation,
                              dir=str(tmp_path))
    produced = child.produce(args, child._NoTracer())
    text = (tmp_path / "cert.txt").read_text(encoding="utf-8")
    assert workloads.check_produce(wl, produced, text) == []
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        PINNED[name][coef]
    assert workloads.check_replay(wl, child.replay(args, child._NoTracer())) \
        == []
