"""Pinned partitions: sha256 of ``partition_graph(...).assignment``.

Every seeded trajectory, byte ledger and partition count in this repo
starts from a METIS-like partition, so pinning the assignments keeps
all of them equal by construction across changes to the partitioner.
The digests are of the assignment as little-endian int64 bytes.

Cases: the four end-to-end benchmark workload graphs at seeds 0 and 3,
every ``(dataset, parts)`` pair the paper-table benchmarks request
(through the harness cache, so those benchmarks reuse each result in
one pytest run), Table 1's full-scale graph, and the ``cut`` objective
used by ClusterGCN and the partition-objective ablation.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.harness import get_graph, get_partition
from repro.graph import load_dataset
from repro.partition import MetisLikeConfig, metis_like_partition, partition_graph


def digest(assignment):
    return hashlib.sha256(np.asarray(assignment, dtype="<i8").tobytes()).hexdigest()


# (dataset, scale, parts, seed) -> digest; benchmarks/e2e/workloads.py
WORKLOADS = {
    ("reddit-sim", 1.0, 4, 0): "bc9cab8399315f33f65a6850386997fbab9e0e8780635fc8e56c7be0e6be8390",
    ("reddit-sim", 1.0, 4, 3): "7af5471eed67526d936ddeac07b974f84119b98a4b49436f5a582281677d913c",
    ("papers-sim", 0.125, 16, 0): "ed4ea47f1c89dfa1e3cc005e9cd5445e4697d572550e0ec375fcea6299c127ff",
    ("papers-sim", 0.125, 16, 3): "b945daa8f25192c4a6f35a6006c22fd68dcf92f5c3ae36ce27f3e9b39363a105",
    ("yelp-sim", 1.0, 2, 0): "eda9a4965474d3f8e0fe875627c3037e122cec950dd998ec6586a07bde7be3d9",
    ("yelp-sim", 1.0, 2, 3): "cec7463f7c4755c4b8061ce3773a368dbff6e596217945eb30437890305112d4",
    ("reddit-sim", 1.0, 2, 0): "121544becd1c6aac98d193a302fd2e6cc047a8ef30ed0dfd193b6e272f068bb8",
    ("reddit-sim", 1.0, 2, 3): "b591377128a128ba98458f7edae11897f737429c3eae568c4794c0e56b5c38e8",
}

# (bench dataset, parts) -> digest, at the bench scale and seed 0
BENCH = {
    ("reddit-sim", 2): "8026e45b64b9497d15acdf261027c158a20daa6970c917019e8bbcfe9b69eea6",
    ("reddit-sim", 4): "994d74264a0f70645d9dd41b09e66a8c2dd578f9e1f8b03932fb11b65484cef0",
    ("reddit-sim", 8): "906a793e954ef1a979963e1d57665cdfe597ea47aed9756a77f5931023168775",
    ("products-sim", 5): "f8e0a3cbfe700e2373dcd2747a68b29f8aa8875a3b2c2d0533380a229202ac3d",
    ("products-sim", 8): "a9e9f1765dc7f1a80f1ea4d7e507d3c603f95b3edb1f7bf0b96db4cdd9cb832a",
    ("products-sim", 10): "4b0a162ee1712916fd5137153f07b7bb1622f2e45fe63c0f9abccf51085cdb7b",
    ("yelp-sim", 3): "070cacfbbf13461684412c1989724c929717752982bf32356e227e9819a05282",
    ("yelp-sim", 6): "3663ce427e2a1329e6af4e0675fd577f296ab94252b0dde8ca2c197d39fcad78",
    ("yelp-sim", 10): "a68c04cb79dcd03453d6df902dba4167b55faed1904d7c6715d4a9e515ab67a7",
    ("papers-sim", 192): "2a5abf406e718dbf06ecdd6207e9156695e6a60955d5c5db997f37bba6a5bb50",
}


@pytest.mark.parametrize("case", sorted(WORKLOADS), ids=lambda c: "%s-x%s-%d-seed%d" % c)
def test_workload_partition(case):
    dataset, scale, parts, seed = case
    graph = load_dataset(dataset, scale=scale, seed=seed)
    part = partition_graph(graph, parts, method="metis", seed=seed)
    assert digest(part.assignment) == WORKLOADS[case]


@pytest.mark.parametrize("case", sorted(BENCH), ids=lambda c: "%s-%d" % c)
def test_bench_partition(case):
    dataset, parts = case
    assert digest(get_partition(dataset, parts, method="metis").assignment) == BENCH[case]


def test_table1_partition():
    graph = load_dataset("reddit-sim", scale=1.0, seed=0)
    part = partition_graph(graph, 10, method="metis", seed=0)
    assert digest(part.assignment) == (
        "2541067801437e94b1389aac3a455eb14ec1a5238e5143ae784485b33db04ad5"
    )


def test_cut_objective_partition():
    adj = get_graph("products-sim").adj
    part = metis_like_partition(adj, 8, MetisLikeConfig(objective="cut", seed=0))
    assert digest(part.assignment) == (
        "fb1072c5cad225e37c78650e90e9aeca2b28d8f07d6a992bcd57f10ac8a3b29a"
    )
