"""The task generator is a pure function of (workload, seed)."""
import pytest

import oracle
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    names = {t["name"] for t in workloads.build(workload, 7)}
    assert workloads.KEY_TASK[workload] in names


def test_seed_changes_the_certify_stream():
    assert workloads.build("certify", 1) != workloads.build("certify", 2)


def test_certify_stream_shape():
    tasks = workloads.build("certify", 3)
    genuine = [t for t in tasks if t["name"] == "certify"]
    perturbed = [t for t in tasks if t["name"] == "verify_perturbed"]
    # at least 100 certify samples, so that p90 has ten samples beyond it
    assert len(genuine) == len(perturbed) == 16 * workloads.CERTIFY_ROUNDS >= 100
    assert all(t["is_pair"] for t in genuine)
    for t in perturbed:
        a, b = (oracle.parse_units(x) for x in (t["a"], t["b"]))
        orig = next(g for g in genuine if g["label"] + "-perturbed" == t["label"])
        a0, b0 = (oracle.parse_units(x) for x in (orig["a"], orig["b"]))
        changed = (a != a0).any(axis=1).sum() + (b != b0).any(axis=1).sum()
        assert changed == 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 1)
