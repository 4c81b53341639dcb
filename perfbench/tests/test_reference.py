"""The batch reference accepts the service's outcomes and nothing else."""

import numpy as np
import pytest

import traffic
from reference import TenantLog, check_tenant, expected_versions

WARMUP = 1008
STREAM = 240
REFIT_EVERY = 96


@pytest.fixture(scope="module")
def served():
    from repro.service import DetectionService, ServiceConfig

    data, routing = traffic.generate(5, WARMUP + STREAM, "reference-test")
    warmup, stream = data[:WARMUP], data[WARMUP:].copy()
    for row in (7, 130, 201):
        stream[row] += 5e8 * routing.column(row % routing.num_flows)
    service = DetectionService.from_warmup(
        warmup,
        routing=routing,
        config=ServiceConfig(refit_interval=REFIT_EVERY, synchronous_refit=True),
    )
    events = []
    for start in range(0, STREAM, 50):
        block = stream[start : start + 50]
        result = service.ingest_block(block)
        events.append(("rows", block, [o.to_json() for o in result.outcomes]))
        if start == 100:
            service.refit()
            events.append(("refit", None, None))
    return warmup, routing, events


def _log(warmup, events):
    return TenantLog(warmup, [(k, b, None if o is None else [dict(x) for x in o])
                              for k, b, o in events])


def test_service_outcomes_match_the_reference_bitwise(served):
    warmup, routing, events = served
    versions = {o["model_version"] for _, _, outs in events if outs for o in outs}
    assert len(versions) >= 3, "the stream should cross refit boundaries"
    assert any(o["flag"] for _, _, outs in events if outs for o in outs)
    result = check_tenant(_log(warmup, events), routing, REFIT_EVERY)
    assert result.checked == STREAM
    assert result.mismatched == 0, result.examples


def _first_alarm(log):
    for _, _, outcomes in log.events:
        for outcome in outcomes or ():
            if outcome["flag"]:
                return outcome
    raise AssertionError("no alarm in the stream")


def test_a_one_ulp_spe_perturbation_is_caught(served):
    warmup, routing, events = served
    log = _log(warmup, events)
    outcome = log.events[0][2][3]
    outcome["spe"] = float(np.nextafter(outcome["spe"], np.inf))
    assert check_tenant(log, routing, REFIT_EVERY).mismatched == 1


def test_a_swapped_flow_index_is_caught(served):
    warmup, routing, events = served
    log = _log(warmup, events)
    alarm = _first_alarm(log)
    alarm["flow_index"] = (alarm["flow_index"] + 1) % routing.num_flows
    assert check_tenant(log, routing, REFIT_EVERY).mismatched == 1


def test_a_wrong_model_version_is_caught(served):
    warmup, routing, events = served
    log = _log(warmup, events)
    log.events[-1][2][-1]["model_version"] += 1
    assert check_tenant(log, routing, REFIT_EVERY).mismatched == 1


def test_version_schedule_follows_refits_and_the_cadence():
    block = np.zeros((3, 2))
    events = [("rows", block, []), ("refit", None, None), ("rows", block, [])]
    assert expected_versions(10, events, refit_interval=2) == [
        (1, 10), (1, 10), (2, 12), (3, 13), (3, 13), (4, 15),
    ]
