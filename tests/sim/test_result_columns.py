"""The columnar :class:`SimulationResult` against the record-based reference.

Random completion sets — ties in completion time across members, single
rows, identical responses, every warmup length — must give the same
summary bytes from the columns as :mod:`tests.sim.result_reference`
computes from :class:`RequestRecord` tuples.
"""

import json
import pickle
import pickletools

from hypothesis import given, settings, strategies as st

from repro.fleet.merge import merge_results
from repro.sim import SimConfig
from repro.sim.request import AccessResult, IOKind, Request, RequestRecord
from tests.sim import result_reference as reference

# Values from small grids make ties (equal completion times across
# members, identical responses) common; the float ranges cover the rest.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=10.0),
)
_TOTALS = st.one_of(
    st.sampled_from([0.125, 0.25]),
    st.floats(min_value=1e-6, max_value=1.0),
)
_PHASE = st.floats(min_value=0.0, max_value=1.0)
_ROW = st.tuples(
    _TIMES,
    _TIMES,
    _TOTALS,
    st.lists(_PHASE, min_size=6, max_size=6),
    st.integers(min_value=0, max_value=1 << 20),
    st.booleans(),
)


def _records(rows, first_rid: int) -> list:
    """Completion-ordered records, as the engine produces them."""
    records = []
    for offset, (arrival, wait, total, phases, bits, write) in enumerate(rows):
        request = Request(
            arrival,
            lbn=offset * 8,
            sectors=8,
            kind=IOKind.WRITE if write else IOKind.READ,
            request_id=first_rid + offset,
        )
        dispatch = arrival + wait
        records.append(
            RequestRecord(
                request,
                dispatch,
                dispatch + total,
                AccessResult(total, *phases, bits),
            )
        )
    records.sort(key=lambda r: r.completion_time)
    return records


_MEMBERS = st.lists(st.lists(_ROW, min_size=1, max_size=12), min_size=1, max_size=3)


def _members(rows_per_member, slack: float):
    members = []
    rid = 0
    for rows in rows_per_member:
        records = _records(rows, rid)
        rid += len(rows)
        end = max(r.completion_time for r in records) + slack
        members.append((records, end))
    return members


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(
    _MEMBERS,
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.floats(min_value=0.5, max_value=100.0), max_size=4),
    st.data(),
)
def test_columns_match_record_reference(rows_per_member, slack, pcts, data):
    members = _members(rows_per_member, slack)
    for records, end in members:
        result = reference.columnar(records, end)
        assert result.records == tuple(records)
        assert _same(result.to_dict(), reference.to_dict(records, end))
        assert _same(
            result.percentiles(*pcts), reference.percentiles(records, *pcts)
        )
        for pct in pcts:
            assert _same(
                result.response_time_percentile(pct),
                reference.percentile(records, pct),
            )
        warmup = data.draw(st.integers(min_value=0, max_value=len(records) + 1))
        trimmed = result.drop_warmup(warmup)
        kept = records[warmup:]
        assert trimmed.records == tuple(kept)
        if kept:
            assert _same(trimmed.to_dict(), reference.to_dict(kept, end))

    merged = merge_results(
        [reference.columnar(records, end) for records, end in members]
    )
    expected = reference.merge([records for records, _ in members])
    end = max(end for _, end in members)
    assert merged.records == tuple(expected)
    assert merged.end_time == end
    assert _same(merged.to_dict(), reference.to_dict(expected, end))


def _pickle_opcodes(rows: int) -> int:
    """Opcodes in a pickled result, frame boundaries aside.

    Frames split the stream by byte count, so their number grows with the
    size of the column buffers; every other opcode is one object or one
    step of building it.
    """
    result = SimConfig(num_requests=rows, rate=500.0, warmup=0).run()
    assert len(result) == rows
    return sum(
        1
        for opcode, _, _ in pickletools.genops(pickle.dumps(result))
        if opcode.name != "FRAME"
    )


def test_pickle_size_in_objects_does_not_grow_with_rows():
    """What a fleet worker returns is columns, not one object per request."""
    assert _pickle_opcodes(10) == _pickle_opcodes(10_000)


def test_pickle_round_trip_keeps_columns_not_record_view():
    result = SimConfig(num_requests=50, rate=500.0, warmup=0).run()
    records = result.records
    copy = pickle.loads(pickle.dumps(result))
    assert "records" not in copy.__dict__
    assert copy.records == records
    assert _same(copy.to_dict(), result.to_dict())
