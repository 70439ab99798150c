"""Property tests for the v3 trace format over hand-built batches.

Save then load returns the batch row for row and the same Event
fields; any single flipped byte after the header fails a strict load,
and salvage loses at most the one record holding that byte (none when
the byte is in a chunk crc).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import compile_source
from repro.machine.batch import EventBatch
from repro.machine.events import N_KINDS
from repro.trace import Trace, TraceLoadError
from repro.trace.trace import CHUNK_RECORDS, RECORD
from tests.conftest import COUNTER_RACE

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

PROGRAM = compile_source(COUNTER_RACE)
CODE = PROGRAM.code

#: the bytes of one full chunk: its crc, then its records
CHUNK_SIZE = 4 + CHUNK_RECORDS * RECORD.size

INT64 = st.one_of(st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0, -1]),
                  st.integers(-2 ** 63, 2 ** 63 - 1))

#: one row template (seq comes from the gap): kind, seq gap, tid, pc,
#: addr, value, taken, target
TEMPLATE = st.tuples(
    st.integers(0, N_KINDS - 1),
    st.integers(1, 1000),
    st.sampled_from([0, 1, 3, 2 ** 16 - 1]),
    st.integers(-1, len(CODE) + 1),
    st.one_of(st.just(-1), INT64),
    INT64,
    st.booleans(),
    st.one_of(st.sampled_from([-1, -2 ** 31, 2 ** 31 - 1]),
              st.integers(0, len(CODE))),
)


def _loc(pc):
    return CODE[pc].loc if 0 <= pc < len(CODE) else -1


@st.composite
def traces(draw, n):
    """A hand-built trace of ``n`` events: rows cycle through a few
    drawn templates, seqs climb with the drawn gaps."""
    templates = draw(st.lists(TEMPLATE, min_size=1, max_size=12))
    rows = []
    seq = draw(st.integers(0, 2 ** 40))
    for i in range(n):
        kind, gap, tid, pc, addr, value, taken, target = \
            templates[i % len(templates)]
        rows.append((kind, seq, tid, pc, _loc(pc), addr, value, taken,
                     target))
        seq += gap
    n_threads = 1 + max((row[2] for row in rows), default=0)
    return Trace.from_batch(PROGRAM, EventBatch(rows), n_threads)


def _fields(trace):
    return [(e.kind, e.seq, e.tid, e.pc, e.instr, e.loc, e.addr, e.value,
             e.taken, e.target) for e in trace]


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
@settings(**SETTINGS)
@given(data=st.data())
def test_save_load_round_trip_and_single_byte_damage(n, data, tmp_path):
    trace = data.draw(traces(n), label="trace")
    path = str(tmp_path / "t.trace")
    trace.save(path)
    loaded = Trace.load(path, PROGRAM)
    assert loaded.batch.rows == trace.batch.rows
    assert _fields(loaded) == _fields(trace)
    assert loaded.n_threads == trace.n_threads

    raw = bytearray(open(path, "rb").read())
    start = raw.index(b"\n") + 1
    if len(raw) == start:
        return  # an empty trace has no byte after the header
    pos = data.draw(st.integers(0, len(raw) - start - 1), label="byte")
    raw[start + pos] ^= data.draw(st.integers(1, 255), label="flip")
    with open(path, "wb") as fh:
        fh.write(raw)

    with pytest.raises(TraceLoadError):
        Trace.load(path, PROGRAM)

    salvaged, report = Trace.salvage_load(path, PROGRAM)
    rows = list(trace.batch.rows)
    chunk, within = divmod(pos, CHUNK_SIZE)
    if within >= 4:  # inside a record: that record, and only it, goes
        del rows[chunk * CHUNK_RECORDS + (within - 4) // RECORD.size]
    assert salvaged.batch.rows == rows
    assert report.records_read == len(rows)
    assert report.records_skipped == len(trace) - len(rows)
    assert report.records_lost == 0
