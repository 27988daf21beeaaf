"""Columnar (structure-of-arrays) trace store: the queryable tier.

The WAL paper's lesson is that traces should be a *database*, not a
file to eyeball. This module is the storage layer of that database for
the TEA reproduction's three trace planes:

* ``ctrace``   -- per-cycle commit-state slices and commit groups, in
  execution order (what :class:`repro.trace.CycleTrace` records, plus a
  materialised start-cycle column so window queries never re-scan);
* ``commit_uops`` -- the flattened (seq, static index, final PSV)
  entries of every commit group, referenced by ``ctrace`` row ranges;
* ``samples``  -- per-sample PICS captures (sampler, instruction, PSV,
  weight), fed by the batched :class:`ColumnSampleSink` sampler sink;
* ``spans``    -- :mod:`repro.obs` span/counter/instant events with
  interned names and JSON side-data.

Every table is a structure of arrays built on stdlib :mod:`array`
(zero dependencies), serialised to a single mmap-able file: an 8-byte
magic, a JSON table-of-contents, and 8-byte-aligned raw column payloads
that :meth:`TraceStore.load` maps straight into ``memoryview.cast``
views without copying. :class:`TraceStore` quacks like a
:class:`~repro.trace.cycletrace.CycleTrace` (``on_cycles``/
``on_commit``), so it can be attached to a core as ``cycle_trace=``
directly; :mod:`repro.trace.query` runs the attribution and grouping
queries on top.
"""

from __future__ import annotations

import io
import json
import mmap
import struct
import sys
from array import array
from pathlib import Path
from typing import Any

from repro.core.states import CommitState
from repro.trace.cycletrace import CommitRecord, CyclesRecord

#: File magic (8 bytes) of the columnar trace format.
MAGIC = b"TEACOL1\n"

#: On-disk format revision (bump on schema/layout changes).
STORE_FORMAT = 1

#: ``ctrace.kind`` values (mirrors :mod:`repro.trace.cycletrace`).
KIND_CYCLES = 0
KIND_COMMIT = 1

#: Column typecodes used by the fixed schemas, with the item sizes the
#: format assumes. stdlib ``array`` uses native C sizes, so we verify
#: the platform matches before writing or mapping a file.
_ITEMSIZES = {"B": 1, "H": 2, "I": 4, "q": 8, "Q": 8, "d": 8}

_HEADER_LEN = struct.Struct("<I")

#: Table schemas: ordered (column name, typecode) pairs.
CTRACE_COLUMNS = (
    ("kind", "B"),       # KIND_CYCLES or KIND_COMMIT
    ("state", "B"),      # CommitState value (commit rows: COMPUTE)
    ("count", "I"),      # cycles covered (commit rows: 1)
    ("head_seq", "q"),   # ROB-head seq for STALLED runs, else -1
    ("cycle", "Q"),      # start cycle of this record (prefix sum)
    ("group_start", "Q"),  # commit rows: first commit_uops row
    ("group_size", "I"),   # commit rows: µop count, else 0
)
COMMIT_UOP_COLUMNS = (
    ("seq", "q"),
    ("index", "I"),
    ("psv", "H"),
)
SAMPLE_COLUMNS = (
    ("sampler", "I"),    # string id of the sampler name
    ("index", "I"),
    ("psv", "H"),
    ("weight", "d"),
)
SPAN_COLUMNS = (
    ("name", "I"),       # string id
    ("cat", "I"),        # string id (0 = absent)
    ("ph", "B"),         # ord() of the Chrome phase character
    ("ts", "q"),
    ("dur", "q"),        # -1 = absent (non-"X" events)
    ("pid", "q"),
    ("tid", "q"),
    ("extra", "I"),      # string id of JSON side-data (0 = none)
)

_SCHEMAS = {
    "ctrace": CTRACE_COLUMNS,
    "commit_uops": COMMIT_UOP_COLUMNS,
    "samples": SAMPLE_COLUMNS,
    "spans": SPAN_COLUMNS,
}


def _check_platform() -> None:
    """Refuse to (de)serialise on platforms with exotic C type sizes."""
    for code, size in _ITEMSIZES.items():
        actual = array(code).itemsize
        if actual != size:
            raise RuntimeError(
                f"array typecode {code!r} is {actual} bytes on this "
                f"platform; the TEACOL format needs {size}"
            )
    if sys.byteorder != "little":
        raise RuntimeError(
            "the TEACOL format is little-endian; big-endian hosts "
            "are not supported"
        )


def _align8(n: int) -> int:
    return (n + 7) & ~7


class StringPool:
    """Interned strings referenced by integer id (id 0 is ``""``).

    Column values that are strings (sampler names, span names, JSON
    side-data) are stored once here and referenced by id, keeping the
    columns fixed-width.
    """

    def __init__(self, strings: list[str] | None = None) -> None:
        self._strings: list[str] = list(strings) if strings else [""]
        if self._strings[0] != "":
            raise ValueError("string pool id 0 must be the empty string")
        self._ids: dict[str, int] = {
            s: i for i, s in enumerate(self._strings)
        }

    def intern(self, value: str) -> int:
        """The id of *value*, allocating one on first sight."""
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._strings)
            self._strings.append(value)
            self._ids[value] = ident
        return ident

    def lookup(self, value: str) -> int | None:
        """The id of *value*, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def __getitem__(self, ident: int) -> str:
        return self._strings[ident]

    def __len__(self) -> int:
        return len(self._strings)

    def to_list(self) -> list[str]:
        return list(self._strings)


class ColumnTable:
    """A named table of parallel equal-length columns.

    Mutable tables hold :class:`array.array` columns and support
    row-wise :meth:`append` plus the batched :meth:`extend` (one
    ``array.extend`` per column -- the SoA fast path). Tables loaded
    from an mmap hold read-only ``memoryview`` casts instead; both
    shapes answer the same read API.
    """

    __slots__ = ("name", "schema", "columns")

    def __init__(
        self,
        name: str,
        schema: tuple[tuple[str, str], ...],
        columns: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.schema = tuple(schema)
        if columns is None:
            columns = {cname: array(code) for cname, code in schema}
        self.columns = columns

    def __len__(self) -> int:
        first = next(iter(self.columns.values()))
        return len(first)

    def append(self, *values: Any) -> None:
        """Append one row (positional, schema order)."""
        if len(values) != len(self.schema):
            raise ValueError(
                f"{self.name}: expected {len(self.schema)} values, "
                f"got {len(values)}"
            )
        for (cname, _code), value in zip(self.schema, values):
            self.columns[cname].append(value)

    def extend(self, **columns: Any) -> None:
        """Batch-append column slices (every column, equal lengths)."""
        names = {cname for cname, _ in self.schema}
        if set(columns) != names:
            raise ValueError(
                f"{self.name}: extend needs exactly columns "
                f"{sorted(names)}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"{self.name}: ragged extend (lengths {sorted(lengths)})"
            )
        for cname, values in columns.items():
            self.columns[cname].extend(values)

    def column(self, name: str) -> Any:
        """One column as a sequence (array or memoryview)."""
        return self.columns[name]

    def row(self, i: int) -> tuple[Any, ...]:
        """Row *i* as a tuple in schema order."""
        return tuple(
            self.columns[cname][i] for cname, _code in self.schema
        )

    def rows(self):
        """Iterate rows as tuples in schema order."""
        cols = [self.columns[cname] for cname, _code in self.schema]
        return zip(*cols) if cols else iter(())

    def to_arrays(self) -> dict[str, array]:
        """Materialise every column as a fresh ``array`` (copies)."""
        out: dict[str, array] = {}
        for cname, code in self.schema:
            arr = array(code)
            col = self.columns[cname]
            if isinstance(col, array):
                arr.extend(col)
            else:
                arr.frombytes(bytes(col))
            out[cname] = arr
        return out


class ColumnSampleSink:
    """Batched sampler ``sink``: captures land in the samples table.

    Drop-in for :class:`repro.trace.SampleWriter`: samplers call
    ``write(index, psv, weight)`` per capture. Rows are buffered in
    plain lists and flushed into the store's column arrays in one
    ``array.extend`` per column every *batch* writes -- the SoA batch
    path. ``batch=1`` degenerates to the per-event path; both produce
    identical tables (row order per sampler is capture order either
    way), which the test suite pins byte-for-byte.
    """

    __slots__ = (
        "_store", "_sampler_id", "batch", "records_written",
        "_indices", "_psvs", "_weights",
    )

    def __init__(
        self, store: "TraceStore", name: str, batch: int = 1024
    ) -> None:
        if batch <= 0:
            raise ValueError("batch must be positive")
        self._store = store
        self._sampler_id = store.strings.intern(name)
        self.batch = batch
        self.records_written = 0
        self._indices: list[int] = []
        self._psvs: list[int] = []
        self._weights: list[float] = []

    def write(self, index: int, psv: int, weight: float) -> None:
        """Buffer one capture; flushes when the batch fills."""
        self._indices.append(index)
        self._psvs.append(psv)
        self._weights.append(weight)
        self.records_written += 1
        if len(self._indices) >= self.batch:
            self.flush()

    def flush(self) -> None:
        """Drain the buffer into the store's sample columns."""
        n = len(self._indices)
        if not n:
            return
        self._store.samples.extend(
            sampler=[self._sampler_id] * n,
            index=self._indices,
            psv=self._psvs,
            weight=self._weights,
        )
        self._indices = []
        self._psvs = []
        self._weights = []

    def close(self) -> None:
        """Flush any tail; the store owns the data."""
        self.flush()


class TraceStore:
    """The structure-of-arrays trace database for one run.

    Quacks like :class:`~repro.trace.cycletrace.CycleTrace` for the
    core (``on_cycles``/``on_commit``), so it can be attached directly
    as ``cycle_trace=``; sampler captures arrive through
    :meth:`sampler_sink`; obs events through :meth:`ingest_span_events`.

    Attributes:
        meta: JSON-able run metadata (workload, spec key, cycles, ...).
        strings: The interned :class:`StringPool`.
    """

    def __init__(self) -> None:
        self.meta: dict[str, Any] = {}
        self.strings = StringPool()
        self.ctrace = ColumnTable("ctrace", CTRACE_COLUMNS)
        self.commit_uops = ColumnTable(
            "commit_uops", COMMIT_UOP_COLUMNS
        )
        self.samples = ColumnTable("samples", SAMPLE_COLUMNS)
        self.spans = ColumnTable("spans", SPAN_COLUMNS)
        self._next_cycle = 0
        self._mmap: mmap.mmap | None = None
        self._mmap_view: memoryview | None = None

    # -- CycleTrace-compatible ingestion hooks -------------------------
    def on_cycles(
        self, state: CommitState, count: int, head_seq: int
    ) -> None:
        """Record a run of *count* cycles in *state* (core hook)."""
        self.ctrace.append(
            KIND_CYCLES, int(state), count, head_seq,
            self._next_cycle, 0, 0,
        )
        self._next_cycle += count

    def on_commit(self, uops: list[tuple[int, int, int]]) -> None:
        """Record one commit group (core hook; one COMPUTE cycle)."""
        start = len(self.commit_uops)
        for seq, index, psv in uops:
            self.commit_uops.append(seq, index, psv)
        self.ctrace.append(
            KIND_COMMIT, int(CommitState.COMPUTE), 1, -1,
            self._next_cycle, start, len(uops),
        )
        self._next_cycle += 1

    def ingest_cycle_records(
        self, records: list[CyclesRecord | CommitRecord]
    ) -> None:
        """Ingest an in-memory :class:`CycleTrace` record list."""
        for record in records:
            if isinstance(record, CyclesRecord):
                self.on_cycles(
                    record.state, record.count, record.head_seq
                )
            else:
                self.on_commit(record.uops)

    def cycle_records(self) -> list[CyclesRecord | CommitRecord]:
        """Reconstruct the record list (lossless round trip)."""
        out: list[CyclesRecord | CommitRecord] = []
        uop_rows = self.commit_uops
        for kind, state, count, head_seq, _cycle, start, size in (
            self.ctrace.rows()
        ):
            if kind == KIND_CYCLES:
                out.append(
                    CyclesRecord(CommitState(state), count, head_seq)
                )
            else:
                out.append(
                    CommitRecord(
                        [uop_rows.row(i) for i in range(start, start + size)]
                    )
                )
        return out

    # -- sampler ingestion ---------------------------------------------
    def sampler_sink(
        self, name: str, batch: int = 1024
    ) -> ColumnSampleSink:
        """A batched capture sink for the sampler called *name*."""
        return ColumnSampleSink(self, name, batch=batch)

    def sampler_names(self) -> list[str]:
        """Distinct sampler names present in the samples table."""
        ids = sorted(set(self.samples.column("sampler")))
        return [self.strings[i] for i in ids]

    def raw_profile(self, sampler: str) -> dict[tuple[int, int], float]:
        """Rebuild *sampler*'s raw profile from the sample columns.

        Accumulation follows row order, which is capture order per
        sampler, so the sums are bit-identical to the profile the live
        sampler accumulated.
        """
        raw: dict[tuple[int, int], float] = {}
        wanted = self.strings.lookup(sampler)
        if wanted is None:  # no capture carries this name
            return raw
        samples = self.samples
        sampler_col = samples.column("sampler")
        index_col = samples.column("index")
        psv_col = samples.column("psv")
        weight_col = samples.column("weight")
        for i in range(len(samples)):
            if sampler_col[i] != wanted:
                continue
            key = (index_col[i], psv_col[i])
            raw[key] = raw.get(key, 0.0) + weight_col[i]
        return raw

    # -- obs span ingestion --------------------------------------------
    #: Span-event keys with dedicated columns; the rest ride in "extra".
    _SPAN_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")

    def ingest_span_events(
        self, events: list[dict[str, Any]]
    ) -> int:
        """Ingest Chrome-shaped obs events; returns rows added.

        ``name``/``cat``/``ph``/``ts``/``dur``/``pid``/``tid`` get
        columns; every other key (``args``, instant scope ``s``, ...)
        is serialised to a canonical JSON string in the ``extra``
        column, so :meth:`span_events` reconstructs the original dicts
        exactly.
        """
        intern = self.strings.intern
        added = 0
        for event in events:
            extras = {
                k: v for k, v in event.items()
                if k not in self._SPAN_FIELDS
            }
            self.spans.append(
                intern(event["name"]),
                intern(event["cat"]) if "cat" in event else 0,
                ord(event.get("ph", "X")),
                int(event.get("ts", 0)),
                int(event["dur"]) if "dur" in event else -1,
                int(event.get("pid", -1)),
                int(event.get("tid", -1)),
                intern(json.dumps(extras, sort_keys=True))
                if extras else 0,
            )
            added += 1
        return added

    def span_events(self) -> list[dict[str, Any]]:
        """Reconstruct the ingested obs events (lossless round trip)."""
        strings = self.strings
        out: list[dict[str, Any]] = []
        for name, cat, ph, ts, dur, pid, tid, extra in self.spans.rows():
            event: dict[str, Any] = {
                "name": strings[name],
                "ph": chr(ph),
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if cat:
                event["cat"] = strings[cat]
            if dur >= 0:
                event["dur"] = dur
            if extra:
                event.update(json.loads(strings[extra]))
            out.append(event)
        return out

    # -- serialisation -------------------------------------------------
    @property
    def tables(self) -> dict[str, ColumnTable]:
        return {
            "ctrace": self.ctrace,
            "commit_uops": self.commit_uops,
            "samples": self.samples,
            "spans": self.spans,
        }

    def row_counts(self) -> dict[str, int]:
        """Rows per table (telemetry and ``query summary``)."""
        return {name: len(t) for name, t in self.tables.items()}

    def to_bytes(self) -> bytes:
        """Serialise to the TEACOL byte format."""
        _check_platform()
        blob = io.BytesIO()
        offsets = array("Q", [0])
        for s in self.strings.to_list():
            blob.write(s.encode("utf-8"))
            offsets.append(blob.tell())
        strings_blob = blob.getvalue()
        offsets_bytes = offsets.tobytes()

        # Lay the data section out first so the TOC can carry absolute
        # offsets; the section starts right after magic + header.
        sections: list[bytes] = [strings_blob, offsets_bytes]
        toc_tables: dict[str, Any] = {}
        for tname, table in self.tables.items():
            cols = []
            for cname, code in table.schema:
                col = table.columns[cname]
                data = (
                    col.tobytes()
                    if isinstance(col, array)
                    else bytes(col)
                )
                cols.append(
                    {
                        "name": cname,
                        "code": code,
                        "itemsize": _ITEMSIZES[code],
                        "nbytes": len(data),
                        "payload": data,
                    }
                )
            toc_tables[tname] = {"rows": len(table), "columns": cols}

        header: dict[str, Any] = {
            "format": STORE_FORMAT,
            "meta": self.meta,
            "next_cycle": self._next_cycle,
            "strings": {
                "count": len(self.strings),
                "blob_nbytes": len(strings_blob),
            },
        }
        # Two-pass layout: header length shifts offsets, so compute
        # with placeholder offsets of equal width (12 digits covers
        # any realistic trace), then fill in.
        def layout(base: int) -> tuple[dict[str, Any], list[tuple[int, bytes]]]:
            chunks: list[tuple[int, bytes]] = []
            cursor = base
            doc = dict(header)
            cursor = _align8(cursor)
            doc["strings"] = dict(header["strings"])
            doc["strings"]["blob_offset"] = cursor
            chunks.append((cursor, strings_blob))
            cursor = _align8(cursor + len(strings_blob))
            doc["strings"]["offsets_offset"] = cursor
            chunks.append((cursor, offsets_bytes))
            cursor = _align8(cursor + len(offsets_bytes))
            tables_doc: dict[str, Any] = {}
            for tname, tdoc in toc_tables.items():
                cols_doc = []
                for col in tdoc["columns"]:
                    cursor = _align8(cursor)
                    cols_doc.append(
                        {
                            "name": col["name"],
                            "code": col["code"],
                            "itemsize": col["itemsize"],
                            "offset": cursor,
                            "nbytes": col["nbytes"],
                        }
                    )
                    chunks.append((cursor, col["payload"]))
                    cursor += col["nbytes"]
                tables_doc[tname] = {
                    "rows": tdoc["rows"],
                    "columns": cols_doc,
                }
            doc["tables"] = tables_doc
            return doc, chunks

        # Stabilise: the header JSON length depends on the offsets it
        # contains; iterate until the length fixes (two rounds always
        # suffice -- offsets only grow with header length).
        base = len(MAGIC) + _HEADER_LEN.size
        doc, chunks = layout(base)
        for _ in range(4):
            encoded = json.dumps(doc, sort_keys=True).encode("utf-8")
            new_base = len(MAGIC) + _HEADER_LEN.size + len(encoded)
            new_doc, new_chunks = layout(new_base)
            new_encoded = json.dumps(
                new_doc, sort_keys=True
            ).encode("utf-8")
            if len(new_encoded) == len(encoded):
                doc, chunks, encoded = new_doc, new_chunks, new_encoded
                break
            doc, chunks = new_doc, new_chunks
        else:  # pragma: no cover - lengths monotonically stabilise
            raise RuntimeError("TEACOL header layout did not converge")

        out = io.BytesIO()
        out.write(MAGIC)
        out.write(_HEADER_LEN.pack(len(encoded)))
        out.write(encoded)
        for offset, payload in chunks:
            pad = offset - out.tell()
            if pad < 0:  # pragma: no cover - layout invariant
                raise RuntimeError("TEACOL layout overlap")
            out.write(b"\0" * pad)
            out.write(payload)
        return out.getvalue()

    def save(self, path: str | Path) -> Path:
        """Write the store to *path* (parents created)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(self.to_bytes())
        return target

    @classmethod
    def _from_buffer(
        cls, buf: Any, copy: bool
    ) -> "TraceStore":
        _check_platform()
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise ValueError("not a TEACOL columnar trace")
        (header_len,) = _HEADER_LEN.unpack(
            buf[len(MAGIC): len(MAGIC) + _HEADER_LEN.size]
        )
        header_start = len(MAGIC) + _HEADER_LEN.size
        try:
            doc = json.loads(
                bytes(buf[header_start: header_start + header_len])
            )
        except ValueError as exc:
            raise ValueError(f"corrupt TEACOL header: {exc}") from None
        if doc.get("format") != STORE_FORMAT:
            raise ValueError(
                f"unsupported TEACOL format {doc.get('format')!r}"
            )

        sdoc = doc["strings"]
        blob = bytes(
            buf[
                sdoc["blob_offset"]:
                sdoc["blob_offset"] + sdoc["blob_nbytes"]
            ]
        )
        offs = array("Q")
        offs.frombytes(
            bytes(
                buf[
                    sdoc["offsets_offset"]:
                    sdoc["offsets_offset"] + 8 * (sdoc["count"] + 1)
                ]
            )
        )
        strings = [
            blob[offs[i]: offs[i + 1]].decode("utf-8")
            for i in range(sdoc["count"])
        ]

        store = cls()
        store.meta = dict(doc.get("meta", {}))
        store.strings = StringPool(strings)
        store._next_cycle = int(doc.get("next_cycle", 0))
        for tname, schema in _SCHEMAS.items():
            tdoc = doc["tables"].get(tname)
            if tdoc is None:
                raise ValueError(f"TEACOL file missing table {tname!r}")
            by_name = {c["name"]: c for c in tdoc["columns"]}
            columns: dict[str, Any] = {}
            for cname, code in schema:
                cdoc = by_name.get(cname)
                if cdoc is None or cdoc["code"] != code:
                    raise ValueError(
                        f"TEACOL table {tname!r} missing column "
                        f"{cname!r} ({code})"
                    )
                lo, n = cdoc["offset"], cdoc["nbytes"]
                if lo + n > len(buf):
                    raise ValueError("truncated TEACOL file")
                if copy:
                    arr = array(code)
                    arr.frombytes(bytes(buf[lo: lo + n]))
                    columns[cname] = arr
                else:
                    columns[cname] = buf[lo: lo + n].cast(code)
            table = ColumnTable(tname, schema, columns)
            if len(table) != tdoc["rows"]:
                raise ValueError(
                    f"TEACOL table {tname!r}: row count mismatch"
                )
            setattr(store, tname, table)
        return store

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceStore":
        """Deserialise from bytes (columns are copied into arrays)."""
        return cls._from_buffer(memoryview(data), copy=True)

    @classmethod
    def load(cls, path: str | Path, use_mmap: bool = True) -> "TraceStore":
        """Load a TEACOL file.

        With *use_mmap* (the default) column data stays on disk and is
        exposed through zero-copy ``memoryview.cast`` views; the store
        is then read-only. Without it the whole file is read and the
        columns are mutable arrays.
        """
        if not use_mmap:
            return cls.from_bytes(Path(path).read_bytes())
        with open(path, "rb") as handle:
            mapped = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        view = memoryview(mapped)
        try:
            store = cls._from_buffer(view, copy=False)
        except Exception:
            view.release()
            mapped.close()
            raise
        store._mmap = mapped
        store._mmap_view = view
        return store

    def close(self) -> None:
        """Release mmap-backed column views (no-op for in-memory)."""
        if self._mmap is None:
            return
        for table in self.tables.values():
            table.columns = {
                cname: array(code)
                for cname, code in table.schema
            }
        view, self._mmap_view = self._mmap_view, None
        mapped, self._mmap = self._mmap, None
        if view is not None:
            view.release()
        mapped.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
