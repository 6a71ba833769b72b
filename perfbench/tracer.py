"""Span tracer installed around fintopo's public functions from outside.

install() wraps each traced function in every fintopo module namespace
and module-level dict that holds it: a `from .x import f` binds f when
the importing module loads, so patching the defining module alone would
miss callers such as fintopo.theorems.class_table, and dispatch tables
such as setclasses.PREDICATES hold the functions directly.

Every span records its name, start, end, parent span and request; the
request is the number of the cli.main call it belongs to.  Spans stay in
memory, one array per field, and write_spans saves them when the run
ends.  A layer's self time is its spans' durations minus the time their
child spans cover.  Calls into the same layer from inside it (is_ab_set
calling ab_set_witness, decode_map calling decode_space) belong to the
outer span.

interior, closure, preimage and image run millions of times per sweep,
so they record a call count and their total time only.  That time is
still taken out of the enclosing span's self time.

Generators (enumerate_topologies, enumerate_maps) run only while they are
resumed; their span lasts from creation to exhaustion, and their self
time counts only the time spent inside them.

A forked pool worker restores the original functions, so worker-side
work shows up only as theorems.pool.wait time in the parent.
"""

import array
import json
import os
import sys
from time import perf_counter

_COLUMNS = (("name", "i"), ("parent", "q"), ("request", "i"),
            ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.request = 0
        self.names = []
        self._name_ids = {}
        self.columns = {field: array.array(code) for field, code in _COLUMNS}
        # open spans as [index, name id, start, time covered by children]
        self.stack = []
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.leaf_s = {}
        self.in_leaf = False
        self._open_generators = {}
        self._saved = []
        self._installed = False
        self.class_table_info = None

    # -- spans ------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def counter(self, name):
        """A one-element list the wrappers increment in place."""
        return self.counters.setdefault(name, [0])

    def _new_span(self, nid, t):
        cols = self.columns
        index = len(cols["start"])
        cols["name"].append(nid)
        cols["parent"].append(self.stack[-1][0] if self.stack else -1)
        cols["request"].append(self.request)
        cols["start"].append(t)
        cols["end"].append(t)
        return [index, nid, t, 0.0]

    def open(self, nid):
        rec = self._new_span(nid, perf_counter())
        self.stack.append(rec)
        return rec

    def close(self, rec):
        t = perf_counter()
        self.stack.pop()
        self.columns["end"][rec[0]] = t
        duration = t - rec[2]
        if self.stack:
            self.stack[-1][3] += duration
        nid = rec[1]
        self.calls[nid] += 1
        self.self_s[nid] += duration - rec[3]

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result) runs once the span is closed."""
        nid = self.name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            rec = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(result)
            return result
        return traced

    def leaf(self, count_name, time_name, fn):
        """Count every call; time only calls not made from another leaf."""
        count = self.counter(count_name)
        self.leaf_s.setdefault(time_name, 0.0)
        stack = self.stack

        def traced(*args):
            count[0] += 1
            if self.in_leaf:
                return fn(*args)
            self.in_leaf = True
            t = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t
                self.in_leaf = False
                self.leaf_s[time_name] += dt
                if stack:
                    stack[-1][3] += dt
        return traced

    def generator(self, name, item_counter, fn):
        nid = self.name_id(name)
        items = self.counter(item_counter)

        def traced(*args, **kwargs):
            return _TracedIterator(self, nid, items, fn(*args, **kwargs))
        return traced

    def _finish_generator(self, it, t):
        if self._open_generators.pop(id(it), None) is None:
            return
        self.columns["end"][it.rec[0]] = t
        self.calls[it.rec[1]] += 1
        self.self_s[it.rec[1]] += it.busy - it.rec[3]

    # -- installation -----------------------------------------------------

    def patch(self, original, replacement):
        """Replace original wherever a fintopo module or its dicts hold it."""
        for modname, module in list(sys.modules.items()):
            if modname != "fintopo" and not modname.startswith("fintopo."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    self._saved.append((namespace, key, value))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._saved.append((value, k, v))
                            value[k] = replacement

    def uninstall(self):
        if not self._installed:
            return
        for table, key, value in reversed(self._saved):
            table[key] = value
        self._saved.clear()
        self._installed = False

    # -- results ----------------------------------------------------------

    def finish(self):
        t = perf_counter()
        for it in list(self._open_generators.values()):
            self._finish_generator(it, it.last or t)
        self.uninstall()

    def span_totals(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def write_spans(self, path):
        """One JSON header line, then each column's raw bytes in order."""
        cols = self.columns
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "count": len(cols["start"]),
            "columns": [[field, code] for field, code in _COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _ in _COLUMNS:
                cols[field].tofile(fh)


class _TracedIterator:
    __slots__ = ("tracer", "items", "inner", "rec", "busy", "last")

    def __init__(self, tracer, nid, items, inner):
        self.tracer = tracer
        self.items = items
        self.inner = inner
        self.rec = tracer._new_span(nid, perf_counter())
        self.busy = 0.0
        self.last = None
        tracer._open_generators[id(self)] = self

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stack = tracer.stack
        t = perf_counter()
        stack.append(self.rec)
        try:
            item = next(self.inner)
        except BaseException:
            self._suspend(stack, t)
            tracer._finish_generator(self, self.last)
            raise
        self._suspend(stack, t)
        self.items[0] += 1
        return item

    def _suspend(self, stack, t):
        stack.pop()
        self.last = perf_counter()
        dt = self.last - t
        self.busy += dt
        if stack:
            stack[-1][3] += dt


def read_spans(path):
    """(header, columns) of a file written by Tracer.write_spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, code in header["columns"]:
            col = array.array(code)
            col.fromfile(fh, header["count"])
            columns[field] = col
    return header, columns


class _TracedPool:
    """multiprocessing.Pool with spans around start-up, waits and shutdown."""

    def __init__(self, tracer, factory, *args, **kwargs):
        self._tracer = tracer
        rec = tracer.open(tracer.name_id("theorems.pool.setup"))
        try:
            self._pool = factory(*args, **kwargs)
        finally:
            tracer.close(rec)
        self._wait = tracer.name_id("theorems.pool.wait")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        rec = tracer.open(tracer.name_id("theorems.pool.teardown"))
        try:
            return self._pool.__exit__(*exc)
        finally:
            tracer.close(rec)

    def imap(self, fn, iterable, chunksize=1):
        results = self._pool.imap(fn, iterable, chunksize)
        while True:
            rec = self._tracer.open(self._wait)
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                self._tracer.close(rec)
            yield item


def install(tracer):
    """Wrap the traced fintopo functions; returns the tracer."""
    from fintopo import (
        cli,
        documents,
        enumeration,
        maps,
        setclasses,
        space,
        spaceprops,
        theorems,
    )

    t = tracer
    patch = t.patch
    patch(space.topology_from_preorder,
          t.span("space.topology_from_preorder", space.topology_from_preorder))
    patch(space.build_topology,
          t.span("space.build_topology", space.build_topology))
    patch(space.interior, t.leaf("space.interior.calls",
                                 "space.interior_closure", space.interior))
    patch(space.closure, t.leaf("space.closure.calls",
                                "space.interior_closure", space.closure))
    patch(enumeration.enumerate_topologies,
          t.generator("enumeration.enumerate_topologies",
                      "enumeration.enumerate_topologies.topologies",
                      enumeration.enumerate_topologies))

    t.class_table_info = setclasses.class_table.cache_info
    patch(setclasses.class_table,
          t.span("setclasses.class_table", setclasses.class_table))
    single_subset = {
        *setclasses.PREDICATES.values(),
        *setclasses.WITNESS_FUNCTIONS.values(),
        setclasses.semi_closure,
        setclasses.is_semi_regular_sandwich,
        setclasses.is_b_set_via_semi_closure,
        setclasses.semi_closure_closed_form,
        setclasses.is_ic_set_subspace,
    }
    for fn in single_subset:
        patch(fn, t.span("setclasses.single_subset", fn))
    patch(spaceprops.space_profile,
          t.span("spaceprops.space_profile", spaceprops.space_profile))

    patch(maps.enumerate_maps,
          t.generator("maps.enumerate_maps", "maps.enumerate_maps.maps",
                      maps.enumerate_maps))
    patch(maps.preimage,
          t.leaf("maps.preimage.calls", "maps.preimage_image", maps.preimage))
    patch(maps.image,
          t.leaf("maps.image.calls", "maps.preimage_image", maps.image))
    patch(maps.is_continuous_in,
          t.span("maps.is_continuous_in", maps.is_continuous_in))

    verify = theorems.verify
    by_scope = {scope: t.name_id(f"theorems.verify_{scope}")
                for scope in ("set", "space", "map")}
    checked = {key: t.counter(f"theorems.{key}")
               for key in ("spaces_checked", "sets_checked", "maps_checked")}

    def traced_verify(p, *args, **kwargs):
        prop = theorems.proposition(p) if isinstance(p, str) else p
        rec = t.open(by_scope[prop.scope])
        try:
            report = verify(p, *args, **kwargs)
        finally:
            t.close(rec)
        for key, cell in checked.items():
            cell[0] += getattr(report, key)
        return report
    patch(verify, traced_verify)

    report_bytes = t.counter("theorems.serialize_report.bytes")

    def count_bytes(text):
        report_bytes[0] += len(text.encode("utf-8"))
    patch(theorems.serialize_report,
          t.span("theorems.serialize_report", theorems.serialize_report,
                 after=count_bytes))

    created = t.counter("theorems.pool.created")
    pool_factory = theorems.Pool

    def traced_pool(*args, **kwargs):
        created[0] += 1
        return _TracedPool(t, pool_factory, *args, **kwargs)
    patch(pool_factory, traced_pool)

    for fn in (documents.decode_space, documents.decode_map):
        patch(fn, t.span("documents.decode", fn))

    main = cli.main
    main_span = t.span("cli.main", main)

    def traced_main(*args, **kwargs):
        t.request += 1
        return main_span(*args, **kwargs)
    patch(main, traced_main)

    t._installed = True
    os.register_at_fork(after_in_child=t.uninstall)
    return t


def layer_metrics(tracer):
    """Flat per-layer metrics of a finished traced run."""
    out = {}
    for name in tracer.names:
        calls, self_s = tracer.span_totals(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name, cell in tracer.counters.items():
        out[name] = cell[0]
    for name, seconds in tracer.leaf_s.items():
        out[f"{name}.self_s"] = seconds
    calls = out.get("setclasses.class_table.calls", 0)
    # the child process starts cold, so every miss happened in this run
    misses = tracer.class_table_info().misses
    out["setclasses.class_table.misses"] = misses
    out["setclasses.class_table.hit_ratio"] = (
        (calls - misses) / calls if calls else 0.0
    )
    out["theorems.pool.setup_s"] = tracer.span_totals("theorems.pool.setup")[1]
    out["theorems.pool.wait_s"] = tracer.span_totals("theorems.pool.wait")[1]
    out["trace.spans"] = len(tracer.columns["start"])
    return out
