package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// span is one timed call into a public function of the program: its
// name, start and end (ns since the tracer's base), the index of the
// span that caused it (-1 for a root) and the op it belongs to. It
// holds no pointers (names are interned), so a large span buffer adds
// nothing to the garbage collector's marking work.
type span struct {
	name       uint16
	parent     int32
	op         int32
	start, end int64
}

// maxSpans bounds the in-memory span buffer; spans beyond it are
// counted, not kept, so a long traced run cannot grow without bound.
const maxSpans = 1 << 20

// tracer records spans in memory and writes them out when the run
// ends. A nil *tracer records nothing, so untraced passes pay only a
// nil check per call site.
type tracer struct {
	base    time.Time
	names   []string
	ids     map[string]uint16
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// at converts a wall time into the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return w.Sub(t.base).Nanoseconds() }

// add records a finished span and returns its index for children (-1
// when the tracer is nil or full).
func (t *tracer) add(name string, start, end time.Time, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: t.nameID(name), start: t.at(start), end: t.at(end), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not yet known; close sets it.
func (t *tracer) open(name string, start time.Time, parent, op int32) int32 {
	return t.add(name, start, start, parent, op)
}

func (t *tracer) close(i int32, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.at(end)
}

// write dumps the spans as CSV (one row per span) into dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	w := csv.NewWriter(bw)
	_ = w.Write([]string{"id", "name", "start_ns", "end_ns", "parent", "op"})
	for i, s := range t.spans {
		_ = w.Write([]string{strconv.Itoa(i), t.names[s.name], strconv.FormatInt(s.start, 10), strconv.FormatInt(s.end, 10),
			strconv.Itoa(int(s.parent)), strconv.Itoa(int(s.op))})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}

// runtimeCounters is a reading of the Go runtime's allocation and GC
// counters. Reading them stops the world briefly, so passes read them
// only at their boundaries and around restart cycles, never per op.
type runtimeCounters struct {
	allocs  uint64 // heap objects allocated, cumulative
	gcs     uint64 // completed GC cycles
	pauseNs uint64 // cumulative stop-the-world pause
}

func readCounters() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{allocs: ms.Mallocs, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// since returns the counters accumulated after base.
func (c runtimeCounters) since(base runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:  c.allocs - base.allocs,
		gcs:     c.gcs - base.gcs,
		pauseNs: c.pauseNs - base.pauseNs,
	}
}

// plus adds two counter deltas.
func (c runtimeCounters) plus(o runtimeCounters) runtimeCounters {
	return runtimeCounters{allocs: c.allocs + o.allocs, gcs: c.gcs + o.gcs, pauseNs: c.pauseNs + o.pauseNs}
}
