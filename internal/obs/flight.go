package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultFlightEvents is the flight-recorder ring size used when the
// caller does not pick one.
const DefaultFlightEvents = 256

// Event is one flight-recorder entry: a timestamped, structured fact
// about what the daemon just did (a request finished, a queue rejected
// a job, a cell settled). Events are wall-clock evidence, never part of
// any deterministic core.
type Event struct {
	Seq       uint64  `json:"seq"`
	TimeNanos int64   `json:"time_nanos"` // wall clock, Unix nanoseconds
	Kind      string  `json:"kind"`
	Fields    []Field `json:"fields,omitempty"`
}

// Field is one key/value attribute of an Event. Exactly one of Str or
// Int is meaningful, selected by the constructor used.
type Field struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
}

// FStr builds a string-valued event field.
func FStr(key, value string) Field { return Field{Key: key, Str: value} }

// FInt builds an integer-valued event field.
func FInt(key string, value int64) Field { return Field{Key: key, Int: value} }

// Flight is a fixed-size, lock-free ring buffer of recent Events: the
// daemon's flight recorder. Writers claim a slot with one atomic add
// and publish the event with one atomic pointer store, so Record is
// safe from any goroutine and never blocks behind a reader; the ring
// simply overwrites its oldest entry when full. Readers see a
// best-effort but tear-free view: every event returned was published
// whole. A nil *Flight is a valid no-op recorder, which lets callers
// wire recording unconditionally and disable it by construction.
type Flight struct {
	slots  []atomic.Pointer[Event]
	cursor atomic.Uint64
}

// NewFlight constructs a flight recorder retaining the last size
// events (size <= 0 selects DefaultFlightEvents).
func NewFlight(size int) *Flight {
	if size <= 0 {
		size = DefaultFlightEvents
	}
	return &Flight{slots: make([]atomic.Pointer[Event], size)}
}

// Record appends one event. It allocates the Event (events are
// request-, cell-, and retune-frequency — never per simulated step)
// and publishes it with a single pointer store.
func (f *Flight) Record(kind string, fields ...Field) {
	if f == nil {
		return
	}
	seq := f.cursor.Add(1) - 1
	ev := &Event{Seq: seq, TimeNanos: time.Now().UnixNano(), Kind: kind, Fields: fields}
	f.slots[seq%uint64(len(f.slots))].Store(ev)
}

// Events returns the retained events in sequence order, oldest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	out := make([]Event, 0, len(f.slots))
	for i := range f.slots {
		if ev := f.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Tail returns the most recent n retained events, oldest first.
func (f *Flight) Tail(n int) []Event {
	evs := f.Events()
	if n >= 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Recorded reports how many events have ever been recorded (not how
// many are retained).
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.cursor.Load()
}
