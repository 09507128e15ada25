package probe

import (
	"bufio"
	"fmt"
	"io"
)

// EventTrace keeps the most recent events in a bounded ring buffer. The
// bound makes tracing safe on production-scale runs: memory stays constant
// while the tail — usually the part under investigation — is retained.
// Like every probe it belongs to one simulation run and one goroutine.
type EventTrace struct {
	buf   []Event
	start int // index of the oldest retained event
	n     int // retained count
	seq   uint64
}

// NewTrace builds a trace retaining the last capacity events (minimum 1).
func NewTrace(capacity int) *EventTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &EventTrace{buf: make([]Event, 0, capacity)}
}

// Event appends one event, evicting the oldest when full.
func (t *EventTrace) Event(e Event) {
	t.seq++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		t.n++
		return
	}
	t.buf[t.start] = e
	t.start = (t.start + 1) % cap(t.buf)
}

// Len returns the number of retained events.
func (t *EventTrace) Len() int { return t.n }

// Seen returns the total number of events observed (retained + dropped).
func (t *EventTrace) Seen() uint64 { return t.seq }

// Events returns the retained events oldest-first (a copy).
func (t *EventTrace) Events() []Event {
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%cap(t.buf)])
	}
	return out
}

// csvHeader is the stable column set of the CSV export.
const csvHeader = "seq,at_ps,kind,dev,addr,size,write,class,val,aux"

// WriteCSV writes the retained events as CSV with a fixed header. The seq
// column is the event's global index in the run (dropped events keep their
// numbering), so two exports are byte-identical exactly when the underlying
// streams are.
func (t *EventTrace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader); err != nil {
		return err
	}
	first := t.seq - uint64(t.n)
	for i, e := range t.Events() {
		wr := 0
		if e.Write {
			wr = 1
		}
		_, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%#x,%d,%d,%s,%d,%d\n",
			first+uint64(i)+1, int64(e.At), e.Kind, e.Device, e.Addr, e.Size, wr, e.ClassLabel(), e.Val, e.Aux)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
